package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Result is one request's outcome as the client observed it.
type Result struct {
	// Rows is the number of result rows the response delivered,
	// Violations the contract violations its trailer reported.
	Rows       int
	Violations int
}

// Sender issues one load-generator request and blocks until the response
// is complete. Implementations must be safe for concurrent Send calls;
// the pacer fires up to MaxInFlight at once.
type Sender interface {
	Send(ctx context.Context, req Request) (Result, error)
	// Name identifies the backend in the run report ("http", "null").
	Name() string
}

// NullSender accepts every request instantly, so a run against it
// exercises the pacer and recorder alone, with no server behind them.
type NullSender struct{}

// Send implements Sender.
func (NullSender) Send(context.Context, Request) (Result, error) { return Result{}, nil }

// Name implements Sender.
func (NullSender) Name() string { return "null" }

// HTTPSender drives a live mmserve: POST /v1/sweep per request, reading
// the NDJSON stream through to the done-trailer. A request succeeds only
// if the body ends in a trailer whose row count matches the rows read —
// a torn stream, an in-band error line, or a non-200 status (including
// the 503s a saturated or draining server sends) is a client-observed
// error, counted by the recorder and held against the error-rate SLO.
type HTTPSender struct {
	// Base is the server root, e.g. "http://127.0.0.1:8091". Requests go
	// through http.DefaultClient, which has no overall timeout: sweep
	// responses stream for as long as the cells take, so cancel through
	// the context instead.
	Base string
}

// Send implements Sender.
func (s *HTTPSender) Send(ctx context.Context, req Request) (Result, error) {
	body, err := json.Marshal(serve.SweepRequest{
		Grids: []string{req.Grid},
		Algos: []string{req.Algo},
		Seed:  req.Seed,
	})
	if err != nil {
		return Result{}, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.Base+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return Result{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return Result{}, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return Result{}, fmt.Errorf("sweep status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return readNDJSON(resp.Body)
}

// Name implements Sender.
func (s *HTTPSender) Name() string { return "http" }

// readNDJSON consumes a sweep response stream: counts rows, requires the
// done-trailer, surfaces in-band error lines.
func readNDJSON(r io.Reader) (Result, error) {
	var res Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	var trailer *serve.SweepTrailer
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if trailer != nil {
			return res, fmt.Errorf("sweep response continued after its trailer")
		}
		var probe struct {
			Done  *bool  `json:"done"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return res, fmt.Errorf("bad NDJSON line: %w", err)
		}
		switch {
		case probe.Error != "":
			return res, fmt.Errorf("in-band sweep error: %s", probe.Error)
		case probe.Done != nil:
			trailer = &serve.SweepTrailer{}
			if err := json.Unmarshal(line, trailer); err != nil {
				return res, err
			}
		default:
			res.Rows++
		}
	}
	if err := sc.Err(); err != nil {
		return res, err
	}
	if trailer == nil || !trailer.Done {
		return res, fmt.Errorf("sweep response ended without a done-trailer (%d rows read)", res.Rows)
	}
	if trailer.Rows != res.Rows {
		return res, fmt.Errorf("trailer counts %d rows, stream delivered %d", trailer.Rows, res.Rows)
	}
	res.Violations = trailer.Violations
	return res, nil
}

// scrapeMetrics fetches and parses a Prometheus /metrics endpoint; the
// recorder polls it to place server-side quantiles next to client-side
// ones.
func scrapeMetrics(ctx context.Context, url string) (*obs.Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics status %d", resp.StatusCode)
	}
	return obs.ParsePrometheus(resp.Body)
}

// finalScrape is the post-run scrape on its own deadline: it must happen
// even when the run context was cancelled, or a cancelled run would lose
// its server-side half.
func finalScrape(url string) (*obs.Snapshot, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return scrapeMetrics(ctx, url)
}
