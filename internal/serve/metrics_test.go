package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/sweep"
)

// scrapeMetrics GETs /metrics and parses the exposition into a
// series → value map keyed by the full series name including its label
// set, e.g. `mmserve_http_requests_total{code="200",endpoint="/v1/algos"}`.
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	series := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(readAll(t, resp)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in line %q: %v", line, err)
		}
		series[line[:i]] = v
	}
	return series
}

// TestMetricsEndpoint drives known traffic through every layer and checks
// GET /metrics accounts for it: per-endpoint request counters and latency
// histogram counts match the requests made, cache counters reflect the
// sweep's instance builds, and the sweep driver's row counters match the
// trailer. These series names are stable API (the CI metrics-smoke and
// README table grep for them).
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxSweeps: 3})

	// Two /v1/algos requests, one graph submit, one sweep of two algorithms
	// over one grid cell — both algorithms share the instance, so the cache
	// sees exactly 1 miss + 1 hit.
	for i := 0; i < 2; i++ {
		readAll(t, mustGet(t, ts.URL+"/v1/algos"))
	}
	readAll(t, postJSON(t, ts.URL+"/v1/graphs", fourCycle()))
	resp := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Grids: []string{"regular:n=32,k=4"}, Algos: []string{"greedy", "proposal"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d", resp.StatusCode)
	}
	rows, trailer := ndjson(t, readAll(t, resp))
	if trailer == nil || !trailer.Done {
		t.Fatal("sweep did not complete")
	}

	m := scrapeMetrics(t, ts.URL)
	want := map[string]float64{
		`mmserve_http_requests_total{code="200",endpoint="/v1/algos"}`:  2,
		`mmserve_http_requests_total{code="201",endpoint="/v1/graphs"}`: 1,
		`mmserve_http_requests_total{code="200",endpoint="/v1/sweep"}`:  1,
		`mmserve_http_request_seconds_count{endpoint="/v1/algos"}`:      2,
		`mmserve_http_request_seconds_count{endpoint="/v1/sweep"}`:      1,
		`mmserve_sweep_slots_capacity`:                                  3,
		`mmserve_sweep_slots_in_use`:                                    0,
		`mmserve_active_sweeps`:                                         0,
		`mmserve_graphs_stored`:                                         1,
		`mmserve_cache_misses_total`:                                    1,
		`mmserve_cache_hits_total`:                                      1,
		`mmserve_cache_entries`:                                         1,
		`sweep_rows_total`:                                              float64(len(rows)),
		`sweep_cells_done_total`:                                        float64(len(rows)),
		`sweep_build_seconds_count`:                                     float64(len(rows)),
	}
	for s, v := range want {
		if got, ok := m[s]; !ok {
			t.Errorf("exposition missing series %s", s)
		} else if got != v {
			t.Errorf("%s = %v, want %v", s, got, v)
		}
	}
	// The latency histogram is a full triplet: its +Inf bucket and sum
	// accompany the count.
	if _, ok := m[`mmserve_http_request_seconds_bucket{endpoint="/v1/sweep",le="+Inf"}`]; !ok {
		t.Error("latency histogram missing +Inf bucket")
	}
}

// TestHealthzAgreesWithMetrics pins the satellite contract: /healthz reads
// the same sources the /metrics Funcs sample, so the two endpoints report
// identical cache/store/sweep numbers.
func TestHealthzAgreesWithMetrics(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	readAll(t, postJSON(t, ts.URL+"/v1/graphs", fourCycle()))
	resp := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Grids: []string{"regular:n=32,k=4"}, Reps: 2,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d", resp.StatusCode)
	}
	readAll(t, resp)

	var h health
	if err := json.Unmarshal(readAll(t, mustGet(t, ts.URL+"/healthz")), &h); err != nil {
		t.Fatal(err)
	}
	m := scrapeMetrics(t, ts.URL)
	pairs := []struct {
		series string
		health float64
	}{
		{"mmserve_active_sweeps", float64(h.ActiveSweeps)},
		{"mmserve_graphs_stored", float64(h.GraphsStored)},
		{"mmserve_cache_hits_total", float64(h.Cache.Hits)},
		{"mmserve_cache_misses_total", float64(h.Cache.Misses)},
		{"mmserve_cache_entries", float64(h.Cache.Entries)},
	}
	for _, p := range pairs {
		if m[p.series] != p.health {
			t.Errorf("%s = %v but /healthz reports %v", p.series, m[p.series], p.health)
		}
	}
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
}

// TestMetricsDuringSweep scrapes /metrics while a sweep is held mid-build:
// the slot gauge and active-sweeps gauge report the in-flight request, and
// refusals increment the refused counter by reason — first saturated, then
// (after the sweep completes) draining.
func TestMetricsDuringSweep(t *testing.T) {
	gate := &gatedProvider{entered: make(chan struct{}, 8), release: make(chan struct{})}
	srv, ts := newTestServer(t, Options{
		MaxSweeps: 1,
		WrapProvider: func(p sweep.InstanceProvider) sweep.InstanceProvider {
			gate.inner = p
			return gate
		},
	})

	req := SweepRequest{Grids: []string{"regular:n=64,k=4"}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		readAll(t, postJSON(t, ts.URL+"/v1/sweep", req))
	}()
	<-gate.entered // the only slot is held mid-build

	mid := scrapeMetrics(t, ts.URL)
	if mid["mmserve_sweep_slots_in_use"] != 1 {
		t.Errorf("mid-sweep slots in use = %v, want 1", mid["mmserve_sweep_slots_in_use"])
	}
	if mid["mmserve_active_sweeps"] != 1 {
		t.Errorf("mid-sweep active sweeps = %v, want 1", mid["mmserve_active_sweeps"])
	}

	// Saturated refusal.
	if resp := postJSON(t, ts.URL+"/v1/sweep", req); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated status = %d", resp.StatusCode)
	} else {
		readAll(t, resp)
	}
	close(gate.release)
	wg.Wait()

	// Draining refusal.
	srv.BeginDrain()
	if resp := postJSON(t, ts.URL+"/v1/sweep", req); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d", resp.StatusCode)
	} else {
		readAll(t, resp)
	}

	m := scrapeMetrics(t, ts.URL)
	if m[`mmserve_sweeps_refused_total{reason="saturated"}`] != 1 {
		t.Errorf("saturated refusals = %v, want 1", m[`mmserve_sweeps_refused_total{reason="saturated"}`])
	}
	if m[`mmserve_sweeps_refused_total{reason="draining"}`] != 1 {
		t.Errorf("draining refusals = %v, want 1", m[`mmserve_sweeps_refused_total{reason="draining"}`])
	}
	if m["mmserve_sweep_slots_in_use"] != 0 {
		t.Errorf("post-sweep slots in use = %v, want 0", m["mmserve_sweep_slots_in_use"])
	}
	// The refused 503s are in the request counters too.
	if m[`mmserve_http_requests_total{code="503",endpoint="/v1/sweep"}`] != 2 {
		t.Errorf("503 counter = %v, want 2", m[`mmserve_http_requests_total{code="503",endpoint="/v1/sweep"}`])
	}
}

// TestMetricsDisabled covers the obs-off seam the overhead benchmark uses:
// with noObs the server still serves every route — /metrics is an empty
// exposition, and /healthz reads its sources as it always does.
func TestMetricsDisabled(t *testing.T) {
	_, ts := newTestServer(t, Options{noObs: true})
	readAll(t, postJSON(t, ts.URL+"/v1/graphs", fourCycle()))
	resp := mustGet(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if body := readAll(t, resp); len(bytes.TrimSpace(body)) != 0 {
		t.Fatalf("obs-off /metrics body = %q, want empty", body)
	}
	var h health
	if err := json.Unmarshal(readAll(t, mustGet(t, ts.URL+"/healthz")), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.GraphsStored != 1 {
		t.Errorf("obs-off health = %+v", h)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
