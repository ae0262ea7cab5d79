package loadgen

import (
	"fmt"
	"math"
	goruntime "runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// recorder accumulates the client side of a run — latencies into an
// obs.Histogram on the shared bucket grid, outcome counters — and keeps
// the latest server-side /metrics snapshot next to them. Safe for
// concurrent observe calls; the pacer fires them from request goroutines.
type recorder struct {
	clock   Clock
	latency *obs.Histogram
	sent    *obs.Counter
	ok      *obs.Counter
	errs    *obs.Counter
	rows    *obs.Counter
	viols   *obs.Counter

	mu         sync.Mutex
	errSamples []string

	scrapeMu     sync.Mutex
	lastSnapshot *obs.Snapshot
	scrapes      int
	scrapeErrs   int
}

// newRecorder builds a recorder on the given clock (nil = the wall clock).
// The client latency histogram uses obs.DefaultLatencyBuckets — the same
// grid mmserve's request histograms use, so client and server quantiles
// are comparable bucket for bucket.
func newRecorder(clock Clock) *recorder {
	if clock == nil {
		clock = wallClock{}
	}
	reg := obs.NewRegistry()
	return &recorder{
		clock:   clock,
		latency: reg.Histogram("loadgen_request_seconds", "Client-observed request latency.", nil),
		sent:    reg.Counter("loadgen_requests_sent_total", "Requests fired."),
		ok:      reg.Counter("loadgen_requests_ok_total", "Requests that completed to their trailer."),
		errs:    reg.Counter("loadgen_requests_error_total", "Requests that failed client-side."),
		rows:    reg.Counter("loadgen_rows_total", "Result rows received."),
		viols:   reg.Counter("loadgen_violations_total", "Contract violations reported in trailers."),
	}
}

// maxErrorSamples bounds the error strings kept for the report.
const maxErrorSamples = 5

// Observe records one completed request.
func (r *recorder) Observe(d time.Duration, res Result, err error) {
	r.sent.Inc()
	r.latency.Observe(d.Seconds())
	if err != nil {
		r.errs.Inc()
		r.mu.Lock()
		if len(r.errSamples) < maxErrorSamples {
			r.errSamples = append(r.errSamples, err.Error())
		}
		r.mu.Unlock()
		return
	}
	r.ok.Inc()
	r.rows.Add(int64(res.Rows))
	r.viols.Add(int64(res.Violations))
}

// Scrape fetches url's /metrics once and retains the snapshot; failures
// are counted but non-fatal (the run keeps the last good snapshot).
func (r *recorder) Scrape(url string) {
	snap, err := finalScrape(url)
	r.scrapeMu.Lock()
	defer r.scrapeMu.Unlock()
	r.scrapes++
	if err != nil {
		r.scrapeErrs++
		return
	}
	r.lastSnapshot = snap
}

// Quantiles is the latency summary of one histogram. The quantile fields
// are pointers so that zero observations encode as absent fields, never
// as a fabricated 0 — the JSON face of the obs NaN contract (NaN itself
// is unrepresentable in JSON and would fail to encode).
type Quantiles struct {
	Count       uint64   `json:"count"`
	MeanSeconds *float64 `json:"mean_seconds,omitempty"`
	P50Seconds  *float64 `json:"p50_seconds,omitempty"`
	P99Seconds  *float64 `json:"p99_seconds,omitempty"`
	P999Seconds *float64 `json:"p999_seconds,omitempty"`
}

// quantiles summarises (count, sum, quantile fn) with the NaN→absent
// mapping applied.
func quantiles(count uint64, sum float64, q func(float64) float64) Quantiles {
	out := Quantiles{Count: count}
	if count == 0 {
		return out
	}
	set := func(dst **float64, v float64) {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			*dst = &v
		}
	}
	set(&out.MeanSeconds, sum/float64(count))
	set(&out.P50Seconds, q(0.5))
	set(&out.P99Seconds, q(0.99))
	set(&out.P999Seconds, q(0.999))
	return out
}

// ServerSide is the scraped half of the report: mmserve's own latency
// histogram and request counters for the sweep endpoint, read from its
// /metrics at the end of the run.
type ServerSide struct {
	Quantiles
	// SweepRequests2xx counts code="200" sweep responses; SweepRequestsTotal
	// sums the endpoint's counter across all codes. The e2e accounting test
	// pins SweepRequestsTotal == client Sent exactly.
	SweepRequests2xx   int64 `json:"sweep_requests_2xx"`
	SweepRequestsTotal int64 `json:"sweep_requests_total"`
	Scrapes            int   `json:"scrapes"`
	ScrapeErrors       int   `json:"scrape_errors,omitempty"`
}

// sweepEndpoint is the mmserve route the load generator drives and reads
// server-side accounting for.
const sweepEndpoint = "/v1/sweep"

// serverSide extracts the sweep endpoint's accounting from the last
// snapshot (nil when no scrape succeeded).
func (r *recorder) serverSide() *ServerSide {
	r.scrapeMu.Lock()
	defer r.scrapeMu.Unlock()
	if r.scrapes == 0 {
		return nil
	}
	s := &ServerSide{Scrapes: r.scrapes, ScrapeErrors: r.scrapeErrs}
	snap := r.lastSnapshot
	if snap == nil {
		return s
	}
	if h, ok := snap.Histogram("mmserve_http_request_seconds", obs.L("endpoint", sweepEndpoint)); ok {
		s.Quantiles = quantiles(h.Count, h.Sum, h.Quantile)
	}
	if f, ok := snap.Families["mmserve_http_requests_total"]; ok {
		for _, series := range f.Series {
			if series.Labels["endpoint"] != sweepEndpoint {
				continue
			}
			s.SweepRequestsTotal += int64(series.Value)
			if series.Labels["code"] == "200" {
				s.SweepRequests2xx += int64(series.Value)
			}
		}
	}
	return s
}

// SLO is the pass/fail contract a run is held against. The zero value of
// MaxErrorRate is strict: with an SLO configured, any client-side error
// fails the run unless a positive rate is allowed.
type SLO struct {
	// MaxP99Seconds bounds the client-observed p99 (0 = unchecked).
	MaxP99Seconds float64 `json:"p99_max_seconds,omitempty"`
	// MaxErrorRate bounds errors/sent.
	MaxErrorRate float64 `json:"error_rate_max"`
}

// SLOResult is the evaluated SLO in the report; Pass drives the
// mmloadgen exit code.
type SLOResult struct {
	SLO
	ErrorRate float64  `json:"error_rate"`
	Pass      bool     `json:"pass"`
	Failures  []string `json:"failures,omitempty"`
}

// evaluate holds the report against the SLO. Zero-observation semantics
// are pinned by test: a latency bound with no successful observations is
// a failure (absence of data must not pass a latency gate), and zero
// requests sent fails outright.
func (s *SLO) evaluate(rep *Report) *SLOResult {
	if s == nil {
		return nil
	}
	res := &SLOResult{SLO: *s, Pass: true}
	fail := func(format string, args ...any) {
		res.Pass = false
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}
	if rep.Sent == 0 {
		fail("no requests were sent")
		return res
	}
	res.ErrorRate = float64(rep.Errors) / float64(rep.Sent)
	if res.ErrorRate > s.MaxErrorRate {
		fail("error rate %.4f exceeds %.4f (%d/%d requests failed)", res.ErrorRate, s.MaxErrorRate, rep.Errors, rep.Sent)
	}
	if s.MaxP99Seconds > 0 {
		switch p99 := rep.Client.P99Seconds; {
		case p99 == nil:
			fail("p99 bound %.3fs set but no latency observations exist", s.MaxP99Seconds)
		case *p99 > s.MaxP99Seconds:
			fail("client p99 %.4fs exceeds %.3fs", *p99, s.MaxP99Seconds)
		}
	}
	return res
}

// HostInfo stamps the report with the environment that produced it, so a
// BENCH_load.json trajectory row is interpretable later.
type HostInfo struct {
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	Cores  int    `json:"cores"`
}

// SpecSummary is the run spec echoed into the report — enough to replay
// the run (profile, mix, seed, concurrency policy, sender backend).
type SpecSummary struct {
	RatePerSecond   float64    `json:"rate_per_second"`
	RampUpSeconds   float64    `json:"ramp_up_seconds"`
	HoldSeconds     float64    `json:"hold_seconds"`
	RampDownSeconds float64    `json:"ramp_down_seconds"`
	PlannedSlots    int        `json:"planned_slots"`
	Seed            int64      `json:"seed"`
	MaxInFlight     int        `json:"max_in_flight"`
	Policy          string     `json:"policy"`
	Sender          string     `json:"sender"`
	Mix             []MixEntry `json:"mix"`
}

// Report is the run's JSON artefact — the BENCH_load.json schema.
type Report struct {
	Spec            SpecSummary `json:"spec"`
	Host            HostInfo    `json:"host"`
	Date            string      `json:"date,omitempty"`
	DurationSeconds float64     `json:"duration_seconds"`
	Sent            int64       `json:"sent"`
	OK              int64       `json:"ok"`
	Errors          int64       `json:"errors"`
	Skipped         int64       `json:"skipped"`
	Rows            int64       `json:"rows"`
	Violations      int64       `json:"violations"`
	// ThroughputRPS is completed-ok requests per second of run duration
	// (0 for a zero-duration or empty run — never NaN or Inf, so the
	// report always encodes).
	ThroughputRPS float64     `json:"throughput_rps"`
	Client        Quantiles   `json:"client"`
	Server        *ServerSide `json:"server,omitempty"`
	SLO           *SLOResult  `json:"slo,omitempty"`
	ErrorSamples  []string    `json:"error_samples,omitempty"`
}

// report assembles the Report from the recorder state and pacer stats.
func (r *recorder) report(spec Spec, mix *TrafficMix, stats paceStats, elapsed time.Duration) *Report {
	rep := &Report{
		Spec: SpecSummary{
			RatePerSecond:   spec.Profile.Rate,
			RampUpSeconds:   spec.Profile.RampUp.Seconds(),
			HoldSeconds:     spec.Profile.Hold.Seconds(),
			RampDownSeconds: spec.Profile.RampDown.Seconds(),
			PlannedSlots:    spec.Profile.Slots(),
			Seed:            spec.Seed,
			MaxInFlight:     spec.MaxInFlight,
			Policy:          spec.Policy.String(),
			Sender:          spec.Sender.Name(),
			Mix:             mix.Entries(),
		},
		Host: HostInfo{
			Go:     goruntime.Version(),
			GOOS:   goruntime.GOOS,
			GOARCH: goruntime.GOARCH,
			Cores:  goruntime.NumCPU(),
		},
		DurationSeconds: elapsed.Seconds(),
		Sent:            r.sent.Value(),
		OK:              r.ok.Value(),
		Errors:          r.errs.Value(),
		Skipped:         int64(stats.Skipped),
		Rows:            r.rows.Value(),
		Violations:      r.viols.Value(),
		Client:          quantiles(r.latency.Count(), r.latency.Sum(), r.latency.Quantile),
		Server:          r.serverSide(),
	}
	// The zero-duration guard: a run that fired nothing (or ran entirely
	// in virtual time) reports 0, not a division artefact.
	if secs := elapsed.Seconds(); secs > 0 {
		rep.ThroughputRPS = float64(rep.OK) / secs
	}
	r.mu.Lock()
	rep.ErrorSamples = append([]string(nil), r.errSamples...)
	r.mu.Unlock()
	rep.SLO = spec.SLO.evaluate(rep)
	return rep
}
