package serve

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// serverMetrics holds the server's registered metric handles. Every
// update goes through these handles and every read — GET /metrics AND
// /healthz — reads them back, so the two endpoints cannot disagree: they
// are two encodings of one registry. A nil *serverMetrics turns all
// instrumentation into no-ops (the obs-off benchmark path).
type serverMetrics struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	// Request latency histograms are per endpoint and pre-registered (the
	// route table is static); request counters are per (endpoint, code)
	// and created on first response with that code.
	latency map[string]*obs.Histogram

	slotsInUse    *obs.Gauge
	slotsCapacity *obs.Gauge
	refused       func(reason string) *obs.Counter

	activeSweeps *obs.Func
	graphsStored *obs.Func
	cacheHits    *obs.Func
	cacheMisses  *obs.Func
	cacheEntries *obs.Func
}

// newServerMetrics registers the serve metric families against s's
// injected dependencies. The names are stable API — the CI metrics-smoke
// and the README table grep for them.
func newServerMetrics(s *Server, tracer *obs.Tracer) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{
		reg:           r,
		tracer:        tracer,
		latency:       map[string]*obs.Histogram{},
		slotsInUse:    r.Gauge("mmserve_sweep_slots_in_use", "Sweep slots currently claimed by streaming requests."),
		slotsCapacity: r.Gauge("mmserve_sweep_slots_capacity", "Total sweep slots (-max-sweeps)."),
		refused: func(reason string) *obs.Counter {
			return r.Counter("mmserve_sweeps_refused_total",
				"Sweep requests refused before streaming, by reason (saturated, draining: 503; palette: 422).",
				obs.L("reason", reason))
		},
		activeSweeps: r.GaugeFunc("mmserve_active_sweeps", "Sweep responses currently streaming.",
			func() float64 { return float64(s.active.Load()) }),
		graphsStored: r.GaugeFunc("mmserve_graphs_stored", "Client-submitted graphs held in the store.",
			func() float64 { return float64(s.store.Len()) }),
		cacheHits: r.CounterFunc("mmserve_cache_hits_total", "Instance-cache hits (including joined in-flight builds).",
			func() float64 { return float64(s.cache.Stats().Hits) }),
		cacheMisses: r.CounterFunc("mmserve_cache_misses_total", "Instance-cache misses (builds).",
			func() float64 { return float64(s.cache.Stats().Misses) }),
		cacheEntries: r.GaugeFunc("mmserve_cache_entries", "Built instances currently cached.",
			func() float64 { return float64(s.cache.Stats().Entries) }),
	}
	return m
}

// instrument wraps a handler with per-endpoint request accounting: a
// latency histogram observation and a (endpoint, code) counter per
// request, plus a "request" trace span. The endpoint label is the route
// pattern, not the raw URL, so label cardinality is the size of the route
// table.
func (m *serverMetrics) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	if m == nil {
		return h
	}
	hist := m.reg.Histogram("mmserve_http_request_seconds",
		"Request latency by endpoint (streaming responses count until the last byte).",
		nil, obs.L("endpoint", endpoint))
	m.latency[endpoint] = hist
	// The per-(endpoint, code) counters are memoised here so the steady
	// state is a map read + atomic add, not a registry lookup (which
	// builds a label signature per call).
	var mu sync.Mutex
	codes := map[int]*obs.Counter{}
	counter := func(code int) *obs.Counter {
		mu.Lock()
		defer mu.Unlock()
		c, ok := codes[code]
		if !ok {
			c = m.reg.Counter("mmserve_http_requests_total", "Requests by endpoint and status code.",
				obs.L("endpoint", endpoint), obs.L("code", strconv.Itoa(code)))
			codes[code] = c
		}
		return c
	}
	return func(w http.ResponseWriter, r *http.Request) {
		var sp obs.Span
		if m.tracer != nil {
			sp = m.tracer.Start("request", "endpoint", endpoint)
		}
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		hist.ObserveSince(t0)
		counter(sw.code).Inc()
		if m.tracer != nil {
			sp.End("code", strconv.Itoa(sw.code))
		}
	}
}

// Nil-guarded update hooks for the sweep-slot pool.

func (m *serverMetrics) setSlotCapacity(n int) {
	if m == nil {
		return
	}
	m.slotsCapacity.Set(float64(n))
}

func (m *serverMetrics) slotClaimed()  { m.slotDelta(1) }
func (m *serverMetrics) slotReleased() { m.slotDelta(-1) }

func (m *serverMetrics) slotDelta(d float64) {
	if m == nil {
		return
	}
	m.slotsInUse.Add(d)
}

func (m *serverMetrics) refuse(reason string) {
	if m == nil {
		return
	}
	m.refused(reason).Inc()
}

// handleMetrics serves the registry in the Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.metrics == nil {
		return
	}
	s.metrics.reg.WritePrometheus(w)
}

// statusWriter records the response code for the request counter. It
// passes http.ResponseController operations (per-row flushes of streaming
// sweeps) through Unwrap.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

// WriteHeader implements http.ResponseWriter.
func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wrote {
		sw.code = code
		sw.wrote = true
	}
	sw.ResponseWriter.WriteHeader(code)
}

// Write implements http.ResponseWriter.
func (sw *statusWriter) Write(p []byte) (int, error) {
	sw.wrote = true
	return sw.ResponseWriter.Write(p)
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }
