package serve

import (
	"encoding/json"
	"log"
	"net/http"
	"os"
	goruntime "runtime"
	"sync/atomic"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// Options configures a Server. The zero value serves with defaults:
// GOMAXPROCS concurrent sweeps, DefaultCacheEntries cached instances,
// DefaultMaxGraphs stored graphs, logging to stderr.
type Options struct {
	// MaxSweeps bounds concurrent sweep requests (0 = GOMAXPROCS). When
	// every slot is busy new sweeps get 503, not a queue.
	MaxSweeps int
	// CacheEntries sizes the shared instance cache
	// (0 = sweep.DefaultCacheEntries).
	CacheEntries int
	// MaxGraphs caps the submitted-graph store (0 = DefaultMaxGraphs).
	MaxGraphs int
	// Log receives request and drain logging (nil = stderr).
	Log *log.Logger
	// WrapProvider, when non-nil, wraps the assembled provider chain
	// (store → registry, memoised by the cache) before sweeps use it — a
	// test seam for gating or observing instance resolution.
	WrapProvider func(sweep.InstanceProvider) sweep.InstanceProvider
	// Trace, when non-nil, receives JSONL span events for every request
	// and every sweep cell (request → sweep → resolve → run → emit).
	Trace *obs.Tracer
	// noObs disables the metrics registry entirely — only reachable from
	// inside the package, for the instrumentation-overhead benchmark.
	noObs bool
}

// Server is the mmserve HTTP service: handlers over an injected graph
// store, instance cache, bounded sweep-slot pool and logger. Create with
// NewServer, mount Handler, stop with BeginDrain + http.Server.Shutdown
// (see the package comment for the drain contract).
type Server struct {
	store    *GraphStore
	cache    *sweep.CachingProvider
	provider sweep.InstanceProvider
	slots    chan struct{}
	log      *log.Logger
	mux      *http.ServeMux

	// metrics is the obs registry behind GET /metrics and /healthz; every
	// handler is wrapped by its request instrumentation. sweepMetrics is
	// the sweep-driver telemetry registered in the same registry and
	// shared by all sweep requests. Both are nil-safe (the obs-off
	// benchmark sets metrics to nil after construction).
	metrics      *serverMetrics
	sweepMetrics *sweep.Metrics
	tracer       *obs.Tracer

	draining atomic.Bool
	active   atomic.Int64
}

// NewServer assembles a Server from opts.
func NewServer(opts Options) *Server {
	if opts.MaxSweeps <= 0 {
		opts.MaxSweeps = goruntime.GOMAXPROCS(0)
	}
	if opts.Log == nil {
		opts.Log = log.New(os.Stderr, "mmserve: ", log.LstdFlags)
	}
	s := &Server{
		store: NewGraphStore(opts.MaxGraphs),
		slots: make(chan struct{}, opts.MaxSweeps),
		log:   opts.Log,
	}
	s.cache = sweep.NewCachingProvider(
		sweep.Providers(s.store, sweep.RegistryProvider{}), opts.CacheEntries)
	s.provider = s.cache
	if opts.WrapProvider != nil {
		s.provider = opts.WrapProvider(s.provider)
	}
	s.tracer = opts.Trace
	if !opts.noObs {
		s.metrics = newServerMetrics(s, opts.Trace)
		s.metrics.setSlotCapacity(opts.MaxSweeps)
		s.sweepMetrics = sweep.NewMetrics(s.metrics.reg)
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/graphs", s.metrics.instrument("/v1/graphs", s.handleGraphSubmit))
	s.mux.HandleFunc("GET /v1/graphs/{id}", s.metrics.instrument("/v1/graphs/{id}", s.handleGraphGet))
	s.mux.HandleFunc("POST /v1/sweep", s.metrics.instrument("/v1/sweep", s.handleSweep))
	s.mux.HandleFunc("GET /v1/scenarios", s.metrics.instrument("/v1/scenarios", s.handleScenarios))
	s.mux.HandleFunc("GET /v1/algos", s.metrics.instrument("/v1/algos", s.handleAlgos))
	s.mux.HandleFunc("GET /healthz", s.metrics.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.metrics.instrument("/metrics", s.handleMetrics))
	return s
}

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain refuses new sweep requests from now on while letting
// in-flight ones stream to completion. It is idempotent and cannot be
// undone — drain precedes process exit.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// ActiveSweeps returns the number of sweep requests currently streaming.
func (s *Server) ActiveSweeps() int { return int(s.active.Load()) }

// CacheStats snapshots the shared instance cache's counters.
func (s *Server) CacheStats() sweep.CacheStats { return s.cache.Stats() }

// Health is the /healthz response body.
type Health struct {
	// Status is "ok" or "draining".
	Status       string           `json:"status"`
	ActiveSweeps int              `json:"active_sweeps"`
	GraphsStored int              `json:"graphs_stored"`
	Cache        sweep.CacheStats `json:"cache"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// /metrics registers Funcs over these same three sources, so the two
	// endpoints cannot disagree.
	h := Health{
		Status:       "ok",
		ActiveSweeps: s.ActiveSweeps(),
		GraphsStored: s.store.Len(),
		Cache:        s.cache.Stats(),
	}
	if s.Draining() {
		h.Status = "draining"
	}
	writeJSON(w, http.StatusOK, h)
}

// ScenarioInfo is one /v1/scenarios entry.
type ScenarioInfo struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
	// Defaults is the family's default parameter set in spec syntax.
	Defaults string `json:"defaults"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	var out []ScenarioInfo
	for _, sc := range gen.All() {
		out = append(out, ScenarioInfo{Name: sc.Name, Doc: sc.Doc, Defaults: sc.Params.String()})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleAlgos(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, sweep.AlgoNames())
}

// writeJSON emits one JSON body with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError emits the uniform error body every non-streaming failure
// uses.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
