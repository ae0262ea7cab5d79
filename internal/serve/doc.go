// Package serve is the HTTP layer of mmserve: matching-as-a-service over
// the same sweep, contract and bounds-check machinery the CLIs drive.
//
// A Server owns four injected dependencies — a submitted-graph store, a
// content-addressed instance cache, a bounded sweep-slot pool, and a
// logger — and wires them into handlers:
//
//	POST /v1/graphs        submit a raw edge list; n and k capped before
//	                       any allocation, edges validated through
//	                       graph.CSRBuilder, stored under its
//	                       gen.EdgeListID content address
//	GET  /v1/graphs/{id}   shape of a stored graph
//	POST /v1/sweep         run a sweep over grids and/or stored graphs,
//	                       streaming one NDJSON row per cell
//	GET  /v1/scenarios     the generated-scenario registry
//	GET  /v1/algos         the algorithm registry
//	GET  /healthz          liveness, drain state, cache counters
//	GET  /metrics          the obs registry, Prometheus text format
//
// Both POST bodies decode strictly: an unknown field is a 400 naming it.
// A sweep that runs greedy (named, or by default) on a stored graph whose
// highest colour is above maxGreedySweepColor is a 422 naming the graph,
// its highest colour and the limit: greedy runs one round per colour, and
// a sweep row still carries one per_round entry per round.
//
// # Concurrency
//
// Graph submission and lookups are lock-cheap and unbounded. Sweeps are
// expensive, so the server runs at most Options.MaxSweeps of them at once:
// a sweep request first claims a slot, and when none is free the server
// answers 503 immediately (with Retry-After) rather than queueing — the
// client owns its retry policy, the server's memory stays bounded. Within
// a slot the sweep fans out across Config.CellWorkers exactly as the CLI
// does.
//
// Instances are resolved through a provider chain — submitted-graph store,
// then scenario registry — memoised behind one sweep.CachingProvider
// shared by all requests. Repeated requests on hot instances skip
// construction entirely; concurrent cold requests for the same instance
// build it once (single-flight) and share the read-only CSR blob.
//
// # Determinism
//
// Every response is reproducible. A request that names a seed uses it; a
// request that leaves the seed zero gets one derived by gen.SubSeed from
// the request's instance-determining content (grids, graphs, algos, reps),
// so identical requests derive identical seeds, run identical cells, and
// return byte-identical NDJSON bodies — which is also what makes the
// instance cache effective across clients. The chosen seed is
// echoed in the Sweep-Seed response header.
//
// # Shutdown drain
//
// BeginDrain flips the server into drain mode: /healthz reports
// "draining", and new sweep requests are refused with 503. In-flight
// sweeps are NOT cancelled — every cell already running streams its row
// and the response completes normally. The intended shutdown sequence
// (cmd/mmserve implements it on SIGTERM/SIGINT) is BeginDrain, then
// http.Server.Shutdown, which returns once the drained responses have
// finished; because rows are flushed per cell, even a drain timeout leaves
// whole rows, never torn ones.
//
// # Observability
//
// Every handler is wrapped with request instrumentation over an internal
// obs.Registry: a per-endpoint latency histogram
// (mmserve_http_request_seconds{endpoint}) observed until the last byte of
// the response — for streaming sweeps that is the trailer — and a
// per-(endpoint, code) request counter. The sweep path additionally
// maintains slot gauges (mmserve_sweep_slots_in_use / _capacity), refusal
// counters by reason (mmserve_sweeps_refused_total{reason}), and the
// sweep driver's own telemetry (sweep_* families) registered in the same
// registry. Cache and store sizes are sampled lazily via GaugeFunc, so
// scraping never takes the handlers' locks out of order.
//
// GET /metrics encodes the registry in the Prometheus text exposition
// format. /healthz reads the SAME registry handles and renders them as the
// pre-existing JSON shape — one source, two formats, so the two endpoints
// cannot disagree (pinned by TestHealthzAgreesWithMetrics). Options.Trace
// adds JSONL spans per request and per sweep cell (request → sweep →
// resolve → run → emit); cmd/mmserve exposes it as -trace and offers an
// optional pprof listener via -pprof-addr.
package serve
