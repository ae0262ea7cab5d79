// Command mmserve is the matching-as-a-service daemon: the sweep,
// contract and bounds-check machinery of mmsweep behind an HTTP/JSON API,
// serving both generated scenario grids and client-submitted graphs.
//
//	mmserve -addr 127.0.0.1:8091
//	curl -s localhost:8091/v1/scenarios
//	curl -s -X POST localhost:8091/v1/graphs -d '{"n":4,"k":2,"edges":[[0,1,1],[1,2,2],[2,3,1],[3,0,2]]}'
//	curl -sN -X POST localhost:8091/v1/sweep -d '{"grids":["regular:n=256..1024"],"algos":["greedy"],"check_bounds":true}'
//
// Sweep responses stream NDJSON — one row per cell as it finishes, a
// {"done":true,…} trailer on success. Submitted graphs are validated
// through the CSR builder and stored under a content address; built
// instances are cached across requests, so repeated sweeps on hot graphs
// skip construction (GET /healthz shows the hit counters). Responses are
// reproducible: a request without a seed gets one derived from its own
// content, so identical requests return byte-identical bodies.
//
// SIGTERM/SIGINT drain gracefully: new sweeps are refused with 503,
// in-flight sweeps stream their remaining rows, and the process exits 0
// once every response has completed (exit 1 if -drain-timeout expires
// first — whole rows only, never torn ones, either way). See
// internal/serve for the API and concurrency contract.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only via -pprof-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// Connection bounds of the API listener. A client gets readHeaderTimeout
// to send its request headers and a keep-alive connection is closed after
// idleTimeout without a request, so slow-header and idle connections cannot
// hold server resources indefinitely. There is deliberately no read or
// write timeout: a sweep body streams rows for as long as the sweep runs,
// and the slot pool already bounds how many sweeps run at once.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// newHTTPServer wraps the API handler in an http.Server with the
// connection bounds above.
func newHTTPServer(h http.Handler, logger *log.Logger) *http.Server {
	return &http.Server{
		Handler:           h,
		ErrorLog:          logger,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// run is mmserve with its arguments and output streams passed in; it
// returns the process exit code (see internal/cli). The daemon writes only
// its log, to stderr; stdout keeps the signature every command shares.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mmserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8091", "listen address")
	maxSweeps := fs.Int("max-sweeps", 0, "concurrent sweep requests; extra requests get 503 (0 = GOMAXPROCS)")
	cacheEntries := fs.Int("cache-entries", sweep.DefaultCacheEntries, "built instances kept in the shared LRU cache")
	maxGraphs := fs.Int("max-graphs", serve.DefaultMaxGraphs, "submitted graphs held in the store (hard cap, not an eviction)")
	drainTimeout := fs.Duration("drain-timeout", 2*time.Minute, "on SIGTERM, wait this long for in-flight sweeps to finish streaming")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this separate address (e.g. 127.0.0.1:6060; empty = off)")
	traceFile := fs.String("trace", "", "write one JSON span line per request and sweep-cell step to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return cli.ExitOK
		}
		return cli.ExitMismatch
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "mmserve: unexpected arguments %q\n", fs.Args())
		return cli.ExitMismatch
	}

	logger := log.New(stderr, "mmserve: ", log.LstdFlags)
	var tracer *obs.Tracer
	if *traceFile != "" {
		tf, err := os.Create(*traceFile)
		if err != nil {
			logger.Printf("%v", err)
			return cli.ExitFailure
		}
		defer tf.Close()
		tracer = obs.NewTracer(tf)
	}
	srv := serve.NewServer(serve.Options{
		MaxSweeps:    *maxSweeps,
		CacheEntries: *cacheEntries,
		MaxGraphs:    *maxGraphs,
		Log:          logger,
		Trace:        tracer,
	})

	if *pprofAddr != "" {
		// The profiler gets its own listener, never the API port: the pprof
		// import registers on http.DefaultServeMux, which the API handler
		// does not serve, so profiling stays opt-in and separately bindable.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			logger.Printf("pprof: %v", err)
			return cli.ExitFailure
		}
		logger.Printf("pprof on http://%s/debug/pprof/", pln.Addr())
		go func() {
			if err := http.Serve(pln, nil); err != nil {
				logger.Printf("pprof: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Printf("%v", err)
		return cli.ExitFailure
	}
	// The ready line carries the resolved address (":0" binds an ephemeral
	// port); the smoke tests wait for it before sending requests.
	logger.Printf("listening on http://%s", ln.Addr())

	hs := newHTTPServer(srv.Handler(), logger)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-serveErr:
		// Serve only returns on listener failure here; Shutdown's
		// ErrServerClosed is consumed on the signal path.
		logger.Printf("serve: %v", err)
		return cli.ExitFailure
	case sig := <-sigc:
		// Drain: refuse new sweeps, let in-flight responses finish.
		// Shutdown returns once every active request has completed, so a
		// nil error here means no sweep was cut off mid-stream.
		logger.Printf("%v: draining (in-flight sweeps finish, new work refused)", sig)
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			logger.Printf("drain: %v", err)
			return cli.ExitFailure
		}
		if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) && err != nil {
			logger.Printf("serve: %v", err)
			return cli.ExitFailure
		}
		logger.Printf("drained cleanly")
		return cli.ExitOK
	}
}
