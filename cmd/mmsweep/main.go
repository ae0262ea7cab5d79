// Command mmsweep runs algorithms across whole scenario grids and streams
// machine-readable results with optionally machine-checked communication
// bounds.
//
// A grid spec extends the mmrun scenario DSL with parameter ranges
// (lo..hi doubles, lo..hi..x4 multiplies, lo..hi..+256 adds, a|b|c lists):
//
//	mmsweep -grid 'matching-union:n=4096..65536,k=16..1024' -algo reduced -check-bounds -out sweep.jsonl
//	mmsweep -grid all -algo greedy,reduced -seeds 3 -check-bounds
//	mmsweep -grid 'regular:n=65536..1048576' -out big.jsonl
//	mmsweep -grid 'regular:n=65536..1048576' -out big.jsonl -resume
//	mmsweep -grid list
//
// Each cell — one (family, parameters, algorithm, repetition) — derives a
// deterministic seed from -seed, runs on the slab engine, and becomes one
// JSON line: instance shape, rounds, messages, matching size, the
// per-round traffic histogram, and (with -check-bounds) any violations of
// the paper's communication contracts.
//
// The run is a streaming pipeline, not a batch: rows are written and
// flushed in deterministic cell order AS CELLS FINISH, so memory stays
// bounded by the reorder window however many cells the grid expands to,
// and a run that dies mid-sweep (crash, OOM-kill, ctrl-C) leaves every
// completed row on disk. -resume picks such a run back up: the existing
// -out file is scanned, complete rows are kept (a torn final line is
// truncated away), the finished cells are skipped, and the missing rows
// are appended — the final file is byte-identical to an uninterrupted run.
//
// Sharded multi-process sweeps split the grid's canonical cell order into
// N contiguous ranges:
//
//	mmsweep -grid all -algo greedy -supervise 4 -out sweep.jsonl
//	mmsweep -grid all -algo greedy -shard 2/4 -out sweep.jsonl
//	mmsweep -grid all -algo greedy -merge 4 -out sweep.jsonl
//
// -supervise N fork/execs N workers of this same binary, each streaming
// its range into <out>.shard<i>of<N>; a lease per shard (renewed by pipe
// heartbeats and shard-file growth) detects crashed and hung workers,
// which are killed and restarted with exponential backoff — restarts
// resume the shard file, so a SIGKILL costs exactly the torn row it
// interrupted. On success the shards are merged into -out, verified
// byte-identical to an uninterrupted single-process run. -shard i/N runs
// one worker by hand; -merge N re-runs just the merge. Chaos builds
// (-tags chaos) add -chaos kill=P,hang=P for seeded fault injection.
//
// An aggregate per-(family, algorithm) table goes to stdout (stderr when
// the JSONL itself goes to stdout). Exit codes are a contract: 0 success,
// 1 sweep failure or (with -check-bounds) contract violations — the
// partial output stays intact and -resume continues from it — and 2 for
// configuration mismatches (a wrong -seed against an existing file, or a
// file written by a retired instance builder; the message names the field
// and file offset), which retrying cannot fix.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/sweep/shard"
)

func main() {
	os.Exit(run())
}

func run() int {
	var grids cli.StringList
	flag.Var(&grids, "grid", "grid spec name[:param=values,…] with ranges (repeatable); \"all\" sweeps every family, \"list\" prints the registry")
	algos := flag.String("algo", "greedy", "comma-separated algorithms: greedy, reduced, proposal, bipartite, or \"all\"")
	seeds := flag.Int("seeds", 1, "seeded repetitions per cell")
	seed := flag.Int64("seed", 1, "base seed (per-cell seeds derive from it deterministically)")
	checkBounds := flag.Bool("check-bounds", false, "verify the paper's communication contracts per cell; violations fail the run")
	out := flag.String("out", "-", "JSONL output path (\"-\" = stdout); rows stream and flush as cells finish")
	resume := flag.Bool("resume", false, "continue an interrupted sweep: keep -out's complete rows, skip their cells, append the rest (requires -out file)")
	cellWorkers := flag.Int("cell-workers", 0, "concurrent cells (0 = GOMAXPROCS)")
	engineWorkers := flag.Int("engine-workers", 0, "workers per execution (≤1 = sequential slab engine)")
	window := flag.Int("reorder-window", 0, "max rows buffered for in-order emission (0 = 2×cell-workers)")
	shardSpec := flag.String("shard", "", "run one worker of an i/N-sharded sweep into <out>.shard<i>of<N> (resumes automatically)")
	attempt := flag.Int("attempt", 0, "restart count of this shard attempt (set by -supervise; feeds fault-injection derivation)")
	livenessFD := flag.Int("liveness-fd", -1, "inherited pipe fd to heartbeat one byte per row on (set by -supervise)")
	supervise := flag.Int("supervise", 0, "fork/exec N supervised shard workers of this binary, restart crashed/hung ones, then merge into -out")
	mergeN := flag.Int("merge", 0, "merge N existing shard files of this sweep into -out, verifying canonical order")
	leaseTimeout := flag.Duration("lease-timeout", shard.DefaultLeaseTimeout, "kill a supervised worker making no visible progress for this long")
	maxAttempts := flag.Int("max-attempts", shard.DefaultMaxAttempts, "abandon a shard after this many worker launches")
	progress := flag.Duration("progress", 0, "print a cells-done/rows-per-second/ETA line to stderr at this interval (0 = off)")
	sidecarOut := flag.String("perround-sidecar", "", "divert per_round histograms to this sidecar JSONL (delta+varint packed, keyed by cell id); -out rows then omit per_round")
	traceFile := flag.String("trace", "", "write one JSON span line per resolve/run/emit step to this file")
	metricsOut := flag.String("metrics-out", "", "on exit, write the run's metrics (Prometheus text format) to this file")
	flag.Parse()

	cfg := sweep.Config{
		Reps:          *seeds,
		Seed:          *seed,
		CellWorkers:   *cellWorkers,
		EngineWorkers: *engineWorkers,
		ReorderWindow: *window,
		CheckBounds:   *checkBounds,
	}
	for _, spec := range grids {
		switch spec {
		case "list":
			cli.PrintScenarios(os.Stdout)
			return cli.ExitOK
		case "all":
			cfg.Grids = append(cfg.Grids, sweep.DefaultGrids()...)
		default:
			cfg.Grids = append(cfg.Grids, spec)
		}
	}
	if len(cfg.Grids) == 0 {
		fmt.Fprintln(os.Stderr, "mmsweep: no -grid given (try -grid all or -grid list)")
		return cli.ExitMismatch
	}
	if *algos == "all" {
		cfg.Algos = sweep.AlgoNames()
	} else {
		cfg.Algos = cli.SplitList(*algos)
	}

	cells, err := sweep.Expand(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmsweep: %v\n", err)
		return cli.ExitMismatch
	}

	// Observability: one registry backs -progress, -metrics-out and (in
	// supervise mode) the shard fault history; -trace is an independent
	// span stream. All of it is optional — an uninstrumented run carries
	// nil handles and pays nothing.
	var reg *obs.Registry
	if *progress > 0 || *metricsOut != "" {
		reg = obs.NewRegistry()
		cfg.Metrics = sweep.NewMetrics(reg)
	}
	if *traceFile != "" {
		tf, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmsweep: %v\n", err)
			return cli.ExitFailure
		}
		defer tf.Close()
		cfg.Tracer = obs.NewTracer(tf)
	}
	// finish dumps -metrics-out (whatever the exit path) and maps a dump
	// failure on an otherwise clean run to exit 1.
	finish := func(code int) int {
		if *metricsOut == "" || reg == nil {
			return code
		}
		if err := writeMetricsOut(*metricsOut, reg); err != nil {
			fmt.Fprintf(os.Stderr, "mmsweep: %v\n", err)
			if code == cli.ExitOK {
				return cli.ExitFailure
			}
		}
		return code
	}

	// Sharded modes: mutually exclusive, and all need a real -out file to
	// derive shard paths from.
	modes := 0
	for _, on := range []bool{*shardSpec != "", *supervise > 0, *mergeN > 0} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "mmsweep: -shard, -supervise and -merge are mutually exclusive")
		return cli.ExitMismatch
	}
	if modes == 1 && *out == "-" {
		fmt.Fprintln(os.Stderr, "mmsweep: sharded modes need -out pointing at a file (shard paths derive from it)")
		return cli.ExitMismatch
	}
	switch {
	case *shardSpec != "":
		if *progress > 0 && cfg.Metrics != nil {
			defer cfg.Metrics.StartProgress(os.Stderr, *progress)()
		}
		return finish(runShard(cfg, *out, *shardSpec, *attempt, *livenessFD))
	case *supervise > 0:
		// The supervisor itself streams nothing; its registry records the
		// shard fault history (restarts, lease expiries, backoff).
		return finish(runSupervise(cfg, *out, *supervise, *leaseTimeout, *maxAttempts, reg))
	case *mergeN > 0:
		return finish(runMerge(cfg, *out, *mergeN))
	}

	// Destination: stdout, or a file created/truncated UP FRONT so even a
	// zero-row failure leaves a well-defined (empty) artefact. With
	// -resume, the existing file's complete rows survive and the file is
	// truncated only past its last complete row.
	jsonlSink := sweep.NewJSONLSink(os.Stdout)
	tableW := io.Writer(os.Stderr) // keep the table off the JSONL stream
	var flushClose func() error
	if *out == "-" {
		if *resume {
			fmt.Fprintln(os.Stderr, "mmsweep: -resume needs -out pointing at a file")
			return cli.ExitMismatch
		}
	} else {
		f, err := openOut(*out, *resume, &cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmsweep: %v\n", err)
			return cli.Classify(err)
		}
		// Buffered, fsync-on-close: JSONLSink flushes the buffer after
		// every row, and Close syncs the rows to stable storage before the
		// sweep reports complete.
		o := cli.WrapOut(f)
		jsonlSink = sweep.NewJSONLSink(o.Writer()).WithSync(o)
		tableW = os.Stdout
		flushClose = o.Close
	}
	if n := len(cfg.Completed); n > 0 {
		fmt.Fprintf(os.Stderr, "mmsweep: %d cells (%d already complete, resuming)\n", cells, n)
	} else {
		fmt.Fprintf(os.Stderr, "mmsweep: %d cells\n", cells)
	}

	stopProgress := func() {}
	if *progress > 0 && cfg.Metrics != nil {
		stopProgress = cfg.Metrics.StartProgress(os.Stderr, *progress)
	}

	// The sidecar wraps only the row writer: aggregates and violation
	// collection see full rows either way (they never read per_round).
	rowSink := sweep.Sink(jsonlSink)
	var sidecarClose func() error
	if *sidecarOut != "" {
		f, err := os.Create(*sidecarOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmsweep: %v\n", err)
			return finish(cli.Classify(err))
		}
		o := cli.WrapOut(f)
		rowSink = sweep.NewSidecarSink(jsonlSink, o.Writer())
		sidecarClose = o.Close
	}

	var agg sweep.AggregateSink
	var vio sweep.ViolationsSink
	stats, err := sweep.Stream(context.Background(), cfg, sweep.MultiSink(rowSink, &agg, &vio))
	stopProgress()
	if flushClose != nil {
		if cerr := flushClose(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if sidecarClose != nil {
		if cerr := sidecarClose(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		// Fail-fast: every row before the failing cell is already on disk
		// and flushed — rerun with -resume to continue from it. A
		// configuration mismatch (exit 2, field and offset in the message)
		// is different: resuming cannot fix it.
		fmt.Fprintf(os.Stderr, "mmsweep: %v\n", err)
		if code := cli.Classify(err); code == cli.ExitMismatch {
			return finish(code)
		}
		fmt.Fprintf(os.Stderr, "mmsweep: %d rows written before the failure; -resume continues from them\n", stats.Emitted)
		return finish(cli.ExitFailure)
	}

	if err := agg.RenderTable(tableW); err != nil {
		fmt.Fprintf(os.Stderr, "mmsweep: %v\n", err)
		return finish(cli.ExitFailure)
	}
	if stats.SkippedResume > 0 {
		fmt.Fprintf(tableW, "resumed: table covers the %d newly-run cells; %d rows were already complete\n",
			stats.Emitted, stats.SkippedResume)
	}

	if *checkBounds {
		if len(vio.Lines) > 0 {
			fmt.Fprintf(os.Stderr, "mmsweep: %d communication-bound violations:\n", len(vio.Lines))
			for _, v := range vio.Lines {
				fmt.Fprintf(os.Stderr, "  %s\n", v)
			}
			return finish(cli.ExitFailure)
		}
		fmt.Fprintln(tableW, "bounds: all communication contracts hold")
	}
	return finish(cli.ExitOK)
}

// writeMetricsOut dumps the registry to path in the Prometheus text
// exposition format — the offline analogue of mmserve's GET /metrics.
func writeMetricsOut(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// openOut prepares the JSONL output file. Fresh runs create or truncate;
// resume runs scan the existing file, record its completed cells in cfg,
// cut a torn final line, and position for append.
func openOut(path string, resume bool, cfg *sweep.Config) (*os.File, error) {
	if !resume {
		return os.Create(path)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	state, err := sweep.ReadCompleted(f)
	if err != nil {
		// A *sweep.MismatchError (a retired builder's rows) maps to exit
		// code 2.
		f.Close()
		return nil, err
	}
	if err := f.Truncate(state.ValidSize); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(state.ValidSize, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	// Completed cells are skipped; their recorded seeds and offsets travel
	// along so Stream refuses a -seed mismatch (exit 2, offending offset in
	// the message) instead of appending rows from a different universe.
	state.Configure(cfg)
	return f, nil
}
