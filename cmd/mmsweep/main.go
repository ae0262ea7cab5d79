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
// -out file's complete rows must be a verified prefix of this sweep (the
// first cells of its plan, same IDs and seeds, same order); they are kept
// (a torn final line is truncated away), their cells are skipped, and the
// missing rows are appended — the final file is byte-identical to an
// uninterrupted run. A file that is not such a prefix is refused and left
// untouched.
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
// configuration mismatches and usage errors, which retrying cannot fix:
// an existing or shard file that is not a prefix of this sweep (a row of
// another cell, a wrong -seed, a retired instance builder's row; the
// message names the field and file offset), or -perround-sidecar combined
// with -resume or a sharded mode.
package main

import (
	"context"
	"errors"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is mmsweep with its arguments and output streams passed in; it
// returns the process exit code (see internal/cli).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mmsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var grids cli.StringList
	fs.Var(&grids, "grid", "grid spec name[:param=values,…] with ranges (repeatable); \"all\" sweeps every family, \"list\" prints the registry")
	algos := fs.String("algo", "greedy", "comma-separated algorithms: greedy, reduced, proposal, bipartite, or \"all\"")
	seeds := fs.Int("seeds", 1, "seeded repetitions per cell")
	seed := fs.Int64("seed", 1, "base seed (per-cell seeds derive from it deterministically)")
	checkBounds := fs.Bool("check-bounds", false, "verify the paper's communication contracts per cell; violations fail the run")
	out := fs.String("out", "-", "JSONL output path (\"-\" = stdout); rows stream and flush as cells finish")
	resume := fs.Bool("resume", false, "continue an interrupted sweep: verify -out's complete rows are a prefix of this sweep, skip their cells, append the rest (requires -out file)")
	cellWorkers := fs.Int("cell-workers", 0, "concurrent cells (0 = GOMAXPROCS)")
	engineWorkers := fs.Int("engine-workers", 0, "workers per execution (≤1 = sequential slab engine)")
	window := fs.Int("reorder-window", 0, "max rows buffered for in-order emission (0 = 2×cell-workers)")
	shardSpec := fs.String("shard", "", "run one worker of an i/N-sharded sweep into <out>.shard<i>of<N> (resumes automatically)")
	attempt := fs.Int("attempt", 0, "restart count of this shard attempt (set by -supervise; feeds fault-injection derivation)")
	livenessFD := fs.Int("liveness-fd", -1, "inherited pipe fd to heartbeat one byte per row on (set by -supervise)")
	supervise := fs.Int("supervise", 0, "fork/exec N supervised shard workers of this binary, restart crashed/hung ones, then merge into -out")
	mergeN := fs.Int("merge", 0, "merge N existing shard files of this sweep into -out, verifying canonical order")
	leaseTimeout := fs.Duration("lease-timeout", shard.DefaultLeaseTimeout, "kill a supervised worker making no visible progress for this long")
	maxAttempts := fs.Int("max-attempts", shard.DefaultMaxAttempts, "abandon a shard after this many worker launches")
	progress := fs.Duration("progress", 0, "print a cells-done/rows-per-second/ETA line to stderr at this interval (0 = off)")
	sidecarOut := fs.String("perround-sidecar", "", "divert per_round histograms to this sidecar JSONL (delta+varint packed, keyed by cell id); -out rows then omit per_round (not with -resume or the sharded modes)")
	traceFile := fs.String("trace", "", "write one JSON span line per resolve/run/emit step to this file")
	metricsOut := fs.String("metrics-out", "", "on exit, write the run's metrics (Prometheus text format) to this file")
	chaos := registerChaos(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return cli.ExitOK
		}
		return cli.ExitMismatch
	}

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
			cli.PrintScenarios(stdout)
			return cli.ExitOK
		case "all":
			cfg.Grids = append(cfg.Grids, sweep.DefaultGrids()...)
		default:
			cfg.Grids = append(cfg.Grids, spec)
		}
	}
	if len(cfg.Grids) == 0 {
		fmt.Fprintln(stderr, "mmsweep: no -grid given (try -grid all or -grid list)")
		return cli.ExitMismatch
	}
	if *algos == "all" {
		cfg.Algos = sweep.AlgoNames()
	} else {
		cfg.Algos = cli.SplitList(*algos)
	}

	cells, err := sweep.Expand(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "mmsweep: %v\n", err)
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
			fmt.Fprintf(stderr, "mmsweep: %v\n", err)
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
			fmt.Fprintf(stderr, "mmsweep: %v\n", err)
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
		fmt.Fprintln(stderr, "mmsweep: -shard, -supervise and -merge are mutually exclusive")
		return cli.ExitMismatch
	}
	if modes == 1 && *out == "-" {
		fmt.Fprintln(stderr, "mmsweep: sharded modes need -out pointing at a file (shard paths derive from it)")
		return cli.ExitMismatch
	}
	// The sidecar is written fresh by one process: a resumed run would
	// recreate it without the kept rows' histograms, and shard workers,
	// supervisors and merges never write one.
	if *sidecarOut != "" && (*resume || modes > 0) {
		fmt.Fprintln(stderr, "mmsweep: -perround-sidecar cannot be combined with -resume, -shard, -supervise or -merge (the sidecar only holds the cells one uninterrupted run executes)")
		return cli.ExitMismatch
	}
	switch {
	case *shardSpec != "":
		if *progress > 0 && cfg.Metrics != nil {
			defer cfg.Metrics.StartProgress(stderr, *progress)()
		}
		return finish(runShard(cfg, *out, *shardSpec, *attempt, *livenessFD, chaos, stderr))
	case *supervise > 0:
		// The supervisor itself streams nothing; its registry records the
		// shard fault history (restarts, lease expiries, backoff).
		return finish(runSupervise(args, cfg, *out, *supervise, *leaseTimeout, *maxAttempts, reg, stdout, stderr))
	case *mergeN > 0:
		return finish(runMerge(cfg, *out, *mergeN, stdout, stderr))
	}

	// Destination: stdout, or a file created/truncated UP FRONT so even a
	// zero-row failure leaves a well-defined (empty) artefact. With
	// -resume, the file's complete rows must be a prefix of this sweep;
	// they survive, and only a torn tail past them is cut.
	jsonlSink := sweep.NewJSONLSink(stdout)
	tableW := io.Writer(stderr) // keep the table off the JSONL stream
	var outClose func() error
	if *out == "-" {
		if *resume {
			fmt.Fprintln(stderr, "mmsweep: -resume needs -out pointing at a file")
			return cli.ExitMismatch
		}
	} else {
		var o *sweep.Output
		var err error
		if *resume {
			if o, err = sweep.Resume(*out, &cfg); err != nil {
				err = fmt.Errorf("resume: %w", err)
			}
		} else {
			o, err = sweep.Create(*out)
		}
		if err != nil {
			// A *sweep.MismatchError (the file is not a prefix of this
			// sweep) maps to exit 2; the file is left as it was.
			fmt.Fprintf(stderr, "mmsweep: %v\n", err)
			return finish(cli.Classify(err))
		}
		jsonlSink = sweep.NewJSONLSink(o)
		tableW = stdout
		outClose = o.Close
	}
	if cfg.Done > 0 {
		fmt.Fprintf(stderr, "mmsweep: %d cells (%d already complete, resuming)\n", cells, cfg.Done)
	} else {
		fmt.Fprintf(stderr, "mmsweep: %d cells\n", cells)
	}

	stopProgress := func() {}
	if *progress > 0 && cfg.Metrics != nil {
		stopProgress = cfg.Metrics.StartProgress(stderr, *progress)
	}

	// The sidecar wraps only the row writer: aggregates and violation
	// collection see full rows either way (they never read per_round).
	rowSink := sweep.Sink(jsonlSink)
	var sidecarClose func() error
	if *sidecarOut != "" {
		o, err := sweep.Create(*sidecarOut)
		if err != nil {
			fmt.Fprintf(stderr, "mmsweep: %v\n", err)
			return finish(cli.Classify(err))
		}
		rowSink = sweep.NewSidecarSink(jsonlSink, o)
		sidecarClose = o.Close
	}

	var agg sweep.AggregateSink
	var vio sweep.ViolationsSink
	stats, err := sweep.Stream(context.Background(), cfg, sweep.MultiSink(rowSink, &agg, &vio))
	stopProgress()
	if outClose != nil {
		if cerr := outClose(); cerr != nil && err == nil {
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
		fmt.Fprintf(stderr, "mmsweep: %v\n", err)
		if code := cli.Classify(err); code == cli.ExitMismatch {
			return finish(code)
		}
		fmt.Fprintf(stderr, "mmsweep: %d rows written before the failure; -resume continues from them\n", stats.Emitted)
		return finish(cli.ExitFailure)
	}

	var note string
	if stats.SkippedResume > 0 {
		note = fmt.Sprintf("resumed: table covers the %d newly-run cells; %d rows were already complete",
			stats.Emitted, stats.SkippedResume)
	}
	return finish(report(&agg, &vio, *checkBounds, note, tableW, stderr))
}

// report writes the aggregate table to w, then note when it is not empty,
// then — with checkBounds — the bounds verdict: any violation is listed on
// stderr and exits 1.
func report(agg *sweep.AggregateSink, vio *sweep.ViolationsSink, checkBounds bool, note string, w, stderr io.Writer) int {
	if err := agg.RenderTable(w); err != nil {
		fmt.Fprintf(stderr, "mmsweep: %v\n", err)
		return cli.ExitFailure
	}
	if note != "" {
		fmt.Fprintln(w, note)
	}
	if !checkBounds {
		return cli.ExitOK
	}
	if len(vio.Lines) > 0 {
		fmt.Fprintf(stderr, "mmsweep: %d communication-bound violations:\n", len(vio.Lines))
		for _, v := range vio.Lines {
			fmt.Fprintf(stderr, "  %s\n", v)
		}
		return cli.ExitFailure
	}
	fmt.Fprintln(w, "bounds: all communication contracts hold")
	return cli.ExitOK
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
