package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/sweep/shard"
)

// chaosFlag builds a shard worker's fault injector from the sweep's base
// seed; it returns nil, nil unless a chaos build was given -chaos.
type chaosFlag func(baseSeed int64) (*shard.FaultInjector, error)

// runShard executes one shard worker: the cfg's canonical cell order is
// partitioned len-ways by the spec, and this process streams its contiguous
// slice into the derived shard file with resume semantics — restarting over
// a crashed attempt's file costs exactly the torn row it died writing.
func runShard(cfg sweep.Config, out, spec string, attempt int, chaos chaosFlag, stderr io.Writer) int {
	sp, err := shard.ParseSpec(spec)
	if err != nil {
		fmt.Fprintf(stderr, "mmsweep: %v\n", err)
		return cli.ExitMismatch
	}
	cfg.Shard = &sp
	inj, err := chaos(cfg.Seed)
	if err != nil {
		fmt.Fprintf(stderr, "mmsweep: %v\n", err)
		return cli.ExitMismatch
	}
	path := shard.Path(out, sp.Index, sp.Count)
	stats, err := shard.RunWorker(context.Background(), cfg, path, shard.WorkerOptions{
		Attempt:  attempt,
		Injector: inj,
	})
	if err != nil {
		fmt.Fprintf(stderr, "mmsweep: shard %s: %v\n", sp, err)
		return cli.Classify(err)
	}
	fmt.Fprintf(stderr, "mmsweep: shard %s: %d rows (%d already complete) -> %s\n",
		sp, stats.Emitted, stats.SkippedResume, path)
	return cli.ExitOK
}

// runSupervise fork/execs n shard workers of this same binary and keeps
// them alive: a lease per shard renewed whenever its shard file changes
// size, crashed or hung workers restarted with backed-off jittered
// delays, configuration mismatches (exit 2) treated as permanent. On
// success the shard files are merged into -out and verified byte-identical
// to the canonical order.
func runSupervise(args []string, cfg sweep.Config, out string, n int, lease time.Duration, maxAttempts int, reg *obs.Registry, stdout, stderr io.Writer) int {
	// The workers' output is copied into stderr from one goroutine per
	// child, alongside the supervisor's own event lines.
	stderr = &lockedWriter{w: stderr}
	bin, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "mmsweep: %v\n", err)
		return cli.ExitFailure
	}
	// Workers re-run this invocation's flags minus the supervision flags,
	// plus their shard assignment; -chaos (when compiled in) passes through,
	// so injected faults land in workers, not the supervisor. The obs flags
	// stay with the supervisor too — N workers sharing one -trace or
	// -metrics-out file would clobber each other.
	base := stripFlags(args, "supervise", "merge", "shard", "attempt",
		"progress", "trace", "metrics-out")
	ec := shard.ExecConfig{
		Bin: bin,
		Args: func(shardIdx, attempt int) []string {
			return append(append([]string{}, base...),
				"-shard", fmt.Sprintf("%d/%d", shardIdx, n),
				"-attempt", strconv.Itoa(attempt))
		},
		Stderr: stderr,
	}
	sup := &shard.Supervisor{
		Count:        n,
		Launch:       ec.Launcher(),
		Out:          out,
		LeaseTimeout: lease,
		MaxAttempts:  maxAttempts,
		Seed:         cfg.Seed,
		Log:          stderr,
		Metrics:      shard.NewMetrics(reg),
	}
	if err := sup.Run(context.Background()); err != nil {
		fmt.Fprintf(stderr, "mmsweep: %v\n", err)
		fmt.Fprintln(stderr, "mmsweep: shard files keep their completed rows; re-running resumes from them")
		return cli.Classify(err)
	}
	return runMerge(cfg, out, n, stdout, stderr)
}

// lockedWriter serialises Writes to w.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// Write implements io.Writer.
func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// runMerge stitches the n shard files back into -out as one verified,
// byte-identical artefact, then replays it through the aggregate and
// violations sinks so a supervised run reports exactly what a
// single-process run would have. The merge is written beside -out and
// renamed over it only once every shard verified and the file is durable,
// so a refused or failed merge leaves -out as it was.
func runMerge(cfg sweep.Config, out string, n int, stdout, stderr io.Writer) int {
	tmp := out + ".merging"
	o, err := sweep.Create(tmp)
	if err != nil {
		fmt.Fprintf(stderr, "mmsweep: %v\n", err)
		return cli.ExitFailure
	}
	// Close flushes and fsyncs: the merged artefact is the durable
	// deliverable.
	rows, err := shard.Merge(o, cfg, shard.Paths(out, n))
	if cerr := o.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, out)
	}
	if err != nil {
		os.Remove(tmp)
		fmt.Fprintf(stderr, "mmsweep: merge: %v\n", err)
		return cli.Classify(err)
	}
	fmt.Fprintf(stderr, "mmsweep: merged %d rows from %d shards -> %s\n", rows, n, out)

	rf, err := os.Open(out)
	if err != nil {
		fmt.Fprintf(stderr, "mmsweep: %v\n", err)
		return cli.ExitFailure
	}
	defer rf.Close()
	var agg sweep.AggregateSink
	var vio sweep.ViolationsSink
	if _, err := sweep.DecodeRows(rf, sweep.MultiSink(&agg, &vio)); err != nil {
		fmt.Fprintf(stderr, "mmsweep: %v\n", err)
		return cli.ExitFailure
	}
	return report(&agg, &vio, cfg.CheckBounds, "", stdout, stderr)
}

// stripFlags removes the named flags (with their values, in both "-name v"
// and "-name=v" forms) from an argument list — how the supervisor derives
// worker argv from its own.
func stripFlags(args []string, names ...string) []string {
	drop := map[string]bool{}
	for _, n := range names {
		drop[n] = true
	}
	kept := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if !strings.HasPrefix(a, "-") {
			kept = append(kept, a)
			continue
		}
		name := strings.TrimLeft(a, "-")
		name, _, hasEq := strings.Cut(name, "=")
		if drop[name] {
			if !hasEq && i+1 < len(args) && !strings.HasPrefix(args[i+1], "-") {
				i++ // consume the separate value
			}
			continue
		}
		kept = append(kept, a)
	}
	return kept
}
