package shard

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/sweep"
)

// WorkerOptions carries the per-attempt knobs of RunWorker.
type WorkerOptions struct {
	// Attempt is the restart count (0 on first launch); it feeds the
	// fault injector's derivation so retries draw fresh faults.
	Attempt int
	// Beat, when non-nil, is invoked after every emitted row — the
	// worker's liveness pulse. Fork/exec workers wire it to the
	// supervisor's pipe; in-process workers to a channel.
	Beat func()
	// Injector, when non-nil, is consulted before every row emission.
	Injector *FaultInjector
}

// RunWorker executes one shard attempt: open the shard file with resume
// semantics (keep complete rows, truncate a torn tail, skip finished
// cells), stream the shard's slice of the canonical cell order into it
// with a flush per row, and fsync before reporting success — so a
// supervisor restarted after power-loss-style truncation never trusts rows
// that were only ever in the page cache. cfg.Shard must be set; every
// attempt of every shard runs this same function, which is why a restart
// costs exactly the torn row the previous attempt died writing.
//
// A configuration mismatch against the existing rows (a different seed,
// or rows of the retired sharded builder) surfaces as a *sweep.MismatchError — the permanent-failure class a
// supervisor must not retry.
func RunWorker(ctx context.Context, cfg sweep.Config, path string, opt WorkerOptions) (sweep.StreamStats, error) {
	if cfg.Shard == nil {
		return sweep.StreamStats{}, fmt.Errorf("shard: RunWorker needs cfg.Shard")
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return sweep.StreamStats{}, err
	}
	state, err := sweep.ReadCompleted(f)
	if err != nil {
		f.Close()
		return sweep.StreamStats{}, err
	}
	if err := f.Truncate(state.ValidSize); err != nil {
		f.Close()
		return sweep.StreamStats{}, err
	}
	if _, err := f.Seek(state.ValidSize, io.SeekStart); err != nil {
		f.Close()
		return sweep.StreamStats{}, err
	}
	state.Configure(&cfg)

	bw := bufio.NewWriter(f)
	jsonl := sweep.NewJSONLSink(bw).WithSync(f)
	rows := 0
	sink := sweep.SinkFunc(func(r *sweep.Result) error {
		if err := opt.Injector.BeforeCell(ctx, cfg.Shard.Index, opt.Attempt, rows); err != nil {
			return err
		}
		if err := jsonl.Emit(r); err != nil {
			return err
		}
		rows++
		if opt.Beat != nil {
			opt.Beat()
		}
		return nil
	})
	stats, err := sweep.Stream(ctx, cfg, sink)
	if err != nil {
		f.Close()
		return stats, err
	}
	// The durability boundary: rows reach stable storage BEFORE the shard
	// is reported complete, so a supervisor (or merge) acting on our
	// success can trust every byte it finds.
	if err := jsonl.Sync(); err != nil {
		f.Close()
		return stats, err
	}
	return stats, f.Close()
}
