package shard

import (
	"context"
	"fmt"

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

// RunWorker executes one shard attempt: resume the shard file
// (sweep.Resume verifies its complete rows are a prefix of the shard's
// range, cuts a torn tail and skips the finished cells), stream the rest
// of the shard's slice of the canonical cell order into it with a flush
// per row, and fsync before reporting success — so a supervisor restarted
// after power-loss-style truncation never trusts rows that were only ever
// in the page cache. cfg.Shard must be set; every attempt of every shard
// runs this same function, which is why a restart costs exactly the torn
// row the previous attempt died writing.
//
// A shard file that is not a prefix of the shard's range (a row of
// another cell or seed, or of the retired sharded builder) surfaces as a
// *sweep.MismatchError — the permanent-failure class a supervisor must not
// retry — and is left as it was.
func RunWorker(ctx context.Context, cfg sweep.Config, path string, opt WorkerOptions) (sweep.StreamStats, error) {
	if cfg.Shard == nil {
		return sweep.StreamStats{}, fmt.Errorf("shard: RunWorker needs cfg.Shard")
	}
	o, err := sweep.Resume(path, &cfg)
	if err != nil {
		return sweep.StreamStats{}, err
	}
	jsonl := sweep.NewJSONLSink(o)
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
	// The durability boundary: Close fsyncs, so rows reach stable storage
	// BEFORE the shard is reported complete, and a supervisor (or merge)
	// acting on our success can trust every byte it finds.
	if cerr := o.Close(); err == nil {
		err = cerr
	}
	return stats, err
}
