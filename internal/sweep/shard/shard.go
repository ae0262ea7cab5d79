// Package shard distributes a sweep across worker processes without
// giving up one byte of determinism.
//
// The grid's canonical cell order is partitioned into N contiguous ranges
// (gen.SplitCells — a pure function of the cell count, so every process
// derives the identical partition with no coordination). Each worker runs
// one range through the ordinary streaming pipeline into its own JSONL
// shard file, always opening with resume semantics: scan complete rows,
// truncate a torn tail, skip finished cells, append the missing suffix,
// fsync before reporting complete. A Supervisor fork/execs (or, in tests,
// runs in-process) the N workers and holds a lease per shard, renewed
// whenever the shard file's size changes: a worker flushes every row, so
// its file is its progress. It kills a worker whose lease expires and
// restarts crashed or hung workers with exponentially backed-off,
// deterministically jittered delays. Because restarts resume through the
// same machinery a -resume run uses, a worker SIGKILLed mid-row costs
// exactly the torn row it was writing; nothing else re-runs.
//
// Merge stitches the shard files back together. The ranges are contiguous
// in canonical order, so the merge is a verified concatenation: every row
// must carry the exact cell ID and seed the canonical plan assigns to its
// position, and the result is byte-identical to an uninterrupted
// single-process sweep — the property the chaos tests and the CI smoke
// pin under seeded worker kills and hangs.
//
// FaultInjector is the deterministic chaos harness: a pure function of
// (seed, shard, attempt, cell) decides, per row about to be emitted,
// whether the worker SIGKILLs itself or stalls past the lease timeout.
// Attempt is part of the derivation so a restarted worker draws fresh
// faults instead of dying at the same cell forever.
package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/gen"
	"repro/internal/sweep"
)

// ParseSpec parses the "i/N" syntax of mmsweep's -shard flag into a
// sweep.ShardSpec.
func ParseSpec(s string) (sweep.ShardSpec, error) {
	idx, cnt, ok := strings.Cut(s, "/")
	if !ok {
		return sweep.ShardSpec{}, fmt.Errorf("shard: malformed spec %q (want i/N, e.g. 0/4)", s)
	}
	i, err1 := strconv.Atoi(idx)
	n, err2 := strconv.Atoi(cnt)
	if err1 != nil || err2 != nil || n < 1 || i < 0 || i >= n {
		return sweep.ShardSpec{}, fmt.Errorf("shard: invalid spec %q (want 0 ≤ i < N)", s)
	}
	return sweep.ShardSpec{Index: i, Count: n}, nil
}

// Path names shard i of n's JSONL file for a merged output destined at
// out: "<out>.shard<i>of<n>". Workers, supervisor, and merge all derive
// shard paths through this one function so they can never disagree.
func Path(out string, i, n int) string {
	return fmt.Sprintf("%s.shard%dof%d", out, i, n)
}

// Paths returns all n shard paths in shard order.
func Paths(out string, n int) []string {
	ps := make([]string, n)
	for i := range ps {
		ps[i] = Path(out, i, n)
	}
	return ps
}

// Fault is one injected failure decision.
type Fault int

// The injectable faults: nothing, SIGKILL the worker, or stall it past the
// supervisor's lease timeout.
const (
	faultNone Fault = iota
	faultKill
	faultHang
)

// String renders the fault for logs.
func (f Fault) String() string {
	switch f {
	case faultKill:
		return "kill"
	case faultHang:
		return "hang"
	}
	return "none"
}

// errInjectedKill is what an overridden Kill hook surfaces: the in-process
// stand-in for a SIGKILL, aborting the worker's stream at the injection
// point.
var errInjectedKill = errors.New("shard: injected worker kill")

// FaultInjector kills or stalls workers at seeded random cells. Decisions
// are value-derived — a pure function of (Seed, shard, attempt, cell) —
// so a chaos schedule is reproducible run over run, every worker computes
// its own faults with no coordination, and a restarted attempt draws fresh
// positions instead of deterministically dying at the same cell forever.
// The zero probabilities make a no-op injector; a nil *FaultInjector is
// also safe everywhere.
type FaultInjector struct {
	// Seed drives the per-cell fault draws.
	Seed int64
	// KillProb is the probability a given cell emission is preceded by a
	// SIGKILL; HangProb the probability of a stall instead.
	KillProb, HangProb float64
	// Hang is how long a stalled worker sleeps — set it past the
	// supervisor's lease timeout so the hang is detected and the worker
	// killed, which is the scenario the injector exists to exercise.
	Hang time.Duration
	// Kill overrides the kill action for in-process workers: the default
	// (nil) SIGKILLs the whole process, which is correct for fork/exec
	// workers and fatal for everyone else. An override is called once and
	// then the injection point returns errInjectedKill.
	Kill func()
}

// Decide returns the fault drawn for emitting the cell-th row of the given
// (shard, attempt) — exposed so tests can precompute a chaos schedule and
// assert the acceptance pattern (so many kills, so many hangs) before
// running it for real.
func (f *FaultInjector) Decide(shardIdx, attempt, cell int) Fault {
	if f == nil {
		return faultNone
	}
	u := unit(gen.SubSeed(f.Seed, "chaos",
		strconv.Itoa(shardIdx), strconv.Itoa(attempt), strconv.Itoa(cell)))
	switch {
	case u < f.KillProb:
		return faultKill
	case u < f.KillProb+f.HangProb:
		return faultHang
	}
	return faultNone
}

// BeforeCell enacts the draw for this emission point: a kill never returns
// (the process is SIGKILLed; with an overridden Kill hook it returns
// errInjectedKill), a hang sleeps Hang or until ctx is cancelled — the
// in-process analogue of the supervisor SIGKILLing a hung worker.
func (f *FaultInjector) BeforeCell(ctx context.Context, shardIdx, attempt, cell int) error {
	switch f.Decide(shardIdx, attempt, cell) {
	case faultKill:
		if f.Kill != nil {
			f.Kill()
			return errInjectedKill
		}
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // unreachable: SIGKILL cannot be caught, blocked, or ignored
	case faultHang:
		select {
		case <-time.After(f.Hang):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// unit maps a derived seed onto [0, 1) with 53 uniform bits.
func unit(s int64) float64 {
	return float64(uint64(s)>>11) / (1 << 53)
}
