package runtime_test

import (
	"math"
	"math/rand"
	goruntime "runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/mm"
	"repro/internal/runtime"
)

// TestWorkersRoundLoopAllocFree pins the bitset round loop as allocation-
// free: after the pooled state is warm, per-run allocations must not scale
// with the number of rounds. Two greedy runs at the same n but different
// round counts should cost the same fixed setup allocations (goroutines,
// outputs, Stats) — any per-round allocation would show up as a slope.
func TestWorkersRoundLoopAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	t.Run("greedy", func(t *testing.T) {
		checkRoundLoopAllocFree(t,
			graph.RandomMatchingUnion(256, 2, 0.7, rng),
			graph.RandomMatchingUnion(256, 8, 0.7, rng))
	})
	// k ≫ Δ: greedy sleeps through most of its rounds, so the long run
	// pushes hundreds of wakeups through the heap and fast-forwards past
	// rounds no node runs. Neither may allocate per round.
	t.Run("sleeping-greedy", func(t *testing.T) {
		checkRoundLoopAllocFree(t,
			graph.RandomBoundedDegree(256, 16, 3, 1000, rng),
			graph.RandomBoundedDegree(256, 512, 3, 1000, rng))
	})
}

func checkRoundLoopAllocFree(t *testing.T, short, long *graph.Graph) {
	src := dist.NewGreedyMachinePool(256)

	run := func(g *graph.Graph) (rounds int) {
		_, stats, err := runtime.RunWorkersN(g, nil, src, runtime.DefaultMaxRounds(g), 2)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Rounds
	}
	// Warm the pool so both measurements see identical reuse.
	rShort := run(short)
	rLong := run(long)
	if rLong <= rShort {
		t.Fatalf("test graphs degenerate: %d rounds vs %d, need a spread", rLong, rShort)
	}

	// The pooled state lives in a sync.Pool: a GC empties it, and under the
	// race detector Put drops a random quarter of its items, so any single
	// run may rebuild state it would otherwise reuse. A dropped item only
	// ever adds allocations, so the fewest allocations over many
	// interleaved runs is each side's true per-run count.
	aShort, aLong := math.Inf(1), math.Inf(1)
	for i := 0; i < 50; i++ {
		aShort = min(aShort, testing.AllocsPerRun(1, func() { run(short) }))
		aLong = min(aLong, testing.AllocsPerRun(1, func() { run(long) }))
	}
	// Setup allocations are identical at fixed n and workers; allow one
	// stray alloc of slack for runtime noise (goroutine stack growth etc).
	if aLong > aShort+1 {
		t.Errorf("allocations scale with rounds: %.1f at %d rounds vs %.1f at %d rounds",
			aLong, rLong, aShort, rShort)
	}
}

// TestWorkersLargePaletteAllocBounded pins that no engine buffer grows with
// the palette: greedy on two nodes joined by one colour-2 edge at k = 2^30
// runs one real round, and must cost what any two-node run costs. A buffer
// of k+1 messages per worker would be 16 GiB here.
func TestWorkersLargePaletteAllocBounded(t *testing.T) {
	b := graph.NewCSRBuilder(2, 1<<30)
	if err := b.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	for _, workers := range []int{1, 2} {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		outs, stats, err := runtime.RunWorkersN(g, nil, dist.NewGreedyMachinePool(g.N()), runtime.DefaultMaxRounds(g), workers)
		goruntime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats.Rounds != 1 || outs[0] != mm.Matched(2) || outs[1] != mm.Matched(2) {
			t.Fatalf("workers=%d: rounds %d, outputs %v; want one round matching the colour-2 edge", workers, stats.Rounds, outs)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("workers=%d: the run allocated %d bytes, want < 1 MiB", workers, d)
		}
	}
}
