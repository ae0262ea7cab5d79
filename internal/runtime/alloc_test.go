package runtime_test

import (
	"math"
	"math/rand"
	goruntime "runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/group"
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

// TestWorkersLargePaletteAllocBounded pins that no engine buffer and no
// statistic grows with the palette. Greedy on two nodes joined by one edge
// of colour c at k = 2^30 runs c−1 rounds, of which only the last carries
// a message, and must cost what any two-node run costs: a buffer of k+1
// messages per worker would be 16 GiB, and a dense per-round record at
// c = 2^30 about 100 GB.
func TestWorkersLargePaletteAllocBounded(t *testing.T) {
	for _, c := range []int{2, 1 << 30} {
		b := graph.NewCSRBuilder(2, 1<<30)
		if err := b.AddEdge(0, 1, group.Color(c)); err != nil {
			t.Fatal(err)
		}
		g := b.Build()
		for _, workers := range []int{1, 2} {
			var before, after goruntime.MemStats
			goruntime.ReadMemStats(&before)
			outs, stats, err := runtime.RunWorkersN(g, nil, dist.NewGreedyMachinePool(g.N()), runtime.DefaultMaxRounds(g), workers)
			goruntime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("c=%d workers=%d: %v", c, workers, err)
			}
			want := mm.Matched(group.Color(c))
			if stats.Rounds != c-1 || outs[0] != want || outs[1] != want {
				t.Fatalf("c=%d workers=%d: rounds %d, outputs %v; want %d rounds matching the colour-%d edge",
					c, workers, stats.Rounds, outs, c-1, c)
			}
			if len(stats.Traffic) != 1 || stats.Traffic[0].Round != c-1 || stats.Traffic[0].Messages != stats.Messages || stats.Messages == 0 {
				t.Errorf("c=%d workers=%d: traffic record %v (%d messages), want one entry for round %d",
					c, workers, stats.Traffic, stats.Messages, c-1)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
				t.Errorf("c=%d workers=%d: the run allocated %d bytes, want < 1 MiB", c, workers, d)
			}
		}
	}
}
