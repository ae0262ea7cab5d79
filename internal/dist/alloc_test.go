package dist_test

import (
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// TestReducedPipelineRoundLoopAllocFree pins the arena-batched workers
// engine's allocation behaviour: once the machine pool, the engine scratch
// and the round arenas are warm, a full reduced-greedy run allocates only
// its per-run outputs — nothing per node per round. The old colour-list
// path allocated ≥ n payloads every reduction round (n·rounds ≈ 50k allocs
// on the large palette below), so the absolute bound fails loudly on any
// per-round regression, and the small-vs-large comparison catches costs
// that scale with the round count.
func TestReducedPipelineRoundLoopAllocFree(t *testing.T) {
	const (
		n     = 1024
		delta = 3
	)
	build := func(k int, seed int64) *graph.Graph {
		return graph.RandomBoundedDegree(n, k, delta, 5*n, rand.New(rand.NewSource(seed)))
	}
	gSmall := build(64, 5)
	gBig := build(2048, 6)
	pool := dist.NewReducedGreedyMachinePool(delta, n)
	run := func(g *graph.Graph) {
		maxR := dist.TotalRounds(g.K(), delta) + 8
		if _, _, err := runtime.RunWorkersN(g, nil, pool, maxR, 4); err != nil {
			t.Fatal(err)
		}
	}
	// Warm every pooled layer (machines, engine scratch, arenas) for both
	// shapes before measuring.
	run(gSmall)
	run(gBig)
	small := testing.AllocsPerRun(5, func() { run(gSmall) })
	big := testing.AllocsPerRun(5, func() { run(gBig) })
	t.Logf("allocs/run: k=64 %.0f, k=2048 %.0f", small, big)
	if big > 2000 {
		t.Errorf("large-palette run allocated %.0f times; the round loop is no longer allocation-free", big)
	}
	if big-small > 1000 {
		t.Errorf("allocations grew with the round count: %.0f (k=2048) vs %.0f (k=64)", big, small)
	}
}
