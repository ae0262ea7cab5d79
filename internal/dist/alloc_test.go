package dist_test

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// TestReducedPipelineRoundLoopAllocFree pins the workers engine's
// allocation behaviour on the reduced pipeline: once the machine pool and
// the engine scratch are warm — each machine's published colour list has
// reached its capacity — a full reduced-greedy run allocates only its
// per-run outputs, nothing per node per round. A colour-list path that
// allocated a payload per node per reduction round would cost n·rounds ≈
// 50k allocs on the large palette below, so the absolute bound fails
// loudly on any per-round regression, and the small-vs-large comparison
// catches costs that scale with the round count.
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
	// Warm every pooled layer (machines, engine scratch) for both
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

// TestReducedCellSetupAllocsFlat pins the set-up a sweep cell pays for the
// reduced machines: a fresh source per run, as the sweep's registry makes
// for every cell above its reuse cap. The machines' colour lists and
// blocked-colour scratch come from the source's slabs, so the run's
// allocation count does not grow with n: it is the same at two sizes of
// the same family, and far below one per node. The collector is off while
// it counts, since a collection may empty the engine's pooled scratch and
// add its reallocation to either size.
func TestReducedCellSetupAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts; the race detector's sync.Pool drops items at random")
	}
	const delta = 3
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, workers := range []int{1, 2} {
		var counts []float64
		for _, n := range []int{1024, 8192} {
			g := graph.RandomBoundedDegree(n, 256, delta, 5*n, rand.New(rand.NewSource(int64(n))))
			maxR := dist.TotalRounds(g.K(), g.MaxDegree()) + 8
			counts = append(counts, testing.AllocsPerRun(5, func() {
				src := dist.NewReducedGreedyMachinePool(g.MaxDegree(), g.N())
				if _, _, err := runtime.RunWorkersN(g, nil, src, maxR, workers); err != nil {
					t.Fatal(err)
				}
			}))
		}
		t.Logf("workers=%d: %.0f allocs/run at n=1024, %.0f at n=8192", workers, counts[0], counts[1])
		if counts[0] != counts[1] || counts[1] > 64 {
			t.Errorf("workers=%d: %.0f allocs/run at n=1024 and %.0f at n=8192, want the same count, at most 64", workers, counts[0], counts[1])
		}
	}
}
