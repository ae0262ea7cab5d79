package runtime_test

import (
	"math/rand"
	goruntime "runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// pinAgainstReference runs RunWorkersN at several worker counts and
// demands byte-identical outputs and Stats (including the per-round
// histogram) against the reference simulator. The reference and the engine
// each get their own source from newSource; the engine reuses its source
// across worker counts and reps.
func pinAgainstReference(t *testing.T, name string, g *graph.Graph, newSource func(n int) runtime.Source, maxRounds int, reps int) {
	t.Helper()
	refOuts, refStats, err := runtime.RunReference(g, nil, newSource(g.N()), maxRounds)
	if err != nil {
		t.Fatalf("%s/reference: %v", name, err)
	}
	src := newSource(g.N())
	for _, workers := range []int{2, 3, 5} {
		for rep := 0; rep < reps; rep++ {
			outs, stats, err := runtime.RunWorkersN(g, nil, src, maxRounds, workers)
			if err != nil {
				t.Fatalf("%s/workers=%d rep %d: %v", name, workers, rep, err)
			}
			for v := range outs {
				if outs[v] != refOuts[v] {
					t.Fatalf("%s/workers=%d rep %d node %d: output %v, reference %v",
						name, workers, rep, v, outs[v], refOuts[v])
				}
			}
			if stats.Rounds != refStats.Rounds || stats.Messages != refStats.Messages {
				t.Fatalf("%s/workers=%d rep %d: rounds/messages %d/%d, reference %d/%d",
					name, workers, rep, stats.Rounds, stats.Messages, refStats.Rounds, refStats.Messages)
			}
			for v := range stats.HaltTimes {
				if stats.HaltTimes[v] != refStats.HaltTimes[v] {
					t.Fatalf("%s/workers=%d rep %d: halt time of %d differs (%d vs %d)",
						name, workers, rep, v, stats.HaltTimes[v], refStats.HaltTimes[v])
				}
			}
			if len(stats.PerRound()) != len(refStats.PerRound()) {
				t.Fatalf("%s/workers=%d rep %d: %d per-round rows, reference %d",
					name, workers, rep, len(stats.PerRound()), len(refStats.PerRound()))
			}
			for r := range stats.PerRound() {
				if stats.PerRound()[r] != refStats.PerRound()[r] {
					t.Fatalf("%s/workers=%d rep %d round %d: traffic %+v, reference %+v",
						name, workers, rep, r+1, stats.PerRound()[r], refStats.PerRound()[r])
				}
			}
		}
	}
}

// TestWorkersStealInterleavings is the adversarial chunk-schedule pin:
// one-word chunks plus a scheduler yield between claims force workers to
// interleave claims in ways the production granularity never produces, and
// every rep must still match the reference simulator byte for byte —
// outputs, halt times, and the per-round traffic histogram. This is the
// determinism argument of steal.go made executable.
func TestWorkersStealInterleavings(t *testing.T) {
	defer runtime.SetStealChunkWords(1)()
	defer runtime.SetStealYield(goruntime.Gosched)()

	rng := rand.New(rand.NewSource(31))
	reps := 8
	if testing.Short() {
		reps = 3
	}

	mu := graph.RandomMatchingUnion(300, 6, 0.7, rng)
	pinAgainstReference(t, "greedy", mu, dist.NewGreedyMachinePool, 64, reps)

	// k ≫ Δ: greedy nodes sleep between their few incident classes, so
	// wakeups, widened scan windows and fast-forwards are all in play.
	sparse := graph.RandomBoundedDegree(300, 256, 3, 400, rng)
	pinAgainstReference(t, "sleeping-greedy", sparse, dist.NewGreedyMachinePool,
		runtime.DefaultMaxRounds(sparse), reps)

	// The reduced machine exercises the payload path: each node sends a
	// pointer to the colour list it publishes in Send, read by whichever
	// worker claims the receiver, so the pin also proves payload contents
	// are schedule-independent.
	bd := graph.RandomBoundedDegree(200, 128, 3, 1000, rng)
	pinAgainstReference(t, "reduced", bd, reducedPool(3),
		dist.TotalRounds(128, 3)+8, reps)

	pr := graph.RandomMatchingUnion(140, 5, 0.8, rng)
	pinAgainstReference(t, "proposal", pr, dist.NewProposalMachinePool, runtime.DefaultMaxRounds(pr), reps)
}

// TestWorkersChunkGranularities pins the schedule-independence across claim
// granularities at the production yield (none): every chunk size from one
// word up to past-the-whole-frontier must give identical results.
func TestWorkersChunkGranularities(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := graph.RandomMatchingUnion(500, 6, 0.6, rng)
	for _, chunk := range []int{1, 2, 7, 64} {
		restore := runtime.SetStealChunkWords(chunk)
		pinAgainstReference(t, "chunk", g, dist.NewGreedyMachinePool, 64, 1)
		restore()
	}
}
