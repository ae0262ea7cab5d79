package runtime_test

import (
	"math/rand"
	goruntime "runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/mm"
	"repro/internal/runtime"
)

// engineRun names one execution; the equivalence tests drive the reference
// simulator and the engine at several worker counts over the same
// instances and demand bit-identical results.
type engineRun struct {
	name string
	run  func(*graph.Graph, []int, runtime.Source, int) ([]mm.Output, *runtime.Stats, error)
}

func workersN(w int) func(*graph.Graph, []int, runtime.Source, int) ([]mm.Output, *runtime.Stats, error) {
	return func(g *graph.Graph, labels []int, src runtime.Source, max int) ([]mm.Output, *runtime.Stats, error) {
		return runtime.RunWorkersN(g, labels, src, max, w)
	}
}

func engines() []engineRun {
	return []engineRun{
		{"reference", runtime.RunReference},
		{"workers-1", workersN(1)},
		{"workers-2", workersN(2)},
		{"workers-3", workersN(3)},
	}
}

// checkAgree runs every execution and compares outputs, rounds, messages,
// per-node halt times and the per-round histogram against the reference.
// Each run gets its own source from newSource, so no two runs, and never
// the reference and the engine, drive the same machines.
func checkAgree(t *testing.T, name string, g *graph.Graph, labels []int, newSource func(n int) runtime.Source, maxRounds int) {
	t.Helper()
	var refOuts []mm.Output
	var refStats *runtime.Stats
	for _, e := range engines() {
		outs, stats, err := e.run(g, labels, newSource(g.N()), maxRounds)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, e.name, err)
		}
		if refOuts == nil {
			refOuts, refStats = outs, stats
			continue
		}
		for v := range outs {
			if outs[v] != refOuts[v] {
				t.Fatalf("%s/%s node %d: output %v, reference %v", name, e.name, v, outs[v], refOuts[v])
			}
		}
		if stats.Rounds != refStats.Rounds || stats.Messages != refStats.Messages {
			t.Fatalf("%s/%s: stats %+v, reference %+v", name, e.name,
				struct{ R, M int }{stats.Rounds, stats.Messages},
				struct{ R, M int }{refStats.Rounds, refStats.Messages})
		}
		for v := range stats.HaltTimes {
			if stats.HaltTimes[v] != refStats.HaltTimes[v] {
				t.Fatalf("%s/%s: halt time of %d differs (%d vs %d)", name, e.name, v,
					stats.HaltTimes[v], refStats.HaltTimes[v])
			}
		}
		if len(stats.PerRound()) != len(refStats.PerRound()) {
			t.Fatalf("%s/%s: %d per-round entries, reference %d", name, e.name,
				len(stats.PerRound()), len(refStats.PerRound()))
		}
		total := 0
		for r := range stats.PerRound() {
			if stats.PerRound()[r] != refStats.PerRound()[r] {
				t.Fatalf("%s/%s round %d: traffic %+v, reference %+v", name, e.name, r+1,
					stats.PerRound()[r], refStats.PerRound()[r])
			}
			total += stats.PerRound()[r].Messages
		}
		if total != stats.Messages {
			t.Fatalf("%s/%s: per-round messages sum to %d, Messages = %d", name, e.name,
				total, stats.Messages)
		}
	}
}

// reducedPool is NewReducedGreedyMachinePool at degree bound delta, in the
// shape of the other machines' pool constructors.
func reducedPool(delta int) func(n int) runtime.Source {
	return func(n int) runtime.Source { return dist.NewReducedGreedyMachinePool(delta, n) }
}

// TestEnginesAgreeOnGreedy is the equivalence gate of the engine: the
// reference simulator and the engine at one, two and three workers must
// produce identical outputs and statistics for the greedy machine over
// regular, worst-case and path instances.
func TestEnginesAgreeOnGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g, err := graph.RandomRegular(128, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	checkAgree(t, "random-regular", g, nil, dist.NewGreedyMachinePool, 64)

	for k := 2; k <= 8; k++ {
		wc, err := graph.NewWorstCase(k)
		if err != nil {
			t.Fatal(err)
		}
		checkAgree(t, "worst-case", wc.G, nil, dist.NewGreedyMachinePool, 64)
	}

	p, err := graph.PathGraph(6, []group.Color{6, 5, 4, 3, 2, 1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	checkAgree(t, "path", p, nil, dist.NewGreedyMachinePool, 64)
}

// TestEnginesAgreeOnAllMachines extends the gate to every dist machine,
// including the labelled bipartite one and the multi-phase reduced machine.
func TestEnginesAgreeOnAllMachines(t *testing.T) {
	rng := rand.New(rand.NewSource(22))

	g := graph.RandomMatchingUnion(60, 5, 0.8, rng)
	checkAgree(t, "proposal", g, nil, dist.NewProposalMachinePool, runtime.DefaultMaxRounds(g))

	b := graph.RandomBoundedDegree(80, 256, 3, 400, rng)
	checkAgree(t, "reduced", b, nil, reducedPool(3),
		dist.TotalRounds(256, 3)+8)

	half := 30
	bb := graph.NewCSRBuilder(2*half, 64)
	labels := make([]int, 2*half)
	for i := half; i < 2*half; i++ {
		labels[i] = dist.SideBlack
	}
	for i := 0; i < 4*half; i++ {
		bb.TryAddEdge(rng.Intn(half), half+rng.Intn(half), group.Color(1+rng.Intn(64)))
	}
	bip := bb.Build()
	checkAgree(t, "bipartite", bip, labels, dist.NewBipartiteMachinePool, 4*bip.MaxDegree()+16)
}

// TestWorkersValidMatchingAtScale exercises the engine on an instance big
// enough to span many frontier words and validates the matching it
// produces.
func TestWorkersValidMatchingAtScale(t *testing.T) {
	n := 1 << 14
	if testing.Short() {
		n = 1 << 11
	}
	rng := rand.New(rand.NewSource(23))
	// A union of partial matchings, not a regular graph: in a k-regular
	// properly coloured instance every node has a colour-1 edge and greedy
	// halts at time 0, which would leave the round loop untested.
	g := graph.RandomMatchingUnion(n, 6, 0.7, rng)
	outs, stats, err := runtime.RunWorkersN(g, nil, dist.NewGreedyMachinePool(n), 64, goruntime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.CheckMatching(g, outs); err != nil {
		t.Fatal(err)
	}
	if stats.Rounds == 0 {
		t.Fatal("instance degenerated to a time-0 halt; the round loop was not exercised")
	}
	if stats.Rounds > g.K()-1 {
		t.Errorf("rounds %d exceed k−1 = %d", stats.Rounds, g.K()-1)
	}
}
