package dist_test

import (
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/runtime"
)

// TestGreedyMachineIsFaithful checks that the distributed greedy machine
// computes exactly the global sequential greedy process (§1.2) on a variety
// of instances, within the k−1 round bound of Lemma 1.
func TestGreedyMachineIsFaithful(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	instances := []*graph.Graph{}
	fig1, err := graph.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	instances = append(instances, fig1)
	for k := 2; k <= 8; k++ {
		wc, err := graph.NewWorstCase(k)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, wc.G)
	}
	for trial := 0; trial < 20; trial++ {
		instances = append(instances, graph.RandomMatchingUnion(10+rng.Intn(40), 2+rng.Intn(6), 0.8, rng))
	}
	g, err := graph.RandomRegular(64, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	instances = append(instances, g)
	p, err := graph.PathGraph(5, []group.Color{5, 4, 3, 2, 1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	instances = append(instances, p)

	for i, g := range instances {
		outs, stats, err := runtime.RunWorkersN(g, nil, dist.NewGreedyMachinePool(g.N()), runtime.DefaultMaxRounds(g), 1)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		want := graph.SequentialGreedy(g, nil)
		for v := range outs {
			if outs[v] != want[v] {
				t.Fatalf("instance %d node %d: machine %v, sequential greedy %v", i, v, outs[v], want[v])
			}
		}
		if err := graph.CheckMatching(g, outs); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if stats.Rounds > g.K()-1 {
			t.Fatalf("instance %d: %d rounds exceed k−1 = %d", i, stats.Rounds, g.K()-1)
		}
	}
}

// TestGreedyWorstCaseRounds pins the §1.2 lower bound: exactly k−1 rounds,
// with the two indistinguishable endpoints answering differently.
func TestGreedyWorstCaseRounds(t *testing.T) {
	for k := 2; k <= 9; k++ {
		wc, err := graph.NewWorstCase(k)
		if err != nil {
			t.Fatal(err)
		}
		outs, stats, err := runtime.RunWorkersN(wc.G, nil, dist.NewGreedyMachinePool(wc.G.N()), runtime.DefaultMaxRounds(wc.G), 1)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rounds != k-1 {
			t.Errorf("k=%d: %d rounds, want exactly %d", k, stats.Rounds, k-1)
		}
		if outs[wc.U].IsMatched() == outs[wc.V].IsMatched() {
			t.Errorf("k=%d: endpoints matched alike", k)
		}
	}
}

// TestProposalMachine checks maximality and termination of the proposal
// baseline on random and adversarial instances.
func TestProposalMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		g := graph.RandomMatchingUnion(10+rng.Intn(40), 2+rng.Intn(6), 0.8, rng)
		outs, _, err := runtime.RunWorkersN(g, nil, dist.NewProposalMachinePool(g.N()), runtime.DefaultMaxRounds(g), 1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := graph.CheckMatching(g, outs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	for k := 2; k <= 8; k++ {
		wc, err := graph.NewWorstCase(k)
		if err != nil {
			t.Fatal(err)
		}
		outs, _, err := runtime.RunWorkersN(wc.G, nil, dist.NewProposalMachinePool(wc.G.N()), runtime.DefaultMaxRounds(wc.G), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.CheckMatching(wc.G, outs); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

// TestBipartiteMachine checks the O(Δ) bound and maximality on random
// bipartite instances with huge palettes.
func TestBipartiteMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 15; trial++ {
		half := 8 + rng.Intn(40)
		k := []int{4, 64, 4096}[trial%3]
		b := graph.NewCSRBuilder(2*half, k)
		labels := make([]int, 2*half)
		for i := half; i < 2*half; i++ {
			labels[i] = dist.SideBlack
		}
		for i := 0; i < 4*half; i++ {
			u := rng.Intn(half)
			v := half + rng.Intn(half)
			b.TryAddEdge(u, v, group.Color(1+rng.Intn(k)))
		}
		g := b.Build()
		outs, stats, err := runtime.RunWorkersN(g, labels, dist.NewBipartiteMachinePool(g.N()), 4*g.MaxDegree()+16, 1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := graph.CheckMatching(g, outs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if bound := 2*g.MaxDegree() + 3; stats.Rounds > bound {
			t.Fatalf("trial %d: %d rounds exceed 2Δ+3 = %d", trial, stats.Rounds, bound)
		}
	}
}

// TestReducedGreedyMachine checks validity and the TotalRounds budget on
// bounded-degree instances across palette sizes.
func TestReducedGreedyMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, p := range []struct{ n, k, delta int }{
		{40, 4, 3}, {64, 64, 3}, {64, 256, 3}, {80, 1024, 4}, {64, 4096, 2},
	} {
		g := graph.RandomBoundedDegree(p.n, p.k, p.delta, 5*p.n, rng)
		pred := dist.TotalRounds(p.k, p.delta)
		outs, stats, err := runtime.RunWorkersN(g, nil, dist.NewReducedGreedyMachinePool(p.delta, g.N()), pred+1, 1)
		if err != nil {
			t.Fatalf("k=%d Δ=%d: %v", p.k, p.delta, err)
		}
		if err := graph.CheckMatching(g, outs); err != nil {
			t.Fatalf("k=%d Δ=%d: %v", p.k, p.delta, err)
		}
		if stats.Rounds > pred {
			t.Fatalf("k=%d Δ=%d: %d rounds exceed TotalRounds = %d", p.k, p.delta, stats.Rounds, pred)
		}
	}
}

// TestReduceEdgeColoring checks the full pipeline reaches a proper
// colouring within the classical 2Δ−1 palette.
func TestReduceEdgeColoring(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, p := range []struct{ k, delta int }{
		{16, 3}, {512, 3}, {4096, 4}, {65536, 5}, {5, 3},
	} {
		g := graph.RandomBoundedDegree(100, p.k, p.delta, 500, rng)
		ec, err := dist.ReduceEdgeColoring(g, p.delta)
		if err != nil {
			t.Fatalf("k=%d Δ=%d: %v", p.k, p.delta, err)
		}
		if ec.Palette > 2*p.delta-1 {
			t.Errorf("k=%d Δ=%d: palette %d above 2Δ−1 = %d", p.k, p.delta, ec.Palette, 2*p.delta-1)
		}
		if len(ec.Colors) != len(g.Edges()) {
			t.Fatalf("k=%d Δ=%d: %d colours for %d edges", p.k, p.delta, len(ec.Colors), len(g.Edges()))
		}
	}
	// Degree-bound violations are reported, not mis-coloured.
	g := graph.RandomBoundedDegree(40, 16, 5, 300, rand.New(rand.NewSource(12)))
	if g.MaxDegree() > 2 {
		if _, err := dist.ReduceEdgeColoring(g, 2); err == nil {
			t.Error("degree violation not reported")
		}
	}
}
