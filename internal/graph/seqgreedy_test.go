package graph

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/group"
	"repro/internal/mm"
)

// seqGreedyMapPath is the pre-CSR implementation of SequentialGreedy,
// kept verbatim as the regression oracle: it walks the (freshly rebuilt)
// edge list once per colour class.
func seqGreedyMapPath(g *Graph, order []group.Color) []mm.Output {
	if order == nil {
		order = make([]group.Color, g.k)
		for i := range order {
			order[i] = group.Color(i + 1)
		}
	}
	outs := make([]mm.Output, g.N())
	for _, c := range order {
		for _, e := range g.Edges() {
			if e.Color != c {
				continue
			}
			if !outs[e.U].IsMatched() && !outs[e.V].IsMatched() {
				outs[e.U] = mm.Matched(c)
				outs[e.V] = mm.Matched(c)
			}
		}
	}
	return outs
}

func assertSameOutputs(t *testing.T, name string, g *Graph, order []group.Color) {
	t.Helper()
	want := seqGreedyMapPath(g, order)
	got := SequentialGreedy(g, order)
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", name, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Errorf("%s: node %d: CSR path %v, edge-walk path %v", name, v, got[v], want[v])
		}
	}
	if order == nil {
		if err := CheckMatching(g, got); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestSequentialGreedyCSRMatchesMapPath pins the CSR port of
// SequentialGreedy to the old per-class edge-walk implementation on
// worst-case and random instances, including custom class orders.
func TestSequentialGreedyCSRMatchesMapPath(t *testing.T) {
	for _, k := range []int{2, 3, 5, 9} {
		wc, err := NewWorstCase(k)
		if err != nil {
			t.Fatal(err)
		}
		assertSameOutputs(t, "worstcase", wc.G, nil)
	}

	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{3, 6, 11} {
		g := RandomMatchingUnion(200, k, 0.7, rng)
		assertSameOutputs(t, "union", g, nil)

		// Reverse order exercises non-monotone class scheduling.
		rev := make([]group.Color, k)
		for i := range rev {
			rev[i] = group.Color(k - i)
		}
		assertSameOutputs(t, "union/reverse", g, rev)

		// Duplicates and out-of-palette colours must be tolerated alike.
		odd := []group.Color{2, 2, 0, group.Color(k + 5), 1, 2}
		assertSameOutputs(t, "union/odd-order", g, odd)
	}

	for _, k := range []int{64, 256} {
		g := RandomBoundedDegree(150, k, 3, 900, rng)
		assertSameOutputs(t, "bounded", g, nil)
	}
}

// TestSequentialGreedyLargePaletteAllocs runs the oracle on a 3-node
// graph at k = 2^30 and pins that nothing on the way allocates O(k). Explicit class orders,
// including colours with no edges, must agree with the edge-walk oracle.
func TestSequentialGreedyLargePaletteAllocs(t *testing.T) {
	const k = 1 << 30
	b := NewCSRBuilder(3, k)
	for _, e := range []Edge{{0, 1, k}, {1, 2, k - 1}, {0, 2, 7}} {
		if err := b.AddEdge(e.U, e.V, e.Color); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := SequentialGreedy(g, nil)
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("greedy on 3 edges at k=2^30 allocated %d bytes", d)
	}
	want := []mm.Output{mm.Matched(7), mm.Bottom, mm.Matched(7)}
	if !slices.Equal(got, want) {
		t.Errorf("outputs %v, want %v", got, want)
	}
	assertSameOutputs(t, "large-palette/descending", g, []group.Color{k, k - 1, 7})
	assertSameOutputs(t, "large-palette/odd-order", g, []group.Color{k - 1, 3, 0, k, k - 1, 7})
}

// TestEdgesConcurrentFirstFill: concurrent Edges() callers on a fresh
// graph, racing to fill the cache, are safe. The -race CI job gives this
// test its teeth.
func TestEdgesConcurrentFirstFill(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := RandomMatchingUnion(128, 4, 0.8, rng)
	want := g.NumEdges()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := len(g.Edges()); got != want {
				t.Errorf("concurrent Edges(): %d edges, want %d", got, want)
			}
		}()
	}
	wg.Wait()
}

// TestEdgesCachedAndCSRDerived: the edge list is derived from the CSR
// arrays and cached across calls.
func TestEdgesCachedAndCSRDerived(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := RandomMatchingUnion(64, 5, 0.8, rng)

	first := g.Edges()
	m := g.NumEdges()
	if len(first) != m {
		t.Fatalf("Edges() has %d entries, NumEdges() says %d", len(first), m)
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.U > b.U || (a.U == b.U && a.V >= b.V) {
			t.Fatalf("edges not (U,V)-sorted at %d: %+v then %+v", i-1, a, b)
		}
	}
	for _, e := range first {
		peer, ok := g.Neighbor(e.U, e.Color)
		if !ok || peer != e.V {
			t.Fatalf("edge %+v not present in adjacency", e)
		}
	}
	second := g.Edges()
	if &first[0] != &second[0] {
		t.Error("Edges() rebuilt the slice on an unmutated graph")
	}

}
