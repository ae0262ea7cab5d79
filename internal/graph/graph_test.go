package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algo"
	"repro/internal/colsys"
	"repro/internal/group"
	"repro/internal/mm"
)

// TestAddEdgeValidation drives CSRBuilder.AddEdge through each refusal
// and checks the built graph stays valid either way.
func TestAddEdgeValidation(t *testing.T) {
	tests := []struct {
		name    string
		setup   func(b *CSRBuilder) error
		wantErr bool
	}{
		{"valid", func(b *CSRBuilder) error { return b.AddEdge(0, 1, 1) }, false},
		{"self-loop", func(b *CSRBuilder) error { return b.AddEdge(2, 2, 1) }, true},
		{"out of range", func(b *CSRBuilder) error { return b.AddEdge(0, 99, 1) }, true},
		{"negative", func(b *CSRBuilder) error { return b.AddEdge(-1, 0, 1) }, true},
		{"colour zero", func(b *CSRBuilder) error { return b.AddEdge(0, 1, 0) }, true},
		{"colour too big", func(b *CSRBuilder) error { return b.AddEdge(0, 1, 5) }, true},
		{"colour reuse at endpoint", func(b *CSRBuilder) error {
			if err := b.AddEdge(0, 1, 1); err != nil {
				return err
			}
			return b.AddEdge(0, 2, 1)
		}, true},
		{"duplicate edge", func(b *CSRBuilder) error {
			if err := b.AddEdge(0, 1, 1); err != nil {
				return err
			}
			return b.AddEdge(1, 0, 2)
		}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := NewCSRBuilder(4, 4)
			err := tt.setup(b)
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
			g := b.Build()
			if err := g.Validate(); err != nil {
				t.Errorf("graph left invalid: %v", err)
			}
		})
	}
}

func TestPathAndCycle(t *testing.T) {
	p, err := PathGraph(3, []group.Color{1, 2, 3, 1})
	if err != nil {
		t.Fatalf("PathGraph: %v", err)
	}
	if p.N() != 5 || p.NumEdges() != 4 {
		t.Errorf("path: n=%d m=%d", p.N(), p.NumEdges())
	}
	if p.MaxDegree() != 2 {
		t.Errorf("path max degree = %d", p.MaxDegree())
	}

	if _, err := PathGraph(3, []group.Color{1, 1}); err == nil {
		t.Error("improper path colouring accepted")
	}

	c, err := cycleGraph(2, []group.Color{1, 2, 1, 2})
	if err != nil {
		t.Fatalf("cycleGraph: %v", err)
	}
	for v := 0; v < c.N(); v++ {
		if c.Degree(v) != 2 {
			t.Errorf("cycle degree(%d) = %d", v, c.Degree(v))
		}
	}
	// Odd cycle cannot be properly 2-coloured.
	if _, err := cycleGraph(2, []group.Color{1, 2, 1}); err == nil {
		t.Error("odd 2-coloured cycle accepted")
	}
	if _, err := cycleGraph(3, []group.Color{1, 2}); err == nil {
		t.Error("2-edge cycle accepted")
	}
}

func TestFigure1(t *testing.T) {
	g, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N() != 16 || g.NumEdges() != 32 || g.MaxDegree() != 4 {
		t.Errorf("n=%d m=%d Δ=%d, want 16/32/4", g.N(), g.NumEdges(), g.MaxDegree())
	}
	// Every colour class of Q4 is a perfect matching, so greedy matches
	// every node along colour 1.
	outs := SequentialGreedy(g, nil)
	for v, out := range outs {
		if out != mm.Matched(1) {
			t.Errorf("node %d: output %v, want matched along 1", v, out)
		}
	}
	if err := CheckMatching(g, outs); err != nil {
		t.Error(err)
	}
}

func TestWorstCase(t *testing.T) {
	for k := 2; k <= 7; k++ {
		wc, err := NewWorstCase(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := wc.G.Validate(); err != nil {
			t.Fatal(err)
		}

		// Views of U and V agree up to radius k−1 and differ at radius k.
		viewU, err := wc.G.View(wc.U, k-1)
		if err != nil {
			t.Fatal(err)
		}
		viewV, err := wc.G.View(wc.V, k-1)
		if err != nil {
			t.Fatal(err)
		}
		if !colsys.EqualUpTo(viewU, viewV, k-1) {
			t.Errorf("k=%d: radius-(k-1) views differ", k)
		}
		fullU, err := wc.G.View(wc.U, k)
		if err != nil {
			t.Fatal(err)
		}
		fullV, err := wc.G.View(wc.V, k)
		if err != nil {
			t.Fatal(err)
		}
		if colsys.EqualUpTo(fullU, fullV, k) {
			t.Errorf("k=%d: radius-k views equal", k)
		}

		// Greedy matches exactly one of the two endpoints.
		outs := SequentialGreedy(wc.G, nil)
		if err := CheckMatching(wc.G, outs); err != nil {
			t.Fatal(err)
		}
		if outs[wc.U].IsMatched() == outs[wc.V].IsMatched() {
			t.Errorf("k=%d: greedy treats u and v alike (%v, %v)", k, outs[wc.U], outs[wc.V])
		}
	}

	if _, err := NewWorstCase(1); err == nil {
		t.Error("k = 1 worst case accepted")
	}
}

func TestViewOfCycleIsPath(t *testing.T) {
	// The universal cover of a properly 2-coloured cycle is the bi-infinite
	// alternating path; views of any node must match the path system.
	c, err := cycleGraph(2, []group.Color{1, 2, 1, 2, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	path, err := colsys.NewPath(2, []group.Color{1, 2}, []group.Color{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < c.N(); v++ {
		view, err := c.View(v, 5)
		if err != nil {
			t.Fatal(err)
		}
		// Node v has colours {1, 2}; depending on parity the two path
		// orientations swap, but the node sees one of them.
		alt, err := colsys.NewPath(2, []group.Color{2, 1}, []group.Color{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		if !colsys.EqualUpTo(view, colsys.Restrict(path, 5), 5) &&
			!colsys.EqualUpTo(view, colsys.Restrict(alt, 5), 5) {
			t.Errorf("node %d: view is not the alternating path", v)
		}
	}
}

func TestViewTruncation(t *testing.T) {
	// Views beyond the graph boundary simply stop: the view of a path
	// endpoint is the one-sided chain.
	p, err := PathGraph(3, []group.Color{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	view, err := p.View(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := colsys.ParseFinite(3, "e, 1, 1·2, 1·2·3")
	if err != nil {
		t.Fatal(err)
	}
	if !colsys.EqualUpTo(view, want, 10) {
		t.Errorf("endpoint view = %v, want %v", view, want)
	}
	if _, err := p.View(99, 1); err == nil {
		t.Error("view centre out of range accepted")
	}
}

func TestNodeAt(t *testing.T) {
	c, err := cycleGraph(2, []group.Color{1, 2, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Walking 1·2 from node 0 goes 0 →(1) 1 →(2) 2.
	if n, ok := c.NodeAt(0, group.Word{1, 2}); !ok || n != 2 {
		t.Errorf("NodeAt(0, 1·2) = %d, %v", n, ok)
	}
	// Walking around the whole cycle returns home.
	if n, ok := c.NodeAt(0, group.Word{1, 2, 1, 2}); !ok || n != 0 {
		t.Errorf("NodeAt(0, full cycle) = %d, %v", n, ok)
	}
	if _, ok := c.NodeAt(0, group.Word{3}); ok {
		t.Error("NodeAt followed a missing colour")
	}
}

func TestFromSystem(t *testing.T) {
	f := colsys.Full(3)
	g, index, err := FromSystem(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N() != group.BallSize(3, 3) {
		t.Errorf("n = %d, want %d", g.N(), group.BallSize(3, 3))
	}
	root := index[group.Identity().Key()]
	if g.Degree(root) != 3 {
		t.Errorf("root degree = %d", g.Degree(root))
	}
	// Round trip: the graph's view of the root matches the system window.
	view, err := g.View(root, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !colsys.EqualUpTo(view, colsys.Restrict(f, 2), 2) {
		t.Error("view of materialised window differs from the system")
	}
}

// TestBridgeSequentialVsViewGreedy connects the machine world to the view
// world: on a tree instance materialised from a finite colour system, the
// global sequential greedy agrees node-by-node with the local view
// evaluator.
func TestBridgeSequentialVsViewGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	viewGreedy := algo.NewGreedy()
	for trial := 0; trial < 40; trial++ {
		k := 3 + rng.Intn(3)
		f := randomFinite(rng, k, 4, 0.6)
		g, index, err := FromSystem(f, 99)
		if err != nil {
			t.Fatal(err)
		}
		outs := SequentialGreedy(g, nil)
		if err := CheckMatching(g, outs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, w := range colsys.Nodes(f, 99) {
			if got, want := viewGreedy.Eval(f, w), outs[index[w.Key()]]; got != want {
				t.Fatalf("trial %d node %v: view greedy %v, sequential %v", trial, w, got, want)
			}
		}
	}
}

func TestCheckMatchingViolations(t *testing.T) {
	p, err := PathGraph(3, []group.Color{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		outs []mm.Output
		prop mm.Property
	}{
		{"M1 non-incident", []mm.Output{mm.Matched(3), mm.Bottom, mm.Bottom}, mm.M1},
		{"M2 unreciprocated", []mm.Output{mm.Matched(1), mm.Bottom, mm.Bottom}, mm.M2},
		{"M3 not maximal", []mm.Output{mm.Bottom, mm.Bottom, mm.Bottom}, mm.M3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := CheckMatching(p, tt.outs)
			var merr *matchingError
			if !errors.As(err, &merr) {
				t.Fatalf("err = %v, want *matchingError", err)
			}
			if merr.Property != tt.prop {
				t.Errorf("property = %v, want %v", merr.Property, tt.prop)
			}
		})
	}

	// Wrong output count.
	if err := CheckMatching(p, nil); err == nil {
		t.Error("nil outputs accepted")
	}

	// Valid matching passes.
	good := []mm.Output{mm.Matched(1), mm.Matched(1), mm.Bottom}
	if err := CheckMatching(p, good); err != nil {
		t.Errorf("valid matching rejected: %v", err)
	}
	edges := MatchingEdges(p, good)
	if len(edges) != 1 || edges[0].Color != 1 {
		t.Errorf("MatchingEdges = %v", edges)
	}
}

func TestRandomMatchingUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(40)
		k := 2 + rng.Intn(5)
		g := RandomMatchingUnion(n, k, 0.8, rng)
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if g.MaxDegree() > k {
			t.Errorf("trial %d: Δ = %d > k = %d", trial, g.MaxDegree(), k)
		}
	}
}

func TestRandomRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g, err := RandomRegular(20, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Errorf("degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
	if _, err := RandomRegular(7, 3, rng); err == nil {
		t.Error("odd n accepted")
	}
	// No simple k-regular graph exists for k ≥ n: the repair must run out
	// of tries and report it, not loop or build a multigraph.
	for _, shape := range [][2]int{{2, 2}, {4, 4}} {
		if _, err := RandomRegular(shape[0], shape[1], rng); err == nil {
			t.Errorf("n=%d k=%d accepted", shape[0], shape[1])
		}
	}
}

func TestSequentialGreedyIsMaximalOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		g := RandomMatchingUnion(30, 5, 0.7, rng)
		outs := SequentialGreedy(g, nil)
		if err := CheckMatching(g, outs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// randomFinite mirrors the helper used in other packages' tests.
func randomFinite(rng *rand.Rand, k, depth int, p float64) *colsys.Finite {
	words := []group.Word{nil}
	frontier := []group.Word{nil}
	for d := 0; d < depth; d++ {
		var next []group.Word
		for _, w := range frontier {
			for c := group.Color(1); int(c) <= k; c++ {
				if c == w.Tail() {
					continue
				}
				if rng.Float64() < p {
					child := w.Append(c)
					words = append(words, child)
					next = append(next, child)
				}
			}
		}
		frontier = next
	}
	f, err := colsys.NewFinite(k, words)
	if err != nil {
		panic("randomFinite: " + err.Error())
	}
	return f
}

func BenchmarkViewExtraction(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := RandomRegular(512, 5, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.View(i%g.N(), 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequentialGreedy(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g, err := RandomRegular(1024, 6, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SequentialGreedy(g, nil)
	}
}

// cycleGraph builds a cycle with the given edge colours; colors[i] joins
// node i and node i+1 mod n.
func cycleGraph(k int, colors []group.Color) (*Graph, error) {
	n := len(colors)
	if n < 3 {
		return nil, fmt.Errorf("graph: cycle needs ≥ 3 edges, got %d", n)
	}
	b := NewCSRBuilder(n, k)
	for i, c := range colors {
		if err := b.AddEdge(i, (i+1)%n, c); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}
