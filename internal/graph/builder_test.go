package graph

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/group"
)

// sameCSR asserts the two graphs have byte-identical flat CSR arrays:
// offsets, halves, colors and mates. This is the strongest equivalence two
// constructions can share — not just isomorphic, the same arrays.
func sameCSR(t *testing.T, name string, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.K() != want.K() {
		t.Fatalf("%s: shape (n=%d, k=%d) vs (n=%d, k=%d)", name, got.N(), got.K(), want.N(), want.K())
	}
	if !reflect.DeepEqual(got.flat.offsets, want.flat.offsets) {
		t.Fatalf("%s: offsets differ", name)
	}
	if !reflect.DeepEqual(got.flat.halves, want.flat.halves) {
		t.Fatalf("%s: halves differ", name)
	}
	if !reflect.DeepEqual(got.flat.colors, want.flat.colors) {
		t.Fatalf("%s: colors differ", name)
	}
	if !reflect.DeepEqual(got.flat.mates, want.flat.mates) {
		t.Fatalf("%s: mates differ", name)
	}
}

// TestBuilderValidation checks the builder's invariants and that TryAddEdge
// mirrors AddEdge's refusals as skips.
func TestBuilderValidation(t *testing.T) {
	b := NewCSRBuilder(4, 3)
	for _, bad := range []struct {
		name string
		u, v int
		c    group.Color
	}{
		{"self-loop", 0, 0, 1},
		{"out-of-range peer", 0, 4, 1},
		{"negative endpoint", -1, 0, 1},
		{"colour zero", 0, 1, 0},
		{"out-of-palette colour", 0, 1, 5},
	} {
		if err := b.AddEdge(bad.u, bad.v, bad.c); err == nil {
			t.Errorf("%s accepted by AddEdge", bad.name)
		}
		if b.TryAddEdge(bad.u, bad.v, bad.c) {
			t.Errorf("%s accepted by TryAddEdge", bad.name)
		}
	}
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(0, 2, 1); err == nil {
		t.Error("colour reuse at node 0 accepted")
	}
	if err := b.AddEdge(0, 1, 2); err == nil {
		t.Error("parallel edge accepted")
	}
	if b.TryAddEdge(1, 0, 3) {
		t.Error("TryAddEdge accepted a parallel edge")
	}
	if !b.TryAddEdge(2, 3, 1) {
		t.Error("TryAddEdge rejected a valid edge")
	}
	if b.Degree(0) != 1 || b.NumEdges() != 2 {
		t.Errorf("degree/edge bookkeeping: deg(0)=%d, m=%d", b.Degree(0), b.NumEdges())
	}
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBuilderReset re-uses one builder across two builds and checks the
// second build is unpolluted by the first.
func TestBuilderReset(t *testing.T) {
	b := NewCSRBuilder(6, 2)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	b.Build()
	b.Reset(3, 2)
	if b.HasEdge(0, 1) || !b.ColorFree(0, 1) || b.Degree(0) != 0 {
		t.Fatal("Reset left state behind")
	}
	if err := b.AddEdge(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.N() != 3 || g.NumEdges() != 1 || g.Degree(1) != 1 {
		t.Fatalf("second build wrong: n=%d m=%d", g.N(), g.NumEdges())
	}
}

// TestValidateRejectsBrokenCSR hands Validate in-package Graph literals
// and corruptions of a well-formed graph's arrays, and expects each to be
// refused: Build re-checks nothing, so Validate is the only oracle.
func TestValidateRejectsBrokenCSR(t *testing.T) {
	for name, g := range map[string]*Graph{
		// Node 0 claims a colour-1 edge to 1; node 1 is silent.
		"asymmetric": {n: 2, k: 2, maxDeg: 1, flat: flatAdj{
			offsets: []int{0, 1, 1}, halves: []Half{{Peer: 1, Color: 1}},
			colors: []group.Color{1}, mates: []int{0}}},
		// Colour 1 twice at node 0.
		"improper": {n: 3, k: 2, maxDeg: 2, flat: flatAdj{
			offsets: []int{0, 2, 3, 4},
			halves:  []Half{{Peer: 1, Color: 1}, {Peer: 2, Color: 1}, {Peer: 0, Color: 1}, {Peer: 0, Color: 1}},
			colors:  []group.Color{1, 1, 1, 1}, mates: []int{2, 3, 0, 1}}},
		// Two edges, colours 1 and 2, both joining 0 and 1.
		"parallel": {n: 2, k: 2, maxDeg: 2, flat: flatAdj{
			offsets: []int{0, 2, 4},
			halves:  []Half{{Peer: 1, Color: 1}, {Peer: 1, Color: 2}, {Peer: 0, Color: 1}, {Peer: 0, Color: 2}},
			colors:  []group.Color{1, 2, 1, 2}, mates: []int{2, 3, 0, 1}}},
		// Offsets that do not span the halves.
		"short offsets": {n: 1, k: 2, maxDeg: 1, flat: flatAdj{
			offsets: []int{0, 1}, halves: []Half{{Peer: 1, Color: 1}, {Peer: 0, Color: 1}},
			colors: []group.Color{1, 1}, mates: []int{1, 0}}},
	} {
		if err := g.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// The path 0 −1− 1 −2− 2 −1− 3: halves 0 | 1 2 | 3 4 | 5, colours
	// 1 | 1 2 | 1 2 | 1, mates [1 0 4 5 2 3].
	for name, corrupt := range map[string]func(g *Graph){
		"descending colours": func(g *Graph) {
			g.flat.halves[1], g.flat.halves[2] = g.flat.halves[2], g.flat.halves[1]
			g.flat.colors[1], g.flat.colors[2] = g.flat.colors[2], g.flat.colors[1]
			g.flat.mates[1], g.flat.mates[2] = g.flat.mates[2], g.flat.mates[1]
			g.flat.mates[0], g.flat.mates[4] = 2, 1
		},
		"self-loop":            func(g *Graph) { g.flat.halves[0].Peer = 0 },
		"colors out of step":   func(g *Graph) { g.flat.colors[4] = 1 },
		"mate at own node":     func(g *Graph) { g.flat.mates[1] = 2 },
		"mate out of range":    func(g *Graph) { g.flat.mates[0] = 6 },
		"mate is itself":       func(g *Graph) { g.flat.mates[5] = 5 },
		"mates not involution": func(g *Graph) { g.flat.mates[5] = 4 },
		"mate of another colour": func(g *Graph) {
			g.flat.halves[5].Color, g.flat.colors[5] = 2, 2
		},
		"mate names another owner": func(g *Graph) { g.flat.halves[3].Peer = 0 },
		"stale max degree":         func(g *Graph) { g.maxDeg = 3 },
	} {
		g, err := PathGraph(2, []group.Color{1, 2, 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: well-formed path refused: %v", name, err)
		}
		corrupt(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestBuildLargePaletteAllocs builds a k = 2^30 graph whose edges arrive
// in descending colour order, so Build must sort them, and pins that
// nothing on the way allocates O(k): the colour set falls back to a hash
// set and the sort to a comparison sort of the edge indices.
func TestBuildLargePaletteAllocs(t *testing.T) {
	const k = 1 << 30
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := NewCSRBuilder(3, k)
	for _, e := range []Edge{{0, 1, k}, {1, 2, k - 1}, {0, 2, 7}} {
		if err := b.AddEdge(e.U, e.V, e.Color); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("building 3 edges at k=2^30 allocated %d bytes", d)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	wantHalves := []Half{{2, 7}, {1, k}, {2, k - 1}, {0, k}, {0, 7}, {1, k - 1}}
	if !reflect.DeepEqual(g.flat.offsets, []int{0, 2, 4, 6}) ||
		!reflect.DeepEqual(g.flat.halves, wantHalves) ||
		!reflect.DeepEqual(g.flat.mates, []int{4, 3, 5, 1, 0, 2}) ||
		g.MaxDegree() != 2 {
		t.Errorf("offsets %v halves %v mates %v Δ %d", g.flat.offsets, g.flat.halves, g.flat.mates, g.MaxDegree())
	}
}

// TestGeneratorAllocsBounded pins the builder's allocation profile: each
// random family allocates a fixed handful of slabs per build, independent
// of n. A per-node allocation anywhere in the path would cost thousands.
func TestGeneratorAllocsBounded(t *testing.T) {
	const maxAllocs = 32
	for _, n := range []int{4096, 65536} {
		rng := rand.New(rand.NewSource(1))
		for _, fam := range []struct {
			name  string
			build func()
		}{
			{"matching-union", func() { RandomMatchingUnion(n, 6, 0.7, rng) }},
			{"bounded-degree", func() { RandomBoundedDegree(n, 1024, 3, 5*n, rng) }},
			{"regular", func() {
				if _, err := RandomRegular(n, 3, rng); err != nil {
					t.Fatal(err)
				}
			}},
		} {
			if a := testing.AllocsPerRun(2, fam.build); a > maxAllocs {
				t.Errorf("%s n=%d: %.0f allocations per build, want ≤ %d", fam.name, n, a, maxAllocs)
			} else {
				t.Logf("%s n=%d: %.0f allocations per build", fam.name, n, a)
			}
		}
	}
}
