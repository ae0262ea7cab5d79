package graph

import (
	"math/rand"
	"reflect"
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
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
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
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	b.Reset(3, 2)
	if b.HasEdge(0, 1) || !b.ColorFree(0, 1) || b.Degree(0) != 0 {
		t.Fatal("Reset left state behind")
	}
	if err := b.AddEdge(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.NumEdges() != 1 || g.Degree(1) != 1 {
		t.Fatalf("second build wrong: n=%d m=%d", g.N(), g.NumEdges())
	}
}

// TestFromCSRRejectsBrokenInput feeds fromCSR malformed adjacencies and
// expects errors rather than silently broken graphs.
func TestFromCSRRejectsBrokenInput(t *testing.T) {
	// Asymmetric: node 0 claims a colour-1 edge to 1, node 1 is silent.
	if _, err := fromCSR(2, []int{0, 1, 1}, []Half{{Peer: 1, Color: 1}}); err == nil {
		t.Error("asymmetric adjacency accepted")
	}
	// Improper: colour 1 twice at node 0.
	if _, err := fromCSR(2, []int{0, 2, 3, 4},
		[]Half{{Peer: 1, Color: 1}, {Peer: 2, Color: 1}, {Peer: 0, Color: 1}, {Peer: 0, Color: 1}}); err == nil {
		t.Error("improper colouring accepted")
	}
	// Offsets that do not span the halves.
	if _, err := fromCSR(2, []int{0, 1}, []Half{{Peer: 1, Color: 1}, {Peer: 0, Color: 1}}); err == nil {
		t.Error("short offsets accepted")
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
