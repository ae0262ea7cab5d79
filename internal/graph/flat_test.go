package graph

import (
	"math/rand"
	"testing"
)

// TestFlatAdjacency checks the CSR adjacency's structure: ranges, colour
// sorting, Neighbor agreement and mate reciprocity.
func TestFlatAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := RandomMatchingUnion(50, 6, 0.8, rng)
	halves := g.Halves()
	mates := g.Mates()
	if len(mates) != len(halves) {
		t.Fatalf("|mates| = %d, |halves| = %d", len(mates), len(halves))
	}
	total := 0
	for v := 0; v < g.N(); v++ {
		lo, hi := g.HalfRange(v)
		if hi-lo != g.Degree(v) {
			t.Fatalf("node %d: range %d, degree %d", v, hi-lo, g.Degree(v))
		}
		total += hi - lo
		for i := lo; i < hi; i++ {
			h := halves[i]
			if i > lo && halves[i-1].Color >= h.Color {
				t.Fatalf("node %d: halves not strictly colour-sorted", v)
			}
			if peer, ok := g.Neighbor(v, h.Color); !ok || peer != h.Peer {
				t.Fatalf("node %d colour %v: flat peer %d, Neighbor %d (ok=%v)", v, h.Color, h.Peer, peer, ok)
			}
			// The mate is the same edge seen from the peer…
			m := halves[mates[i]]
			if m.Peer != v || m.Color != h.Color {
				t.Fatalf("half %d (%d→%d, %v): mate is (%d→%d, %v)", i, v, h.Peer, h.Color,
					h.Peer, m.Peer, m.Color)
			}
			// …and mating is an involution.
			if mates[mates[i]] != i {
				t.Fatalf("half %d: mate of mate is %d", i, mates[mates[i]])
			}
		}
	}
	if total != len(halves) {
		t.Fatalf("ranges cover %d halves of %d", total, len(halves))
	}
}

// TestIncidentZeroAlloc pins the engines' read path: Incident and
// IncidentColors allocate nothing.
func TestIncidentZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g, err := RandomRegular(64, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		for v := 0; v < g.N(); v++ {
			_ = g.Incident(v)
			_ = g.IncidentColors(v)
		}
	}); a != 0 {
		t.Errorf("Incident+IncidentColors allocate %v per sweep, want 0", a)
	}
}
