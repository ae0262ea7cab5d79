package colsys

import (
	"math/rand"
	"testing"

	"repro/internal/group"
)

// TestQuickCombinatorsPreserveValidity sweeps random finite systems through
// random combinator stacks and verifies the colour-system axioms survive
// every composition — the algebra the adversary builds its systems with.
func TestQuickCombinatorsPreserveValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 120; trial++ {
		k := 3 + rng.Intn(3)
		sys := System(randomFinite(rng, k, 3+rng.Intn(2), 0.7))
		depth := 1 + rng.Intn(4)
		desc := "finite"
		for op := 0; op < depth; op++ {
			switch rng.Intn(3) {
			case 0:
				// Translate to a random member.
				nodes := Nodes(sys, 4)
				u := nodes[rng.Intn(len(nodes))]
				sys = Translate(sys, u)
				desc += "→translate"
			case 1:
				sys = Restrict(sys, rng.Intn(4))
				desc += "→restrict"
			case 2:
				sys = Prune(sys, group.Color(1+rng.Intn(k)))
				desc += "→prune"
			}
			if err := CheckValid(sys, 4); err != nil {
				t.Fatalf("trial %d (%s): %v", trial, desc, err)
			}
		}
	}
}

// TestQuickBallsAreViews: for random systems and member nodes, the ball
// (v̄V)[h] contains exactly the words w with v·w ∈ V and |w| ≤ h.
func TestQuickBallsAreViews(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	for trial := 0; trial < 80; trial++ {
		k := 3 + rng.Intn(3)
		f := randomFinite(rng, k, 4, 0.7)
		nodes := f.Words()
		v := nodes[rng.Intn(len(nodes))]
		h := 1 + rng.Intn(3)
		ball, err := Ball(f, v, h)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, w := range group.Ball(k, h) {
			want := f.Contains(group.Mul(v, w))
			if got := ball.Contains(w); got != want {
				t.Fatalf("trial %d: ball(%v)[%d] wrong at %v: got %v want %v",
					trial, v, h, w, got, want)
			}
		}
	}
}

// TestQuickPruneDegrees: prune(V, c) of a d-regular system keeps interior
// degrees and drops the root's by exactly one (§2.2).
func TestQuickPruneDegrees(t *testing.T) {
	for _, k := range []int{3, 4, 5} {
		full := Full(k)
		for c := group.Color(1); int(c) <= k; c++ {
			p := Prune(full, c)
			if got := Degree(p, group.Identity()); got != k-1 {
				t.Errorf("k=%d c=%v: root degree %d, want %d", k, c, got, k-1)
			}
			for _, w := range Nodes(p, 2) {
				if w.IsIdentity() {
					continue
				}
				if got := Degree(p, w); got != k {
					t.Errorf("k=%d c=%v: deg(%v) = %d, want %d", k, c, w, got, k)
				}
			}
		}
	}
}
