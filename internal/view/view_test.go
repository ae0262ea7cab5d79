package view

import (
	"testing"

	"repro/internal/algo"
	"repro/internal/colsys"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/mm"
)

func mustWord(t *testing.T, s string) group.Word {
	t.Helper()
	w, err := group.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestCanonicalAndEqual(t *testing.T) {
	v, err := colsys.ParseFinite(3, "e, 1, 2, 2·1, 3, 3·1, 3·2")
	if err != nil {
		t.Fatal(err)
	}
	// Figure 2's caption in view language: the radius-1 views of e in V
	// and of 3 in V coincide; the radius-2 views differ.
	c1, err := Canonical(v, group.Identity(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Canonical(v, mustWord(t, "3"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Errorf("radius-1 canonical forms differ: %q vs %q", c1, c2)
	}
	same, err := equal(v, group.Identity(), v, mustWord(t, "3"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if same {
		t.Error("radius-2 views equal, want different")
	}

	if _, err := Canonical(v, mustWord(t, "1·2"), 1); err == nil {
		t.Error("canonical of non-member accepted")
	}
}

func TestCheckIndistinguishableHonoursGreedy(t *testing.T) {
	// Greedy honours its declared running time on the adversary's pair:
	// the crucial radius is d+1 = k, where the views differ.
	adv, err := core.New(algo.NewGreedy(), 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := adv.Run()
	if err != nil {
		t.Fatal(err)
	}
	u := adv.Realisation(res.U)
	v := adv.Realisation(res.V)
	if err := CheckIndistinguishable(algo.NewGreedy(), u, group.Identity(), v, group.Identity()); err != nil {
		t.Errorf("greedy violated locality: %v", err)
	}
}

func TestCheckIndistinguishableCatchesCheater(t *testing.T) {
	// An algorithm that understates its running time is caught: greedy
	// claims r = 0 here, but its outputs on the adversary pair depend on
	// radius d+1.
	adv, err := core.New(algo.NewGreedy(), 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := adv.Run()
	if err != nil {
		t.Fatal(err)
	}
	cheater := understated{inner: algo.NewGreedy()}
	u := adv.Realisation(res.U)
	v := adv.Realisation(res.V)
	if err := CheckIndistinguishable(cheater, u, group.Identity(), v, group.Identity()); err == nil {
		t.Error("understated running time not caught")
	}
}

// understated wraps an algorithm but claims zero running time.
type understated struct{ inner *algo.Greedy }

func (u understated) Name() string        { return "understated(" + u.inner.Name() + ")" }
func (u understated) RunningTime(int) int { return 0 }
func (u understated) Eval(v colsys.System, at group.Word) mm.Output {
	return u.inner.Eval(v, at)
}

func TestEnumerateBallsCounts(t *testing.T) {
	tests := []struct {
		k, d, h int
		want    int
	}{
		// h = 0: only {e}.
		{3, 2, 0, 1},
		// k=3, d=2, h=1: root picks 2 of 3 colours.
		{3, 2, 1, 3},
		// k=3, d=2, h=2: root 3 ways, each of 2 children continues with
		// 1 of 2 remaining colours: 3·2·2.
		{3, 2, 2, 12},
		// k=4, d=3, h=1: C(4,3).
		{4, 3, 1, 4},
		// k=4, d=3, h=2: 4 · (C(3,2))^3.
		{4, 3, 2, 4 * 27},
		// d = k: unique choice at each level.
		{3, 3, 2, 1},
	}
	for _, tt := range tests {
		balls, err := EnumerateBalls(tt.k, tt.d, tt.h)
		if err != nil {
			t.Fatalf("EnumerateBalls(%d,%d,%d): %v", tt.k, tt.d, tt.h, err)
		}
		if len(balls) != tt.want {
			t.Errorf("EnumerateBalls(%d,%d,%d) = %d balls, want %d",
				tt.k, tt.d, tt.h, len(balls), tt.want)
		}
		seen := map[string]bool{}
		for _, b := range balls {
			if err := colsys.CheckValid(b, tt.h+1); err != nil {
				t.Fatalf("ball invalid: %v", err)
			}
			if colsys.Degree(b, group.Identity()) != tt.d && tt.h > 0 {
				t.Fatalf("root degree %d, want %d", colsys.Degree(b, group.Identity()), tt.d)
			}
			key := b.String()
			if seen[key] {
				t.Fatalf("duplicate ball %s", key)
			}
			seen[key] = true
		}
	}

	if _, err := EnumerateBalls(3, 4, 1); err == nil {
		t.Error("d > k accepted")
	}
}

func TestAdversaryBallAppearsInEnumeration(t *testing.T) {
	// The shared radius-d ball U[d] = V[d] produced by the adversary is one
	// of the enumerated d-regular balls — Theorem 5 lives inside Remark 2's
	// neighbourhood-graph node set.
	adv, err := core.New(algo.NewGreedy(), 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := adv.Run()
	if err != nil {
		t.Fatal(err)
	}
	balls, err := EnumerateBalls(3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := colsys.Ball(res.U.System(), group.Identity(), 2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range balls {
		if colsys.EqualUpTo(b, shared, 2) {
			found = true
			break
		}
	}
	if !found {
		t.Error("adversary's shared ball not among the enumerated views")
	}
}
