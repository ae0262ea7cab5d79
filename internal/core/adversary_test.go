package core

import (
	"errors"
	"testing"

	"repro/internal/algo"
	"repro/internal/colsys"
	"repro/internal/group"
	"repro/internal/mm"
	"repro/internal/template"
)

func newAdversary(t *testing.T, alg mm.Algorithm, k int, opts ...Option) *Adversary {
	t.Helper()
	adv, err := New(alg, k, opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return adv
}

func TestNewValidation(t *testing.T) {
	if _, err := New(algo.NewGreedy(), 2); err == nil {
		t.Error("k = 2 accepted; Theorem 5 needs k ≥ 3")
	}
	if _, err := New(algo.NewGreedy(), 3); err != nil {
		t.Errorf("k = 3 rejected: %v", err)
	}
}

func TestZeroTemplate(t *testing.T) {
	adv := newAdversary(t, algo.NewGreedy(), 4)
	zt, err := adv.ZeroTemplate(2)
	if err != nil {
		t.Fatal(err)
	}
	re := adv.Realisation(zt)
	// The realisation is the (k−1)-regular tree over colours [k] − 2.
	if !colsys.IsRegular(re, 3, 3) {
		t.Error("realisation of (Z, 2̂) is not 3-regular")
	}
	if re.Contains(group.Word{2}) {
		t.Error("realisation contains the forbidden colour at the root")
	}
	for _, c := range []group.Color{1, 3, 4} {
		if !re.Contains(group.Word{c}) {
			t.Errorf("realisation missing colour %v at the root", c)
		}
	}
	if _, err := adv.ZeroTemplate(9); err == nil {
		t.Error("out-of-range zero-template colour accepted")
	}
}

func TestLemma10Greedy(t *testing.T) {
	// For greedy, h(1) = 2 and h(c) = 1 for c ≠ 1 (the root of the
	// realisation of (Z, ĉ) is matched along the smallest available
	// colour). Lemma 10 then lands in its second case with
	// c1 = 1, c2 = 2, c3 = 3 and c4 = h(3) = 1.
	adv := newAdversary(t, algo.NewGreedy(), 4)
	c1, c2, c3, c4, err := adv.Lemma10()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != 1 || c2 != 2 || c3 != 3 || c4 != 1 {
		t.Errorf("Lemma10 = (%v, %v, %v, %v), want (1, 2, 3, 1)", c1, c2, c3, c4)
	}
	// The defining properties, independent of the concrete values:
	if c1 == c2 || c2 == c3 || c1 == c3 {
		t.Error("c1, c2, c3 not distinct")
	}
	if c4 == c2 {
		t.Error("c4 = c2")
	}
}

func TestLemma10Properties(t *testing.T) {
	// The defining properties must hold for any correct algorithm: here
	// greedy with several colour orders.
	orders := [][]group.Color{
		{1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1},
		{2, 5, 1, 4, 3},
	}
	for _, order := range orders {
		g, err := algo.NewGreedyOrder(order)
		if err != nil {
			t.Fatal(err)
		}
		adv := newAdversary(t, g, 5)
		c1, c2, c3, _, err := adv.Lemma10()
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		// A(Z, ĉ1, e) = c2 and A(Z, ĉ3, e) ≠ c2.
		z1, err := adv.ZeroTemplate(c1)
		if err != nil {
			t.Fatal(err)
		}
		if got := adv.EvalTemplate(z1, group.Identity()); got != mm.Matched(c2) {
			t.Errorf("order %v: A(Z, c1̂, e) = %v, want %v", order, got, c2)
		}
		z3, err := adv.ZeroTemplate(c3)
		if err != nil {
			t.Fatal(err)
		}
		if got := adv.EvalTemplate(z3, group.Identity()); got == mm.Matched(c2) {
			t.Errorf("order %v: A(Z, c3̂, e) = c2 = %v", order, c2)
		}
	}
}

func TestBaseCaseGreedy(t *testing.T) {
	adv := newAdversary(t, algo.NewGreedy(), 4, WithParanoia(3))
	pair, err := adv.BaseCase()
	if err != nil {
		t.Fatal(err)
	}
	if pair.H != 1 {
		t.Fatalf("H = %d, want 1", pair.H)
	}
	// S1[1] = T1[1] = {e, c2} with c2 = 2 for greedy.
	want, err := colsys.ParseFinite(4, "e, 2")
	if err != nil {
		t.Fatal(err)
	}
	if !colsys.EqualUpTo(colsys.Restrict(pair.S.System(), 1), want, 2) {
		t.Errorf("S1[1] ≠ {e, 2}")
	}
	if err := adv.VerifyPair(pair, 3); err != nil {
		t.Errorf("VerifyPair: %v", err)
	}
	// Lemma 9 on both sides: no ⊥ outputs on a window (h = 1 < d = 3).
	for _, tpl := range []*template.Template{pair.S, pair.T} {
		for _, w := range colsys.Nodes(tpl.System(), 2) {
			if out := adv.EvalTemplate(tpl, w); !out.IsMatched() {
				t.Errorf("A(·, %v) = ⊥ with h < d, contradicting Lemma 9", w)
			}
		}
	}
}

func TestInductiveStepGreedy(t *testing.T) {
	adv := newAdversary(t, algo.NewGreedy(), 4, WithParanoia(3))
	pair, err := adv.BaseCase()
	if err != nil {
		t.Fatal(err)
	}
	next, err := adv.Inductive(pair)
	if err != nil {
		t.Fatal(err)
	}
	if next.H != 2 {
		t.Fatalf("H = %d, want 2", next.H)
	}
	if err := adv.VerifyPair(next, 3); err != nil {
		t.Errorf("VerifyPair(level 2): %v", err)
	}
	if !next.Chi.Valid(4) {
		t.Errorf("χ = %v invalid", next.Chi)
	}
	if next.Y == nil && !next.Y.IsIdentity() {
		t.Error("Y missing")
	}
}

func TestAdversaryVsGreedy(t *testing.T) {
	for k := 3; k <= 5; k++ {
		adv := newAdversary(t, algo.NewGreedy(), k, WithParanoia(2))
		res, err := adv.Run()
		if err != nil {
			t.Fatalf("k=%d: Run: %v", k, err)
		}
		if len(res.Pairs) != k-1 {
			t.Errorf("k=%d: %d levels, want %d", k, len(res.Pairs), k-1)
		}
		if err := res.Verify(adv); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
		// The headline statement, spelled out:
		if !colsys.EqualUpTo(res.U.System(), res.V.System(), res.D) {
			t.Errorf("k=%d: U[d] ≠ V[d]", k)
		}
		if !res.OutU.IsMatched() || res.OutV.IsMatched() {
			t.Errorf("k=%d: outputs U=%v V=%v, want matched/⊥", k, res.OutU, res.OutV)
		}
	}
}

func TestAdversaryVsGreedyK6(t *testing.T) {
	if testing.Short() {
		t.Skip("k = 6 adversary run is slow; skipped with -short")
	}
	adv := newAdversary(t, algo.NewGreedy(), 6)
	res, err := adv.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.Verify(adv); err != nil {
		t.Error(err)
	}
}

func TestAdversaryVsGreedyOrders(t *testing.T) {
	// The lower bound is algorithm-independent: every colour order of the
	// greedy family is defeated.
	orders := [][]group.Color{
		{4, 3, 2, 1},
		{2, 4, 1, 3},
		{3, 1, 4, 2},
	}
	for _, order := range orders {
		g, err := algo.NewGreedyOrder(order)
		if err != nil {
			t.Fatal(err)
		}
		adv := newAdversary(t, g, 4)
		res, err := adv.Run()
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		if err := res.Verify(adv); err != nil {
			t.Errorf("order %v: %v", order, err)
		}
	}
}

func TestEveryLevelIsCritical(t *testing.T) {
	// Verify (C1)–(C4) at every intermediate level, not only the last.
	adv := newAdversary(t, algo.NewGreedy(), 5)
	res, err := adv.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range res.Pairs {
		if err := adv.VerifyPair(pair, 3); err != nil {
			t.Errorf("level %d: %v", pair.H, err)
		}
	}
}

func TestViewsDifferBeyondD(t *testing.T) {
	// U[d] = V[d] but U ≠ V: the radius-(d+1) balls must differ, otherwise
	// no algorithm could separate them at all.
	adv := newAdversary(t, algo.NewGreedy(), 4)
	res, err := adv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if colsys.EqualUpTo(res.U.System(), res.V.System(), res.D+1) {
		t.Error("U and V agree even at radius d+1; adversary produced identical systems")
	}
}

func TestAdversaryCatchesUnmatched(t *testing.T) {
	adv := newAdversary(t, algo.Unmatched{}, 4)
	_, err := adv.Run()
	var inc *IncorrectnessError
	if !errors.As(err, &inc) {
		t.Fatalf("err = %v, want *IncorrectnessError", err)
	}
	if inc.Evidence == nil {
		t.Fatal("no concrete evidence attached")
	}
	if inc.Evidence.Property != mm.M3 {
		t.Errorf("evidence property = %v, want M3", inc.Evidence.Property)
	}
}

func TestAdversaryCatchesFirstColor(t *testing.T) {
	adv := newAdversary(t, algo.FirstColor{}, 4)
	_, err := adv.Run()
	var inc *IncorrectnessError
	if !errors.As(err, &inc) {
		// FirstColor may also slip through construction and fail the
		// final verification instead.
		t.Fatalf("err = %v, want *IncorrectnessError", err)
	}
}

func TestAdversaryCatchesRestrictedGreedy(t *testing.T) {
	// Theorem 2, contrapositive: an algorithm whose outputs depend only on
	// radius < k−1 cannot find maximal matchings everywhere. The adversary
	// must expose each truncation level, either during construction or at
	// final verification.
	k := 4
	for r := 0; r < k-1; r++ {
		alg := algo.NewRestricted(algo.NewGreedy(), r)
		adv := newAdversary(t, alg, k, withSearchLimit(k+2))
		res, err := adv.Run()
		if err == nil {
			// Construction survived; the headline claim must now fail,
			// because equal radius-d views force equal outputs.
			if verr := res.Verify(adv); verr == nil {
				t.Errorf("r=%d: adversary failed to expose a too-fast algorithm", r)
			}
			continue
		}
		var inc *IncorrectnessError
		if !errors.As(err, &inc) {
			t.Errorf("r=%d: err = %v, want *IncorrectnessError", r, err)
		}
	}
}

func TestLemmaFourGreedy(t *testing.T) {
	w, err := LemmaFour(algo.NewGreedy())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(algo.NewGreedy()); err != nil {
		t.Error(err)
	}
	if w.OutA == w.OutB {
		t.Error("witness outputs equal")
	}
}

func TestLemmaFourCatchesUnmatched(t *testing.T) {
	_, err := LemmaFour(algo.Unmatched{})
	var inc *IncorrectnessError
	if !errors.As(err, &inc) {
		t.Fatalf("err = %v, want *IncorrectnessError", err)
	}
}

func TestResultRealisationsAreValidMatchings(t *testing.T) {
	// Sanity: on the final systems U and V, greedy's outputs satisfy
	// (M1)–(M3) on a window — the adversary found views it cannot
	// distinguish, not an incorrect run.
	adv := newAdversary(t, algo.NewGreedy(), 4)
	res, err := adv.Run()
	if err != nil {
		t.Fatal(err)
	}
	g := algo.NewGreedy()
	if err := mm.Check(g, adv.Realisation(res.U), 3); err != nil {
		t.Errorf("greedy invalid on U: %v", err)
	}
	if err := mm.Check(g, adv.Realisation(res.V), 3); err != nil {
		t.Errorf("greedy invalid on V: %v", err)
	}
}

func TestTraceIsCalled(t *testing.T) {
	var lines int
	adv := newAdversary(t, algo.NewGreedy(), 3, WithTrace(func(string, ...any) { lines++ }))
	if _, err := adv.Run(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Error("trace callback never invoked")
	}
}

func BenchmarkAdversaryGreedy(b *testing.B) {
	for _, k := range []int{3, 4, 5} {
		b.Run("k="+string(rune('0'+k)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				adv, err := New(algo.NewGreedy(), k)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := adv.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// rootOnly answers like greedy at the root of any system but ⊥ everywhere
// else. It is correct at e and broken elsewhere, so the adversary only
// trips over it inside a lazily evaluated picker — exercising the deferred
// error path (note/flush).
type rootOnly struct{ inner mm.Algorithm }

func (r rootOnly) Name() string          { return "root-only" }
func (r rootOnly) RunningTime(k int) int { return r.inner.RunningTime(k) }
func (r rootOnly) Eval(v colsys.System, at group.Word) mm.Output {
	if at.IsIdentity() {
		return r.inner.Eval(v, at)
	}
	return mm.Bottom
}

func TestAdversaryCatchesLazyViolation(t *testing.T) {
	adv := newAdversary(t, rootOnly{inner: algo.NewGreedy()}, 4)
	_, err := adv.Run()
	var inc *IncorrectnessError
	if !errors.As(err, &inc) {
		t.Fatalf("err = %v, want *IncorrectnessError", err)
	}
	if inc.Error() == "" {
		t.Error("empty error string")
	}
	if inc.Evidence == nil {
		t.Error("no concrete evidence attached")
	}
}

func TestAdversaryDeterministic(t *testing.T) {
	// Two independent runs produce identical constructions: same χ, y and
	// side at every level, and the same final systems.
	run := func() *Result {
		adv := newAdversary(t, algo.NewGreedy(), 5)
		res, err := adv.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Pairs) != len(b.Pairs) {
		t.Fatalf("level counts differ: %d vs %d", len(a.Pairs), len(b.Pairs))
	}
	for i := range a.Pairs {
		if a.Pairs[i].Chi != b.Pairs[i].Chi || !a.Pairs[i].Y.Equal(b.Pairs[i].Y) ||
			a.Pairs[i].FromK != b.Pairs[i].FromK {
			t.Errorf("level %d diverged: (%v,%v,%v) vs (%v,%v,%v)",
				a.Pairs[i].H, a.Pairs[i].Chi, a.Pairs[i].Y, a.Pairs[i].FromK,
				b.Pairs[i].Chi, b.Pairs[i].Y, b.Pairs[i].FromK)
		}
	}
	if !colsys.EqualUpTo(a.U.System(), b.U.System(), a.D) ||
		!colsys.EqualUpTo(a.V.System(), b.V.System(), a.D+1) {
		t.Error("final systems differ between runs")
	}
	if a.OutU != b.OutU || a.OutV != b.OutV {
		t.Error("outputs differ between runs")
	}
}

// withSearchLimit caps the norm of the Lemma 12 witness search. The default
// is r + 2 where r is the algorithm's declared running time.
func withSearchLimit(n int) Option {
	return func(a *Adversary) { a.searchLimit = n }
}
