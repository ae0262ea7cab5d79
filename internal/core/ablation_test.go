package core

import (
	"testing"

	"repro/internal/algo"
	"repro/internal/colsys"
	"repro/internal/group"
)

// TestWitnessNormsStaySmall quantifies the Lemma 12 search: the witness y
// is guaranteed within norm r+2, but against greedy it is found at norm ≤ 1
// on every level — the search cost is far below its worst-case bound. This
// is the ablation behind the default withSearchLimit.
func TestWitnessNormsStaySmall(t *testing.T) {
	for k := 3; k <= 6; k++ {
		adv := newAdversary(t, algo.NewGreedy(), k)
		res, err := adv.Run()
		if err != nil {
			t.Fatal(err)
		}
		maxNorm := 0
		for _, pair := range res.Pairs {
			if pair.H == 1 {
				continue
			}
			if n := pair.Y.Norm(); n > maxNorm {
				maxNorm = n
			}
		}
		bound := adv.alg.RunningTime(k) + 2
		if maxNorm > bound {
			t.Errorf("k=%d: witness norm %d beyond the r+2 bound %d", k, maxNorm, bound)
		}
		t.Logf("k=%d: max witness norm %d (guaranteed bound %d)", k, maxNorm, bound)
	}
}

// TestTightSearchLimitSuffices is the ablation's corollary: the adversary
// succeeds against greedy even with the search capped at norm 1.
func TestTightSearchLimitSuffices(t *testing.T) {
	for k := 3; k <= 5; k++ {
		adv := newAdversary(t, algo.NewGreedy(), k, withSearchLimit(1))
		res, err := adv.Run()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := res.Verify(adv); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

// TestZeroSearchLimitFailsGracefully: a search window that cannot contain
// any witness yields the Lemma 12 incorrectness report, not a panic or a
// bogus pair. (Norm 0 only reaches e, which is always matched in X.)
func TestZeroSearchLimitFailsGracefully(t *testing.T) {
	adv := newAdversary(t, algo.NewGreedy(), 4, withSearchLimit(0))
	_, err := adv.Run()
	if err == nil {
		t.Fatal("run succeeded with an empty search window")
	}
}

func BenchmarkAdversaryParanoia(b *testing.B) {
	// Ablation: the cost of re-verifying every intermediate (templates,
	// pickers, compatibility, Corollary 3) versus trusting the
	// construction.
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			adv, err := New(algo.NewGreedy(), 4)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := adv.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("radius2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			adv, err := New(algo.NewGreedy(), 4, WithParanoia(2))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := adv.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEvalTemplate measures a single algorithm evaluation through the
// full lazy stack at the deepest level of the k = 5 construction.
func BenchmarkEvalTemplate(b *testing.B) {
	adv, err := New(algo.NewGreedy(), 5)
	if err != nil {
		b.Fatal(err)
	}
	res, err := adv.Run()
	if err != nil {
		b.Fatal(err)
	}
	nodes := colsys.Nodes(res.V.System(), 3)
	if len(nodes) == 0 {
		b.Fatal("no nodes")
	}
	_ = group.Identity()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv.EvalTemplate(res.V, nodes[i%len(nodes)])
	}
}
