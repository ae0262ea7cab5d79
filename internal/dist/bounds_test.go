package dist

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/runtime"
)

func TestGreedyContract(t *testing.T) {
	c := GreedyContract(6)
	if c.MsgsPerNodeRound != 1 || c.MsgsPerEdgeRound != 1 || c.MaxMessageBytes != 1 {
		t.Errorf("greedy per-round budget wrong: %+v", c)
	}
	if c.MaxRounds != 5 {
		t.Errorf("greedy MaxRounds = %d, want k-1 = 5", c.MaxRounds)
	}
	if got := GreedyContract(1).MaxRounds; got != 0 {
		t.Errorf("k=1 MaxRounds = %d, want 0", got)
	}
}

func TestReducedContractMatchesTotalRounds(t *testing.T) {
	for _, tc := range []struct{ k, delta int }{{6, 2}, {256, 3}, {1024, 4}} {
		c := ReducedContract(tc.k, tc.delta)
		if c.MaxRounds != TotalRounds(tc.k, tc.delta) {
			t.Errorf("k=%d Δ=%d: MaxRounds %d != TotalRounds %d",
				tc.k, tc.delta, c.MaxRounds, TotalRounds(tc.k, tc.delta))
		}
		if c.MsgsPerEdgeRound != 1 {
			t.Errorf("reduced must send at most one colour list per directed edge, got %d", c.MsgsPerEdgeRound)
		}
		if c.MsgsPerNodeRound != tc.delta {
			t.Errorf("reduced per-node budget %d, want Δ=%d", c.MsgsPerNodeRound, tc.delta)
		}
		if c.MaxMessageBytes != 8*tc.delta {
			t.Errorf("reduced message cap %d, want 8Δ=%d", c.MaxMessageBytes, 8*tc.delta)
		}
	}
}

// TestTotalRoundsMeetsLowerBound pins the reduction's round budget against
// Theorem 5: with Δ = k−1 no algorithm finds a maximal matching in fewer
// than k−1 rounds, so a budget below k−1 would claim the impossible. At
// Δ = k−1 the reduction degenerates to greedy and the budget is exactly
// k−1.
func TestTotalRoundsMeetsLowerBound(t *testing.T) {
	for k := 3; k <= 12; k++ {
		if got := TotalRounds(k, k-1); got < k-1 {
			t.Errorf("TotalRounds(%d, %d) = %d, below the Theorem 5 bound k−1 = %d", k, k-1, got, k-1)
		}
	}
}

func TestProposalAndBipartiteContracts(t *testing.T) {
	// The proven proposal round bound is exactly n (see ProposalContract's
	// derivation): a + b + e ≤ 2a + b ≤ n. Pin the constant so a future
	// "tightening" has to re-derive it.
	if c := ProposalContract(10, 3); c.MaxRounds != 10 {
		t.Errorf("proposal MaxRounds = %d, want n = 10", c.MaxRounds)
	}
	if c := ProposalContract(-1, 3); c.MaxRounds != 0 {
		t.Errorf("negative n must clamp to an uncheckable 0, got %d", c.MaxRounds)
	}
	if c := BipartiteContract(4); c.MaxRounds != 11 {
		t.Errorf("bipartite MaxRounds = %d, want 2Δ+3 = 11", c.MaxRounds)
	}
	// Degenerate degree clamps to 1 rather than producing a zero budget
	// that would read as "unbounded".
	if c := BipartiteContract(0); c.MsgsPerNodeRound != 1 || c.MaxRounds != 5 {
		t.Errorf("Δ=0 clamp wrong: %+v", c)
	}
}

// TestProposalRoundBoundTightOnChains runs the proposal machine on the
// §1.2 two-path lower-bound instance: matches peel off the descending-
// colour chain nearly one per round, so the run must land within the
// proven n-round budget while exceeding n/4 — the bound is both sound and
// tight up to a small constant.
func TestProposalRoundBoundTightOnChains(t *testing.T) {
	wc, err := graph.NewWorstCase(48)
	if err != nil {
		t.Fatal(err)
	}
	n := wc.G.N()
	_, st, err := runtime.RunSequential(wc.G, NewProposalMachine, n+8)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds > ProposalContract(n, wc.G.MaxDegree()).MaxRounds {
		t.Fatalf("chain run took %d rounds, proven bound is %d", st.Rounds, n)
	}
	if st.Rounds < n/4 {
		t.Fatalf("chain run took only %d rounds on n=%d; the adversarial instance no longer stresses the bound", st.Rounds, n)
	}
}
