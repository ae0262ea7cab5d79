package dist

// Contract states a machine's per-instance communication budget as numbers
// a checker can hold a runtime.Stats against — the machine-checkable form
// of the bounds the paper proves (or documents) for each algorithm. A zero
// field means the corresponding dimension is unbounded for that machine and
// must not be checked. The constructors below are the single source of
// truth for the per-machine constants; internal/sweep evaluates them
// against recorded per-round traffic histograms.
type Contract struct {
	// Algo names the machine the contract describes.
	Algo string
	// MsgsPerNodeRound caps the messages any live node sends in one round
	// (so a round delivers at most MsgsPerNodeRound × live-nodes messages).
	MsgsPerNodeRound int
	// MsgsPerEdgeRound caps the messages crossing any directed edge in one
	// round (so a round delivers at most MsgsPerEdgeRound × 2|E| messages).
	MsgsPerEdgeRound int
	// MaxMessageBytes caps one message's wire size (the runtime's sizer
	// accounting: one byte per control word, 8 bytes per colour-list entry).
	MaxMessageBytes int
	// MaxRounds caps the whole execution's round count.
	MaxRounds int
}

// GreedyContract is the §1.2 greedy budget on a k-coloured instance: a free
// node speaks on at most ONE edge per round (the edge whose colour class is
// being decided), every message is a one-byte control word, and Lemma 1
// bounds the run by k−1 rounds.
func GreedyContract(k int) Contract {
	return Contract{
		Algo:             "greedy",
		MsgsPerNodeRound: 1,
		MsgsPerEdgeRound: 1,
		MaxMessageBytes:  1,
		MaxRounds:        max(0, k-1),
	}
}

// ReducedContract is the §1.3 pipeline budget on a k-coloured instance of
// maximum degree ≤ delta: the reduction and recolouring phases send at most
// one colour list per directed edge per round (so per node at most its
// degree ≤ Δ), a list carries at most Δ colours (8 bytes each), and
// TotalRounds(k, delta) is the exact worst-case round budget — O(log* k)
// reduction steps, the recolouring countdown, then greedy on the ≤ 2Δ−1
// palette.
func ReducedContract(k, delta int) Contract {
	if delta < 1 {
		delta = 1
	}
	return Contract{
		Algo:             "reduced",
		MsgsPerNodeRound: delta,
		MsgsPerEdgeRound: 1,
		MaxMessageBytes:  max(1, 8*delta),
		MaxRounds:        TotalRounds(k, delta),
	}
}

// ProposalContract is the palette-oblivious baseline's budget on n-node
// instances of maximum degree ≤ delta: a free node sends one control word
// on every live edge (a proposal on the least, beacons on the rest), and
// the whole run finishes within n rounds. The round bound is proven, not
// eyeballed:
//
//   - Accurate-view rounds match. Call a node's live view in round r
//     accurate when every position it still marks live joins it to a peer
//     that has not halted (stale positions exist only for peers that
//     halted in round r−1 — their silence is first observed, and the
//     position pruned, during round r's receive). If no node halted in
//     round r−1, every view in round r is accurate; then the globally
//     minimum-coloured edge joining two free nodes is locally minimal at
//     BOTH endpoints (any locally smaller live position would be a
//     smaller live edge), both propose on it, and it matches — at least
//     two nodes halt in round r. Round 1 is always accurate: only
//     isolated nodes halt at time 0 and nobody shares an edge with them.
//   - Charging rounds to halts. Let a count rounds with a match (each
//     halts ≥ 2 nodes), b matchless rounds with at least one
//     silence-driven halt, and e rounds with no halt at all. By the
//     previous point every no-halt round is immediately followed by a
//     match round, so e ≤ a; and the halts are disjoint over the ≤ n
//     participating nodes, so 2a + b ≤ n. The run length is therefore
//     R = a + b + e ≤ 2a + b ≤ n.
//
// The §1.2 two-path instance realises Θ(n) (matches peel off one per
// round along the descending-colour chain — dist tests pin a run past
// n/4), so the linear constant is tight up to the factor the staleness
// argument costs. The sweep checker enforces the bound on every recorded run.
func ProposalContract(n, delta int) Contract {
	if delta < 1 {
		delta = 1
	}
	if n < 0 {
		n = 0
	}
	return Contract{
		Algo:             "proposal",
		MsgsPerNodeRound: delta,
		MsgsPerEdgeRound: 1,
		MaxMessageBytes:  1,
		MaxRounds:        n,
	}
}

// BipartiteContract is the §1.1 two-coloured algorithm's budget on
// instances of maximum degree ≤ delta: each side sends one control word per
// live edge per round, and every node halts within 2Δ+3 rounds (each
// propose/accept attempt costs two rounds and a side has at most Δ edges).
func BipartiteContract(delta int) Contract {
	if delta < 1 {
		delta = 1
	}
	return Contract{
		Algo:             "bipartite",
		MsgsPerNodeRound: delta,
		MsgsPerEdgeRound: 1,
		MaxMessageBytes:  1,
		MaxRounds:        2*delta + 3,
	}
}
