// Package dist implements the distributed maximal-matching machines of
// Hirvonen & Suomela (PODC 2012) and the §1.1/§1.3 companions, as per-node
// state machines for the runtime engine. Each machine maps to a part of
// the paper:
//
//   - GreedyMachine — the greedy algorithm of §1.2 (Figure 1, Lemma 1):
//     colour classes are processed in increasing order, class c being
//     decided in round c−1 (class 1 at time 0), so the machine halts within
//     k−1 rounds — the bound Theorem 1 proves optimal.
//   - ReducedGreedyMachine — the §1.3 upper-bound regime k ≫ Δ: Linial-style
//     polynomial colour reduction (ReductionSchedule) collapses the palette
//     in O(log* k) rounds, a one-class-per-round recolouring reaches the
//     classical 2Δ−1 palette, and greedy finishes on the reduced palette.
//     TotalRounds predicts the exact round budget.
//   - ProposalMachine — the palette-oblivious baseline contrasted in §1.3
//     (in the spirit of Hoepman's proposal machines): free nodes repeatedly
//     propose along their lowest-coloured live edge and match on mutual
//     proposals. Palette-independent on random instances, Θ(n) on chains,
//     and provably within n rounds on anything (ProposalContract derives
//     the constant; the sweep checker enforces it).
//   - BipartiteMachine — the §1.1 related-work algorithm [6] for 2-coloured
//     graphs: with the bipartition as input (SideWhite/SideBlack labels),
//     whites propose edge by edge and blacks accept, producing a maximal
//     matching in O(Δ) rounds — no Θ(k) barrier, because the side bits break
//     the symmetry the Theorem 5 adversary exploits.
//
// ReduceEdgeColoring runs the reduction pipeline on a whole graph at once
// (the centralized mirror of ReducedGreedyMachine's first two phases),
// reaching a proper (2Δ−1)-edge-colouring in O(log* k) + O(Δ²) rounds.
//
// # Wire discipline and contracts
//
// The machines share a one-byte control vocabulary (free/propose/accept)
// plus the colour-list payload of the reduction phases, and follow
// a strict communication discipline the paper's bounds rest on: greedy
// speaks on at most ONE edge per round, the reduction phases send at most
// one colour list (≤ Δ entries) per directed edge per round, and every
// machine is silent after halting. Contract (GreedyContract,
// ReducedContract, ProposalContract, BipartiteContract) states these
// budgets — per-node and per-edge messages per round, bytes per message,
// rounds per run — as per-instance constants; internal/sweep holds the
// engine's recorded traffic histograms against them, making the bounds
// machine-checked rather than eyeballed.
//
// All machines implement runtime.Machine — send and receive buffers with
// one port per incident edge in colour order, so each machine addresses an
// edge by its position in NodeInfo.Colors, with ReducedGreedyMachine's
// colour list published once per change and sent by pointer — and all are
// deterministic: the engine produces identical outputs and statistics at
// every worker count. Each machine has one Source constructor, New*MachinePool, a
// runtime.Pool whose fixed arena of machines makes repeated runs
// allocation-free; it is the only way to obtain machines for the engine.
package dist
