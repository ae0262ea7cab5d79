package dist_test

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/colsys"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/logstar"
	"repro/internal/runtime"
)

// Build a properly edge-coloured graph, run the greedy algorithm of §1.2
// on it, and validate the resulting maximal matching.
func ExampleGreedyMachine() {
	// A 6-node, properly 3-edge-coloured graph:
	//
	//	0 ──1── 1 ──2── 2
	//	│               │
	//	3               1
	//	│               │
	//	3 ──2── 4 ──3── 5
	b := graph.NewCSRBuilder(6, 3)
	for _, e := range [][3]int{{0, 1, 1}, {1, 2, 2}, {0, 3, 3}, {2, 5, 1}, {3, 4, 2}, {4, 5, 3}} {
		if err := b.AddEdge(e[0], e[1], group.Color(e[2])); err != nil {
			log.Fatal(err)
		}
	}
	g := b.Build()

	// Every node is an anonymous state machine that knows only its incident
	// edge colours; one engine worker drives them all.
	outs, stats, err := runtime.RunWorkersN(g, nil, dist.NewGreedyMachinePool(g.N()), runtime.DefaultMaxRounds(g), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greedy finished in %d rounds (k−1 = %d is the worst case)\n", stats.Rounds, g.K()-1)
	for v, out := range outs {
		fmt.Printf("  node %d: %v\n", v, out)
	}

	// Matched nodes name the edge colour, unmatched ones output ⊥.
	// Validate properties (M1)–(M3) of §2.4.
	if err := graph.CheckMatching(g, outs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matching of %d edges is maximal ✓\n", len(graph.MatchingEdges(g, outs)))
	// Output:
	// greedy finished in 1 rounds (k−1 = 2 is the worst case)
	//   node 0: 1
	//   node 1: 1
	//   node 2: 1
	//   node 3: 2
	//   node 4: 2
	//   node 5: 1
	// matching of 3 edges is maximal ✓
}

// The §1.2 lower-bound example for greedy: two edge-coloured paths whose
// endpoints u and v cannot be told apart within k−2 rounds, yet greedy
// matches exactly one of them, so greedy needs k−1 rounds.
func ExampleGreedyMachine_worstCase() {
	const k = 4
	wc, err := graph.NewWorstCase(k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("§1.2 worst case for k = %d:\n", k)
	fmt.Printf("  component 1: u −%d− · −%d− · −%d− · −%d− ·\n", k, k-1, k-2, k-3)
	fmt.Printf("  component 2: v −%d− · −%d− · −%d− ·\n\n", k, k-1, k-2)
	for r := 1; r <= k; r++ {
		vu, err := wc.G.View(wc.U, r)
		if err != nil {
			log.Fatal(err)
		}
		vv, err := wc.G.View(wc.V, r)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  radius-%d views of u and v equal: %v\n", r, colsys.EqualUpTo(vu, vv, r))
	}

	outs, stats, err := runtime.RunWorkersN(wc.G, nil, dist.NewGreedyMachinePool(wc.G.N()), 100, 1)
	if err != nil {
		log.Fatal(err)
	}
	if err := graph.CheckMatching(wc.G, outs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n  greedy rounds: %d (= k−1)\n", stats.Rounds)
	fmt.Printf("  greedy at u: %v\n", outs[wc.U])
	fmt.Printf("  greedy at v: %v\n", outs[wc.V])
	fmt.Println("\ninformation must travel distance k−1 before u and v can diverge:")
	fmt.Println("the greedy algorithm's k−1 rounds are necessary, not just sufficient.")
	// Output:
	// §1.2 worst case for k = 4:
	//   component 1: u −4− · −3− · −2− · −1− ·
	//   component 2: v −4− · −3− · −2− ·
	//
	//   radius-1 views of u and v equal: true
	//   radius-2 views of u and v equal: true
	//   radius-3 views of u and v equal: true
	//   radius-4 views of u and v equal: false
	//
	//   greedy rounds: 3 (= k−1)
	//   greedy at u: ⊥
	//   greedy at v: 4
	//
	// information must travel distance k−1 before u and v can diverge:
	// the greedy algorithm's k−1 rounds are necessary, not just sufficient.
}

// The §1.3 upper-bound regime: with small maximum degree Δ and a huge
// palette k, colour reduction collapses the palette in O(log* k) rounds and
// greedy finishes in rounds that depend only on Δ, far below plain
// greedy's k−1.
func ExampleReducedGreedyMachine() {
	const n, k, delta = 200, 1 << 16, 3
	g := graph.RandomBoundedDegree(n, k, delta, 5*n, rand.New(rand.NewSource(42)))
	fmt.Printf("instance: n = %d, |E| = %d, Δ = %d, palette k = %d (log* k = %d)\n\n",
		g.N(), g.NumEdges(), g.MaxDegree(), k, logstar.LogStar(k))

	fmt.Println("Linial reduction schedule (shared by all nodes):")
	q := k
	for i, step := range dist.ReductionSchedule(k, 2*(delta-1)) {
		fmt.Printf("  round %d: %6d colours → %4d (degree-%d polynomials over F_%d)\n",
			i+1, q, step.NewQ, step.S, step.P)
		q = step.NewQ
	}
	fmt.Printf("  then greedy over the %d remaining colour classes\n\n", q)

	for _, run := range []struct {
		name, note string
		src        runtime.Source
		maxRounds  int
	}{
		{"plain greedy:", fmt.Sprintf("(bound k−1 = %d)", k-1), dist.NewGreedyMachinePool(n), 2 * k},
		{"reduced greedy:", fmt.Sprintf("(predicted ≤ %d)", dist.TotalRounds(k, delta)), dist.NewReducedGreedyMachinePool(delta, n), dist.TotalRounds(k, delta) + 8},
		{"proposal:", "(palette-independent here,", dist.NewProposalMachinePool(n), 4*k + n},
	} {
		outs, stats, err := runtime.RunWorkersN(g, nil, run.src, run.maxRounds, 1)
		if err != nil {
			log.Fatal(err)
		}
		if err := graph.CheckMatching(g, outs); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %6d rounds, %7d messages %s\n", run.name, stats.Rounds, stats.Messages, run.note)
	}
	fmt.Println("                 but Θ(n) on adversarial chains — see experiment E11)")
	// Output:
	// instance: n = 200, |E| = 276, Δ = 3, palette k = 65536 (log* k = 4)
	//
	// Linial reduction schedule (shared by all nodes):
	//   round 1:  65536 colours →  289 (degree-3 polynomials over F_17)
	//   round 2:    289 colours →  121 (degree-2 polynomials over F_11)
	//   then greedy over the 121 remaining colour classes
	//
	// plain greedy:     65296 rounds,     168 messages (bound k−1 = 65535)
	// reduced greedy:     122 rounds,   65150 messages (predicted ≤ 122)
	// proposal:             8 rounds,     900 messages (palette-independent here,
	//                  but Θ(n) on adversarial chains — see experiment E11)
}
