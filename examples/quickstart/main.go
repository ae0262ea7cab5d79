// Quickstart: build a properly edge-coloured graph, run the distributed
// greedy algorithm of Hirvonen & Suomela (PODC 2012, §1.2) on it, and
// validate the resulting maximal matching.
package main

import (
	"fmt"
	"log"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/runtime"
)

func main() {
	// A 6-node, properly 3-edge-coloured graph:
	//
	//	0 ──1── 1 ──2── 2
	//	│               │
	//	3               1
	//	│               │
	//	3 ──2── 4 ──3── 5
	b := graph.NewCSRBuilder(6, 3)
	type edge struct {
		u, v int
		c    group.Color
	}
	for _, e := range []edge{
		{0, 1, 1}, {1, 2, 2}, {0, 3, 3}, {2, 5, 1}, {3, 4, 2}, {4, 5, 3},
	} {
		if err := b.AddEdge(e.u, e.v, e.c); err != nil {
			log.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Run the greedy machine: every node is an anonymous state machine that
	// knows only its incident edge colours.
	outs, stats, err := runtime.RunSequential(g, dist.NewGreedyMachine, runtime.DefaultMaxRounds(g))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("greedy finished in %d rounds (k−1 = %d is the worst case)\n", stats.Rounds, g.K()-1)
	for v, out := range outs {
		fmt.Printf("  node %d: %v\n", v, out)
	}

	// The output encodes a matching: matched nodes name the edge colour,
	// unmatched nodes output ⊥. Validate properties (M1)–(M3) of §2.4.
	if err := graph.CheckMatching(g, outs); err != nil {
		log.Fatalf("invalid matching: %v", err)
	}
	fmt.Printf("matching of %d edges is maximal ✓\n", len(graph.MatchingEdges(g, outs)))
}
