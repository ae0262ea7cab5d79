package dist

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/runtime"
)

// TestReducedPublishedLists drives ReducedGreedyMachine by hand through
// every reduction round, sending and delivering like RunReference, and
// checks the published-list protocol the engine relies on:
//   - every port carries the sender's own list, &sent;
//   - once every node has sent, each list holds exactly its sender's
//     current colours, at 8 wire bytes per colour, so a receiver reads
//     what a copy sent by value would hold and no two nodes' lists share
//     storage;
//   - no list changes during a receive phase, while peers read it in place.
func TestReducedPublishedLists(t *testing.T) {
	const delta = 3
	g := graph.RandomBoundedDegree(64, 256, delta, 300, rand.New(rand.NewSource(7)))
	n := g.N()
	ms := NewReducedGreedyMachinePool(delta, n).NewPool(n)
	rm := make([]*ReducedGreedyMachine, n)
	rounds := 0
	for v, m := range ms {
		m.Init(runtime.NodeInfo{K: g.K(), Colors: g.IncidentColors(v)})
		rm[v] = m.(*ReducedGreedyMachine)
		if !m.Halted() {
			rounds = max(rounds, rm[v].sRounds+rm[v].rRounds)
		}
	}
	if rounds < 2 {
		t.Fatalf("instance has %d reduction rounds; the test needs both phases", rounds)
	}
	for round := 1; round <= rounds; round++ {
		sent := make([][]runtime.Message, n)
		for v, m := range rm {
			if m.Halted() {
				continue
			}
			sent[v] = make([]runtime.Message, g.Degree(v))
			m.Send(sent[v])
			for p, msg := range sent[v] {
				if l, ok := msg.(*colorList); !ok || l != &m.sent {
					t.Fatalf("round %d node %d port %d: sent %T %p, want the machine's own list %p", round, v, p, msg, msg, &m.sent)
				}
			}
		}
		// Checked after every node has sent, so a list whose storage
		// another node's Send overwrote shows up here too.
		snap := make([][]group.Color, n)
		for v, m := range rm {
			if sent[v] == nil {
				continue
			}
			if !slices.Equal(m.sent.colors, m.cur) {
				t.Fatalf("round %d node %d: published %v, current colours %v", round, v, m.sent.colors, m.cur)
			}
			if got := m.sent.WireBytes(); got != 8*len(m.cur) {
				t.Fatalf("round %d node %d: WireBytes %d, want %d", round, v, got, 8*len(m.cur))
			}
			snap[v] = slices.Clone(m.sent.colors)
		}
		for v, m := range rm {
			if sent[v] == nil {
				continue
			}
			in := make([]runtime.Message, g.Degree(v))
			for p, h := range g.Incident(v) {
				q := slices.Index(g.IncidentColors(h.Peer), h.Color)
				in[p] = sent[h.Peer][q]
			}
			m.Receive(in)
		}
		for v, m := range rm {
			if sent[v] != nil && !slices.Equal(m.sent.colors, snap[v]) {
				t.Fatalf("round %d node %d: published list changed during the receive phase: %v, sent %v", round, v, m.sent.colors, snap[v])
			}
		}
	}
}
