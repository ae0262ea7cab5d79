package runtime

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/mm"
)

// RunReference is the engine's independent witness: a deliberately naive
// simulator written straight from the model (§1.2). Every round each live
// node fills a fresh buffer with one port per incident edge, then each
// live node receives, on every incident edge, whatever its peer sent on
// the port of the same colour, found by searching the peer's incident
// colours. There is no slab, mate index, frontier, pooling or worker: it
// shares nothing with RunWorkersN but the Machine interface, so agreement
// between the two is evidence, not tautology. It never calls sleeper.Sleep:
// every live node runs every round, idle or not, so the engine's skipping
// of sleeping nodes is checked against a simulator that skips nothing. It
// allocates two messages per directed edge per round, O(m); use it to
// cross-check small instances, never to run large ones.
func RunReference(g *graph.Graph, labels []int, src Source, maxRounds int) ([]mm.Output, *Stats, error) {
	if err := checkLabels(g, labels); err != nil {
		return nil, nil, err
	}
	n := g.N()
	ms := src.NewPool(n)
	st := &Stats{HaltTimes: make([]int, n)}
	live := make([]bool, n)
	for v, m := range ms {
		m.Init(NodeInfo{K: g.K(), Colors: g.IncidentColors(v), Label: labelOf(labels, v)})
		live[v] = !m.Halted()
	}
	for round := 1; slices.Contains(live, true); round++ {
		if round > maxRounds {
			return nil, nil, fmt.Errorf("reference: no termination within %d rounds", maxRounds)
		}
		rt := RoundTraffic{Round: round}
		for _, l := range live {
			if l {
				rt.Live++
			}
		}
		sent := make([][]Message, n) // nil for nodes that did not run this round
		for v, m := range ms {
			if live[v] {
				sent[v] = make([]Message, g.Degree(v))
				m.Send(sent[v])
			}
		}
		for v, m := range ms {
			if !live[v] {
				continue
			}
			in := make([]Message, g.Degree(v))
			for p, h := range g.Incident(v) {
				if sent[h.Peer] == nil {
					continue
				}
				q := slices.Index(g.IncidentColors(h.Peer), h.Color)
				if msg := sent[h.Peer][q]; msg != nil {
					in[p] = msg
					rt.Messages++
					rt.Bytes += messageBytes(msg)
				}
			}
			m.Receive(in)
			if m.Halted() {
				live[v] = false
				st.HaltTimes[v] = round
			}
		}
		st.Rounds = round
		st.Messages += rt.Messages
		if rt.Messages > 0 {
			st.Traffic = append(st.Traffic, rt)
		}
	}
	outs := make([]mm.Output, n)
	for v, m := range ms {
		outs[v] = m.Output()
	}
	return outs, st, nil
}
