package runtime

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/mm"
)

// RunReference is the engine's independent witness: a deliberately naive
// simulator written straight from the model (§1.2). Every round each live
// node fills a fresh colour-indexed buffer, then each live node receives,
// on every incident colour, whatever its peer sent this round. There is no
// slab, frontier, pooling or worker: it shares nothing with RunWorkersN but
// the Machine interface, so agreement between the two is evidence, not
// tautology. It never calls Sleeper.Sleep: every live node runs every
// round, idle or not, so the engine's skipping of sleeping nodes is checked
// against a simulator that skips nothing. It allocates n·(k+1) messages per
// round; use it to cross-check small instances, never to run large ones.
func RunReference(g *graph.Graph, labels []int, src Source, maxRounds int) ([]mm.Output, *Stats, error) {
	if err := checkLabels(g, labels); err != nil {
		return nil, nil, err
	}
	n, k := g.N(), g.K()
	ms := src.NewPool(n)
	st := &Stats{HaltTimes: make([]int, n)}
	live := make([]bool, n)
	for v, m := range ms {
		m.Init(NodeInfo{K: k, Colors: g.IncidentColors(v), Label: labelOf(labels, v)})
		live[v] = !m.Halted()
	}
	for round := 1; slices.Contains(live, true); round++ {
		if round > maxRounds {
			return nil, nil, fmt.Errorf("reference: no termination within %d rounds", maxRounds)
		}
		var arena RoundArena
		sent := make([][]Message, n) // nil for nodes that did not run this round
		for v, m := range ms {
			if live[v] {
				sent[v] = make([]Message, k+1)
				m.Send(sent[v], &arena)
			}
		}
		var rt RoundTraffic
		for v, m := range ms {
			if !live[v] {
				continue
			}
			in := make([]Message, k+1)
			for _, h := range g.Incident(v) {
				if sent[h.Peer] == nil {
					continue
				}
				if msg := sent[h.Peer][h.Color]; msg != nil {
					in[h.Color] = msg
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
		st.PerRound = append(st.PerRound, rt)
	}
	outs := make([]mm.Output, n)
	for v, m := range ms {
		outs[v] = m.Output()
	}
	return outs, st, nil
}
