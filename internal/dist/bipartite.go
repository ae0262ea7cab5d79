package dist

import (
	"repro/internal/group"
	"repro/internal/mm"
	"repro/internal/runtime"
)

// Node sides for bipartiteMachine, passed as runtime.NodeInfo.Label. The
// zero value is white, so unlabeled runs degenerate gracefully.
const (
	sideWhite = 0
	SideBlack = 1
)

// bipartiteMachine is the §1.1 related-work algorithm [6]: maximal matching
// on 2-coloured (bipartite) graphs in O(Δ) rounds. The bipartition is part
// of the input (labels sideWhite/SideBlack), which breaks the symmetry the
// Theorem 5 adversary needs — rounds depend on Δ only, not on k or n.
//
// Rounds alternate: in odd rounds each free white proposes along its next
// untried live edge (in increasing colour order) and beacons "free" on the
// rest; in even rounds each black that received proposals accepts exactly
// one — the least-coloured — and halts, while the proposers read accept
// ("matched"), an explicit "free" ("the black matched elsewhere; edge
// dead") or silence ("the black halted; edge dead"). A white halts ⊥ after
// its last edge fails, a black halts ⊥ when all neighbours have gone
// silent; in both cases every neighbour is matched, so (M3) holds. Each
// attempt costs two rounds and each side has at most Δ edges, so every node
// halts within 2Δ+3 rounds.
type bipartiteMachine struct {
	side    int
	colors  []group.Color
	live    []bool
	nlive   int
	round   int // completed rounds
	next    int // white: first position not yet tried
	cur     int // white: position awaiting a response, -1 if none
	pending int // black: position to accept next round, -1 if none
	halted  bool
	out     mm.Output
}

// NewBipartiteMachinePool returns a pooling-aware runtime.Source backed by
// a fixed arena of n machines reused across runs, like
// NewGreedyMachinePool: Init fully resets a machine while keeping its
// live-edge scratch.
func NewBipartiteMachinePool(n int) runtime.Source {
	return runtime.NewPool[bipartiteMachine](n, nil)
}

// Init implements runtime.Machine.
func (m *bipartiteMachine) Init(info runtime.NodeInfo) {
	m.side = info.Label
	m.colors = info.Colors
	m.live = resetLive(m.live, len(m.colors))
	m.nlive = len(m.colors)
	m.round = 0
	m.next = 0
	m.cur = -1
	m.pending = -1
	m.halted = false
	m.out = mm.Bottom
	if m.nlive == 0 {
		m.halted = true
	}
}

// untried returns the first live position ≥ next, or -1.
func (m *bipartiteMachine) untried() int {
	for i := m.next; i < len(m.colors); i++ {
		if m.live[i] {
			return i
		}
	}
	return -1
}

// Send implements runtime.Machine.
func (m *bipartiteMachine) Send(out []runtime.Message) {
	odd := m.round%2 == 0 // the round being sent is round+1
	special := -1
	var specialMsg runtime.Message
	if m.side == sideWhite && odd {
		if m.cur < 0 {
			m.cur = m.untried()
			if m.cur >= 0 {
				m.next = m.cur + 1
			}
		}
		special, specialMsg = m.cur, msgPropose
	}
	if m.side == SideBlack && !odd && m.pending >= 0 {
		special, specialMsg = m.pending, msgAccept
	}
	for i, ok := range m.live {
		if !ok {
			continue
		}
		if i == special {
			out[i] = specialMsg
		} else {
			out[i] = msgFree
		}
	}
}

// Receive implements runtime.Machine.
func (m *bipartiteMachine) Receive(in []runtime.Message) {
	m.round++
	odd := m.round%2 == 1
	best := -1
	for i, ok := range m.live {
		if !ok {
			continue
		}
		msg := in[i]
		if msg == nil {
			m.live[i] = false
			m.nlive--
			if i == m.cur {
				m.cur = -1 // proposal went into the void
			}
			continue
		}
		switch {
		case m.side == SideBlack && odd && isWire(msg, wirePropose):
			if best < 0 {
				best = i // positions are colour-sorted: first hit is least
			}
		case m.side == sideWhite && !odd && i == m.cur:
			if isWire(msg, wireAccept) {
				m.out = mm.Matched(m.colors[i])
				m.halted = true
				return
			}
			// Explicit "free": the black matched someone else this round.
			m.live[i] = false
			m.nlive--
			m.cur = -1
		}
	}
	if m.side == SideBlack {
		if !odd && m.pending >= 0 {
			// The accept was sent this round; the match is sealed.
			m.out = mm.Matched(m.colors[m.pending])
			m.halted = true
			return
		}
		if odd && best >= 0 {
			m.pending = best
		}
	}
	if m.nlive == 0 && m.cur < 0 && m.pending < 0 {
		m.halted = true // every neighbour is matched: ⊥ is final
	}
}

// Halted implements runtime.Machine.
func (m *bipartiteMachine) Halted() bool { return m.halted }

// Output implements runtime.Machine.
func (m *bipartiteMachine) Output() mm.Output { return m.out }
