package dist

import (
	"repro/internal/group"
	"repro/internal/mm"
	"repro/internal/runtime"
)

// proposalMachine is the palette-oblivious baseline of §1.3's comparison:
// every round each free node proposes along its lowest-coloured live edge
// and keeps the remaining live edges warm with "free" beacons; an edge
// proposed from both sides becomes matched. Silence on an edge means the
// peer halted, so the edge is dead. A locally minimal live edge between two
// free nodes is proposed from both sides, so at least one edge matches
// while any two free neighbours remain — the machine terminates, but needs
// Θ(n) rounds on adversarial chains while being palette-independent on
// random instances (see experiment E11).
type proposalMachine struct {
	colors []group.Color
	live   []bool
	nlive  int
	prop   int // position proposed on this round, -1 if none
	halted bool
	out    mm.Output
}

// NewProposalMachinePool returns a pooling-aware runtime.Source backed by a
// fixed arena of n machines reused across runs, like NewGreedyMachinePool:
// Init fully resets a machine while keeping its live-edge scratch, so
// repeated runs allocate nothing per node.
func NewProposalMachinePool(n int) runtime.Source {
	return runtime.NewPool[proposalMachine](n, nil)
}

// Init implements runtime.Machine. Isolated nodes halt unmatched at time 0.
func (m *proposalMachine) Init(info runtime.NodeInfo) {
	m.colors = info.Colors
	m.live = resetLive(m.live, len(m.colors))
	m.nlive = len(m.colors)
	m.prop = -1
	m.halted = false
	m.out = mm.Bottom
	if m.nlive == 0 {
		m.halted = true
	}
}

// target picks the proposal edge: the live position of least colour
// (positions are colour-sorted).
func (m *proposalMachine) target() int {
	for i, ok := range m.live {
		if ok {
			return i
		}
	}
	return -1
}

// Send implements runtime.Machine: a proposal on the target edge, "free"
// beacons on every other live edge.
func (m *proposalMachine) Send(out []runtime.Message) {
	m.prop = m.target()
	for i, ok := range m.live {
		if !ok {
			continue
		}
		if i == m.prop {
			out[i] = msgPropose
		} else {
			out[i] = msgFree
		}
	}
}

// Receive implements runtime.Machine.
func (m *proposalMachine) Receive(in []runtime.Message) {
	matched := -1
	for i, ok := range m.live {
		if !ok {
			continue
		}
		msg := in[i]
		if msg == nil {
			// Silence: the peer halted; the edge is gone for good.
			m.live[i] = false
			m.nlive--
			continue
		}
		if i == m.prop && isWire(msg, wirePropose) {
			matched = i
		}
	}
	m.prop = -1
	if matched >= 0 {
		m.out = mm.Matched(m.colors[matched])
		m.halted = true
		return
	}
	if m.nlive == 0 {
		m.halted = true // all neighbours matched away: ⊥ is final
	}
}

// Halted implements runtime.Machine.
func (m *proposalMachine) Halted() bool { return m.halted }

// Output implements runtime.Machine.
func (m *proposalMachine) Output() mm.Output { return m.out }
