package dist

import (
	"repro/internal/group"
	"repro/internal/mm"
	"repro/internal/runtime"
)

// wire is the tiny control-message vocabulary shared by the machines. The
// values are boxed once into package-level runtime.Message variables so
// sending never allocates.
type wire uint8

const (
	wireFree    wire = iota // "I am alive and unmatched"
	wirePropose             // "match with me along this edge"
	wireAccept              // "I accept your proposal"
)

var (
	msgFree    runtime.Message = wireFree
	msgPropose runtime.Message = wirePropose
	msgAccept  runtime.Message = wireAccept
)

// isWire reports whether msg is the given control message.
func isWire(msg runtime.Message, w wire) bool {
	got, ok := msg.(wire)
	return ok && got == w
}

// resetLive returns an all-true live-edge vector of length n, reusing the
// given buffer's capacity so pooled machines re-initialise without
// allocating.
func resetLive(buf []bool, n int) []bool {
	if cap(buf) < n {
		buf = make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = true
	}
	return buf
}

// GreedyMachine is the distributed greedy algorithm of §1.2. Colour class c
// is decided at time c−1: class 1 pairs match immediately at initialisation,
// and for c ≥ 2 a free node announces "free" along its colour-c edge in
// round c−1, so both endpoints of a colour-c edge learn simultaneously
// whether the other is still free — silence means the peer halted earlier.
// The schedule is faithful to the global sequential greedy process: the
// outputs equal graph.SequentialGreedy's, and the machine halts within k−1
// rounds (exactly k−1 on the §1.2 worst case).
type GreedyMachine struct {
	colors []group.Color // incident colours, ascending
	round  int           // completed rounds
	pos    int           // first position whose colour class is undecided
	halted bool
	out    mm.Output
}

// NewGreedyMachinePool returns a runtime.Source for GreedyMachine backed by
// a fixed arena of n machines reused across runs: Init fully resets a
// machine, so an engine driving an n-node instance repeatedly performs no
// per-node allocation after the first run. The arena grows when a run has
// more nodes.
func NewGreedyMachinePool(n int) runtime.Source {
	return runtime.NewPool[GreedyMachine](n, nil)
}

// Init implements runtime.Machine. A node with a colour-1 edge matches
// along it at time 0 (nothing can block class 1) and halts immediately.
func (m *GreedyMachine) Init(info runtime.NodeInfo) {
	m.colors = info.Colors
	m.round = 0
	m.pos = 0
	m.halted = false
	m.out = mm.Bottom
	if len(m.colors) == 0 {
		m.halted = true
		return
	}
	if m.colors[0] == 1 {
		m.out = mm.Matched(1)
		m.halted = true
	}
}

// decideColor returns the colour class decided in the upcoming receive
// (class round+2, since class c is decided at time c−1), advancing pos past
// already-decided classes, and whether this node has an edge of that class.
func (m *GreedyMachine) decideColor() (group.Color, bool) {
	c := group.Color(m.round + 2)
	for m.pos < len(m.colors) && m.colors[m.pos] < c {
		m.pos++
	}
	return c, m.pos < len(m.colors) && m.colors[m.pos] == c
}

// Send implements runtime.Machine: a free node sends "free" only on the
// edge whose class is decided this round — one port at most.
func (m *GreedyMachine) Send(out []runtime.Message) {
	if _, ok := m.decideColor(); ok {
		out[m.pos] = msgFree
	}
}

// Receive implements runtime.Machine and finishes the round: if this node
// has an edge of the decided class and its peer announced "free", both
// endpoints match along it (the decision is symmetric, hence consistent);
// once the node's largest colour class has been decided, it halts.
func (m *GreedyMachine) Receive(in []runtime.Message) {
	c, has := m.decideColor()
	m.round++
	if has && in[m.pos] != nil {
		m.out = mm.Matched(c)
		m.halted = true
		return
	}
	if m.colors[len(m.colors)-1] <= c {
		m.halted = true // every incident class is decided; output stays ⊥
	}
}

// Sleep implements the runtime's optional sleeper interface. A round that
// decides a class the node has no edge of is idle for it: Send writes
// nothing, and Receive only counts the round (the halt test needs a
// decided class ≥ the node's largest colour, which is still ahead). So the
// node sleeps until the round that decides its next incident class, c−1
// for class c. With k ≫ Δ that skips all but at most Δ of greedy's k−1
// rounds per node.
func (m *GreedyMachine) Sleep() int {
	c, _ := m.decideColor()
	// A running node's largest colour is undecided, so pos is in range.
	s := int(m.colors[m.pos] - c)
	m.round += s
	return s
}

// Halted implements runtime.Machine.
func (m *GreedyMachine) Halted() bool { return m.halted }

// Output implements runtime.Machine.
func (m *GreedyMachine) Output() mm.Output { return m.out }
