package dist

import (
	"fmt"
	"sync/atomic"

	"repro/internal/group"
	"repro/internal/mm"
	"repro/internal/runtime"
)

// ReducedGreedyMachine is the §1.3 upper-bound algorithm for the k ≫ Δ
// regime: colour reduction first, greedy after, for a total of
// O(log* k) + O(Δ²) + O(Δ) rounds instead of greedy's Θ(k). It runs in
// three phases, all derived locally from (k, Δ):
//
//  1. Linial reduction (rounds 1…S, S = len(ReductionSchedule)): each round
//     every node sends its full list of current edge colours on every edge;
//     both endpoints of an edge then know all adjacent colours and agree on
//     the edge's next colour via stepColor. The proper colouring invariant
//     is preserved because adjacent edges pick distinguishing evaluation
//     points.
//  2. Recolouring (one round per class, top-down): the edges of the current
//     highest class — a matching, since the colouring is proper — move to
//     the least free colour in 1…2Δ−1, which exists because an edge has at
//     most 2Δ−2 adjacent edges. After this phase the palette is ≤ 2Δ−1.
//  3. Greedy on the reduced palette, exactly like GreedyMachine but on the
//     reduced colours (outputs still name original edge colours): reduced
//     class 1 matches the moment phase 2 ends, class c at relative round
//     c−1.
//
// TotalRounds(k, delta) is the exact worst-case round count. The machine
// requires the instance's maximum degree to be at most delta; it panics
// otherwise, since no conflict-free reduction can exist.
type ReducedGreedyMachine struct {
	delta   int
	colors  []group.Color // original incident colours (ascending); the output vocabulary
	cur     []group.Color // current reduced colour per position
	sent    colorList     // the list the last Send published; see Send
	dirty   bool          // cur has changed since sent was last written
	shared  *sharedSchedule
	sched   []Step        // this run's schedule, read-only and shared by the source's machines
	next    []group.Color // phase-1 scratch: colours after the current step
	blocked []int         // scratch for blockedFor, reused across rounds
	sRounds int           // phase-1 rounds (= len(sched))
	rRounds int           // phase-2 rounds (= fixed-point palette − (2Δ−1), if positive)
	qstar   int           // fixed-point palette after phase 1
	target  int           // 2Δ−1
	maxCur  group.Color   // largest reduced colour, valid once greedy starts
	round   int
	halted  bool
	out     mm.Output
}

// colorList is the message of the reduction rounds: the sender's current
// incident edge colours, in port order. A machine sends a pointer to its
// own published list, so boxing it into the Message interface stores one
// word and never allocates.
type colorList struct {
	colors []group.Color
}

// WireBytes implements runtime.Sizer: one machine word per colour.
func (l *colorList) WireBytes() int { return 8 * len(l.colors) }

// sharedSchedule is the reduction schedule every machine of one source
// reads. The schedule is a pure function of (k, d) that each anonymous node
// would derive locally and identically, so computing it once and handing
// every node the same read-only result changes nothing any node sees — it
// only stops the simulator from repeating identical local work n times per
// run. Entries are immutable: a run whose (k, d) differs from the cached
// entry builds and stores a fresh one, and every caller uses the entry it
// loaded or built, so a racing recompute by concurrent runs on one source
// costs time, never correctness.
type sharedSchedule struct {
	entry atomic.Pointer[scheduleEntry]
}

type scheduleEntry struct {
	k, d  int
	steps []Step
}

// get returns the schedule for palette k and conflict degree d.
func (s *sharedSchedule) get(k, d int) []Step {
	if e := s.entry.Load(); e != nil && e.k == k && e.d == d {
		return e.steps
	}
	e := &scheduleEntry{k: k, d: d, steps: ReductionSchedule(k, d)}
	s.entry.Store(e)
	return e.steps
}

// NewReducedGreedyMachinePool returns a runtime.Source for machines that
// reduce the palette for instances of maximum degree ≤ delta, backed by a
// fixed arena of n machines reused across runs, like NewGreedyMachinePool:
// Init fully resets a machine while keeping its scratch capacity, so
// repeated runs on same-shaped instances allocate nothing per node. The
// arena's machines share one schedule holder, so a run computes the
// reduction schedule once, not once per node, and recomputes it only when
// the palette changes.
func NewReducedGreedyMachinePool(delta, n int) runtime.Source {
	shared := &sharedSchedule{}
	return runtime.NewPool[ReducedGreedyMachine](n, func(m *ReducedGreedyMachine) {
		m.delta = delta
		m.shared = shared
	})
}

// Init implements runtime.Machine. The reduction schedule depends only on
// (k, Δ), so every node would derive the same one; the machine takes it
// from its source's shared holder, which computes it once per palette.
// When no reduction is possible (small k) the machine degenerates to plain
// greedy and class-1 edges match at time 0.
func (m *ReducedGreedyMachine) Init(info runtime.NodeInfo) {
	m.colors = info.Colors
	m.round = 0
	m.halted = false
	m.out = mm.Bottom
	if len(m.colors) == 0 {
		m.halted = true
		return
	}
	d := m.delta
	if d < 1 {
		d = 1
	}
	m.sched = m.shared.get(info.K, 2*(d-1))
	m.sRounds = len(m.sched)
	m.qstar = info.K
	if m.sRounds > 0 {
		m.qstar = m.sched[m.sRounds-1].NewQ
	}
	m.target = 2*d - 1
	m.rRounds = 0
	if m.qstar > m.target {
		m.rRounds = m.qstar - m.target
	}
	m.cur = append(m.cur[:0], m.colors...)
	m.dirty = true
	if m.sRounds+m.rRounds == 0 {
		m.greedyStart()
	}
}

// greedyStart begins phase 3: all nodes are free, so every edge of reduced
// class 1 is matched on the spot.
func (m *ReducedGreedyMachine) greedyStart() {
	m.maxCur = 0
	for i, c := range m.cur {
		if c > m.maxCur {
			m.maxCur = c
		}
		if c == 1 {
			m.out = mm.Matched(m.colors[i])
			m.halted = true
		}
	}
}

// greedyPos returns the position whose reduced class is decided in the
// upcoming receive (class t+1 at relative greedy round t), or -1.
func (m *ReducedGreedyMachine) greedyPos(r int) int {
	c := group.Color(r - m.sRounds - m.rRounds + 1)
	for i, cc := range m.cur {
		if cc == c {
			return i
		}
	}
	return -1
}

// Send implements runtime.Machine. In the reduction phases the node's
// current edge colours go out on every edge as &m.sent, the same payload
// on every edge. sent is rewritten here and only here, and only when cur
// has changed since the last Send: in phase 2 a node's list changes in at
// most Δ of its rounds. Receivers read a payload only inside the Receive
// call that delivered it, and every Receive of a round ends before any
// Send of the next (the engine's round barrier; RunReference's send-all,
// then receive-all rounds), so no peer is reading sent while it changes.
// In the greedy phase a free node sends "free" on the edge whose reduced
// class is decided this round.
func (m *ReducedGreedyMachine) Send(out []runtime.Message) {
	r := m.round + 1
	if r <= m.sRounds+m.rRounds {
		if m.dirty {
			m.sent.colors = append(m.sent.colors[:0], m.cur...)
			m.dirty = false
		}
		msg := runtime.Message(&m.sent)
		for i := range out {
			out[i] = msg
		}
		return
	}
	if i := m.greedyPos(r); i >= 0 {
		out[i] = msgFree
	}
}

// blockedFor collects the colours of all edges adjacent to position i: the
// node's other edges plus the peer's other edges. peer is the peer's full
// list, so exactly one entry — the shared edge's own colour — is dropped.
// The result aliases the machine's reusable scratch buffer and is valid
// until the next call.
func (m *ReducedGreedyMachine) blockedFor(i int, peer []group.Color) []int {
	blocked := m.blocked[:0]
	for j, c := range m.cur {
		if j != i {
			blocked = append(blocked, int(c))
		}
	}
	own := m.cur[i]
	dropped := false
	for _, c := range peer {
		if !dropped && c == own {
			dropped = true
			continue
		}
		blocked = append(blocked, int(c))
	}
	m.blocked = blocked
	return blocked
}

// Receive implements runtime.Machine.
func (m *ReducedGreedyMachine) Receive(in []runtime.Message) {
	r := m.round + 1
	m.round = r
	switch {
	case r <= m.sRounds:
		// Phase 1: one Linial step; every edge recolours simultaneously.
		// The next-colours scratch persists on the machine so pooled runs
		// do not re-allocate it every round.
		st := m.sched[r-1]
		if cap(m.next) < len(m.cur) {
			m.next = make([]group.Color, len(m.cur))
		}
		next := m.next[:len(m.cur)]
		for i := range m.cur {
			nc, ok := stepColor(st, int(m.cur[i]), m.blockedFor(i, peerList(in, i)))
			if !ok {
				panic(fmt.Sprintf("dist: reduction step found no free evaluation point; instance degree exceeds Δ = %d", m.delta))
			}
			next[i] = group.Color(nc)
		}
		copy(m.cur, next)
		m.dirty = true
	case r <= m.sRounds+m.rRounds:
		// Phase 2: the edges of one class — a matching — recolour into the
		// 2Δ−1 palette.
		class := group.Color(m.qstar - (r - m.sRounds) + 1)
		for i := range m.cur {
			if m.cur[i] != class {
				continue
			}
			nc, ok := freeColor(m.target, m.blockedFor(i, peerList(in, i)))
			if !ok {
				panic(fmt.Sprintf("dist: recolouring found no free colour below 2Δ−1; instance degree exceeds Δ = %d", m.delta))
			}
			m.cur[i] = group.Color(nc)
			m.dirty = true
		}
	default:
		// Phase 3: greedy on the reduced palette.
		if i := m.greedyPos(r); i >= 0 {
			if in[i] != nil {
				m.out = mm.Matched(m.colors[i])
				m.halted = true
				return
			}
		}
		if group.Color(r-m.sRounds-m.rRounds+1) >= m.maxCur {
			m.halted = true
		}
		return
	}
	if r == m.sRounds+m.rRounds {
		m.greedyStart()
	}
}

// peerList returns the colour list the peer behind position i published
// this round: the peer's own slice, read in place and valid until this
// Receive returns. During the reduction phases every non-isolated node is
// live, so a missing or malformed message is a protocol violation, not a
// halt signal.
func peerList(in []runtime.Message, i int) []group.Color {
	msg := in[i]
	if msg == nil {
		panic("dist: reduction round missing a neighbour's colour list")
	}
	list, ok := msg.(*colorList)
	if !ok {
		panic("dist: reduction round received a non-colour-list message")
	}
	return list.colors
}

// Halted implements runtime.Machine.
func (m *ReducedGreedyMachine) Halted() bool { return m.halted }

// Output implements runtime.Machine.
func (m *ReducedGreedyMachine) Output() mm.Output { return m.out }
