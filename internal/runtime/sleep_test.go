package runtime

import (
	"math/rand"
	goruntime "runtime"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/mm"
)

// edgeActive is the shared wake schedule of sleepyMachine: the colour-c
// edge carries traffic in round r iff this hash of (c, r, seed) says so.
// Both endpoints of an edge evaluate the same function, so they wake
// together and no message ever reaches a sleeping node. Rounds up to
// seed%4 are silent everywhere, so some seeds put every node to sleep at
// Init and the engine must fast-forward before round 1.
func edgeActive(c group.Color, r int, seed uint64) bool {
	if r <= int(seed%4) {
		return false
	}
	h := (uint64(c)*0x9e3779b97f4a7c15 ^ uint64(r)*0xc2b2ae3d27d4eb4f ^ seed) * 0x165667b19e3779f9
	return h>>60 < 3 || (r+int(c))%16 == 0
}

// sleepyMsg is sleepyMachine's payload; its size varies so the byte
// column of the traffic histogram is exercised too.
type sleepyMsg struct{ v uint64 }

func (m *sleepyMsg) WireBytes() int { return 1 + int(m.v%7) }

// sleepyMachine sends along the edges active this round, folds what it
// hears into a digest, and halts after the first round at or past its stop
// round in which one of its edges was active. Its only change in a silent
// round is the round count, which is what lets it sleep. It does not
// always sleep through a whole silent gap: depending on its digest it
// sleeps half of it, or (once past Init) not at all, so the engine also
// runs it through silent rounds and wakes it into them.
type sleepyMachine struct {
	seed   uint64
	stop   int
	colors []group.Color
	round  int // completed rounds
	acc    uint64
	halted bool
}

func (m *sleepyMachine) Init(info NodeInfo) {
	m.colors = info.Colors
	m.round = 0
	m.acc = uint64(len(info.Colors)) + m.seed
	m.halted = m.stop == 0 || len(m.colors) == 0
}

// active reports whether one of the node's edges carries traffic in r.
func (m *sleepyMachine) active(r int) bool {
	for _, c := range m.colors {
		if edgeActive(c, r, m.seed) {
			return true
		}
	}
	return false
}

func (m *sleepyMachine) Send(out []Message) {
	for i, c := range m.colors {
		if edgeActive(c, m.round+1, m.seed) {
			out[i] = &sleepyMsg{v: m.acc + uint64(c)}
		}
	}
}

func (m *sleepyMachine) Receive(in []Message) {
	m.round++
	for _, msg := range in {
		if msg != nil {
			m.acc = m.acc*31 + msg.(*sleepyMsg).v
		}
	}
	if m.round >= m.stop && m.active(m.round) {
		m.halted = true
	}
}

func (m *sleepyMachine) Sleep() int {
	gap := 0
	for !m.active(m.round + gap + 1) {
		gap++
	}
	switch {
	case m.acc%3 == 0 && m.round > 0:
		gap = 0
	case m.acc%3 == 1:
		gap /= 2
	}
	m.round += gap
	return gap
}

func (m *sleepyMachine) Halted() bool { return m.halted }

func (m *sleepyMachine) Output() mm.Output {
	if m.acc%5 == 0 || len(m.colors) == 0 {
		return mm.Bottom
	}
	return mm.Matched(m.colors[m.acc%uint64(len(m.colors))])
}

// sleepySource hands out sleepyMachines whose stop rounds are fixed per
// node, so the engine and the reference simulator drive identical nodes.
type sleepySource struct {
	seed  uint64
	stops []int
}

func (s sleepySource) NewPool(n int) []Machine {
	ms := make([]Machine, n)
	for v := range ms {
		ms[v] = &sleepyMachine{seed: s.seed, stop: s.stops[v]}
	}
	return ms
}

// TestSleepyProtocolMatchesReference drives a random protocol whose nodes
// sleep through their silent rounds, at workers 1, 2, 3 and 7 under
// one-word chunks and scheduler yields between claims, and demands the
// reference simulator's exact results: the wake set is decided by each
// node's owning worker and merged under the barrier lock, so no claim
// schedule can change it.
func TestSleepyProtocolMatchesReference(t *testing.T) {
	defer SetStealChunkWords(1)()
	defer SetStealYield(goruntime.Gosched)()
	seeds := 8
	if testing.Short() {
		seeds = 4
	}
	skipped := 0
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 200 + rng.Intn(200)
		g := graph.RandomMatchingUnion(n, 6, 0.6, rng)
		stops := make([]int, n)
		for v := range stops {
			stops[v] = rng.Intn(40)
		}
		src := sleepySource{seed: uint64(seed), stops: stops}
		ref := checkAgainstReference(t, "sleepy", g, func() Source { return src }, 200)
		if ref.Messages == 0 {
			t.Fatalf("seed %d: no traffic; the protocol is degenerate", seed)
		}
		for _, rt := range ref.PerRound() {
			if rt.Messages == 0 {
				skipped++
			}
		}
	}
	// Silent rounds are what the engine skips; make sure the schedule has
	// some, or the test pins nothing the frontier did not already.
	if skipped == 0 {
		t.Fatal("no silent rounds across all seeds")
	}
}

// sendToSleeper violates the sleeper contract: even nodes sleep through
// rounds 1 and 2 while odd nodes keep sending to them.
type sendToSleeper struct {
	even  bool
	round int
}

func (m *sendToSleeper) Init(NodeInfo) { m.round = 0 }

func (m *sendToSleeper) Send(out []Message) {
	if !m.even {
		for i := range out {
			out[i] = "hello"
		}
	}
}

func (m *sendToSleeper) Receive([]Message) { m.round++ }

func (m *sendToSleeper) Sleep() int {
	if m.even && m.round == 0 {
		m.round = 2
		return 2
	}
	return 0
}

func (m *sendToSleeper) Halted() bool      { return m.round >= 4 }
func (m *sendToSleeper) Output() mm.Output { return mm.Bottom }

// TestSleepContractViolation: a message sent to a sleeping node must fail
// the run at every worker count, never vanish — the reference simulator
// would have delivered and counted it.
func TestSleepContractViolation(t *testing.T) {
	colors := make([]group.Color, 199) // n = 200
	for i := range colors {
		colors[i] = group.Color(1 + i%2)
	}
	g, err := graph.PathGraph(2, colors)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3} {
		src := nodeSource(func(v int) Machine { return &sendToSleeper{even: v%2 == 0} })
		_, _, err := RunWorkersN(g, nil, src, 10, workers)
		if err == nil || !strings.Contains(err.Error(), "asleep") {
			t.Fatalf("workers=%d: err = %v, want a message-while-asleep error", workers, err)
		}
	}
}

// sleepEcho is an echoMachine that, once it has completed sleepAt rounds,
// sleeps for sleepFor of them. On an edgeless graph an echo node's rounds
// are silent, so the sleep is within the contract.
type sleepEcho struct {
	echoMachine
	sleepAt, sleepFor int
}

func (m *sleepEcho) Sleep() int {
	if m.sleepFor == 0 || m.rounds != m.sleepAt {
		return 0
	}
	m.rounds += m.sleepFor
	return m.sleepFor
}

// TestSleepStaleFrontierWord is the regression for the widened scan
// window. Node 129 — the only live node in the last frontier word besides
// 128 — sleeps after round 1 until round 4; node 128 halts after round 2,
// so round 3 scans only words 0–1 and leaves the last word of its output
// buffer as round 1 wrote it, bit 128 included. Waking 129 widens the
// window back over that word; unless the engine zeroes it first, the
// halted node 128 runs again.
func TestSleepStaleFrontierWord(t *testing.T) {
	const n = 130
	g := edgeless(t, n, 4)
	newSource := func() Source {
		return nodeSource(func(v int) Machine {
			m := &sleepEcho{echoMachine: echoMachine{target: 6}}
			switch v {
			case 128:
				m.target = 2
			case 129:
				m.target, m.sleepAt, m.sleepFor = 5, 1, 2
			}
			return m
		})
	}
	ref := checkAgainstReference(t, "stale-word", g, newSource, 10)
	if ref.HaltTimes[128] != 2 || ref.HaltTimes[129] != 5 || ref.Rounds != 6 {
		t.Fatalf("halt times %d/%d, %d rounds: the scenario no longer parks 129 past 128's halt",
			ref.HaltTimes[128], ref.HaltTimes[129], ref.Rounds)
	}
}

// TestSleepFastForward: every node sleeps through rounds 1–5 or more, so
// the engine starts with an empty frontier, skips straight to the first
// wakeup and must still emit one empty row per skipped round.
func TestSleepFastForward(t *testing.T) {
	const n = 70
	g := edgeless(t, n, 4)
	newSource := func() Source {
		return nodeSource(func(v int) Machine {
			return &sleepEcho{echoMachine: echoMachine{target: 8 + v%5}, sleepAt: 0, sleepFor: 5 + v%3}
		})
	}
	st := checkAgainstReference(t, "fast-forward", g, newSource, 20)
	if st.Rounds != 12 || len(st.PerRound()) != 12 {
		t.Fatalf("rounds/rows = %d/%d, want 12/12", st.Rounds, len(st.PerRound()))
	}
	// Beyond maxRounds the fast-forward must report non-termination, not
	// skip past the budget.
	if _, _, err := RunWorkersN(g, nil, newSource(), 4, 2); err == nil || !strings.Contains(err.Error(), "no termination") {
		t.Fatalf("err = %v, want termination error", err)
	}
}
