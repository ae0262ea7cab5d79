package runtime

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/mm"
)

// echoMachine halts after a fixed number of rounds, recording everything it
// heard; used to validate engine mechanics independently of any algorithm.
type echoMachine struct {
	rounds   int
	target   int
	heard    []string
	halted   bool
	selfName string
}

func (m *echoMachine) Init(info NodeInfo) {
	m.rounds = 0
	m.halted = m.target == 0
}

func (m *echoMachine) Send(out []Message) {
	for i := range out {
		out[i] = m.selfName
	}
}

func (m *echoMachine) Receive(in []Message) {
	for _, msg := range in {
		if msg != nil {
			m.heard = append(m.heard, msg.(string))
		}
	}
	m.rounds++
	m.halted = m.rounds >= m.target
}

func (m *echoMachine) Halted() bool { return m.halted }

func (m *echoMachine) Output() mm.Output { return mm.Bottom }

// nodeSource is the tests' Source for hand-written machines: every NewPool
// call builds node v's machine with build(v), so each run, engine or
// reference, drives fresh machines.
type nodeSource func(v int) Machine

func (build nodeSource) NewPool(n int) []Machine {
	ms := make([]Machine, n)
	for v := range ms {
		ms[v] = build(v)
	}
	return ms
}

func triangleFree(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.PathGraph(3, []group.Color{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSequentialMechanics(t *testing.T) {
	g := triangleFree(t)
	outs, stats, err := RunWorkersN(g, nil, nodeSource(func(int) Machine { return &echoMachine{target: 2, selfName: "x"} }), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("outs = %v", outs)
	}
	if stats.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", stats.Rounds)
	}
	// Messages: path 0−1−2; per round: node0→1, node1→0, node1→2, node2→1
	// = 4 deliveries; 2 rounds = 8.
	if stats.Messages != 8 {
		t.Errorf("messages = %d, want 8", stats.Messages)
	}
}

func TestHaltAtTimeZero(t *testing.T) {
	g := triangleFree(t)
	outs, stats, err := RunWorkersN(g, nil, nodeSource(func(int) Machine { return &echoMachine{target: 0} }), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 || stats.Rounds != 0 || stats.Messages != 0 || stats.PerRound() != nil {
		t.Errorf("outs=%d rounds=%d messages=%d per-round=%v, want 3/0/0/nil",
			len(outs), stats.Rounds, stats.Messages, stats.PerRound())
	}
}

func TestStaggeredHalting(t *testing.T) {
	// Nodes halt at different rounds; the engine must keep delivering
	// between the surviving nodes, and each node halts at its own target.
	g, err := graph.PathGraph(4, []group.Color{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	targets := []int{1, 3, 2, 4}
	src := nodeSource(func(v int) Machine { return &echoMachine{target: targets[v], selfName: "n"} })
	_, stats, err := RunWorkersN(g, nil, src, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 4 {
		t.Errorf("rounds = %d, want 4", stats.Rounds)
	}
	for v, want := range targets {
		if stats.HaltTimes[v] != want {
			t.Errorf("halt time of %d = %d, want %d", v, stats.HaltTimes[v], want)
		}
	}
	// Path 0−1−2−3 with halts after rounds 1,3,2,4: an edge carries two
	// one-byte messages a round while both ends run, so rounds 1…4 deliver
	// 6, 4, 0 and 0 (from round 3 the live nodes 1 and 3 are not adjacent).
	// The sparse record keeps the two rounds that carried a message, with
	// the 4 and 3 nodes that began them; the dense expansion restores the
	// silent ones, whose Live it leaves at 0.
	sparse := []RoundTraffic{{1, 6, 6, 4}, {2, 4, 4, 3}}
	if !slices.Equal(stats.Traffic, sparse) {
		t.Errorf("traffic record = %v, want %v", stats.Traffic, sparse)
	}
	dense := []RoundTraffic{{1, 6, 6, 4}, {2, 4, 4, 3}, {3, 0, 0, 0}, {4, 0, 0, 0}}
	if !slices.Equal(stats.PerRound(), dense) {
		t.Errorf("per-round traffic = %v, want %v", stats.PerRound(), dense)
	}
}

func TestMaxRoundsExceeded(t *testing.T) {
	g := triangleFree(t)
	src := nodeSource(func(int) Machine { return &echoMachine{target: 99, selfName: "z"} })
	if _, _, err := RunWorkersN(g, nil, src, 5, 1); err == nil ||
		!strings.Contains(err.Error(), "no termination") {
		t.Errorf("sequential err = %v, want termination error", err)
	}
}

func TestDefaultMaxRounds(t *testing.T) {
	g := triangleFree(t)
	if DefaultMaxRounds(g) <= g.K() {
		t.Error("DefaultMaxRounds too small")
	}
}
