package sweep

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/mm"
	"repro/internal/runtime"
)

// chattyMachine deliberately violates the greedy contract: it shouts a
// fat message on EVERY incident edge for three rounds, then halts. It
// exists to prove the checker actually fires.
type chattyMachine struct {
	rounds int
	halted bool
}

// fatMessage is 9 wire bytes — over greedy's 1-byte budget.
type fatMessage struct{}

func (fatMessage) WireBytes() int { return 9 }

func (m *chattyMachine) Init(info runtime.NodeInfo) {
	m.rounds = 0
	m.halted = len(info.Colors) == 0
}

func (m *chattyMachine) Send(out []runtime.Message, _ *runtime.RoundArena) {
	for i := range out {
		out[i] = fatMessage{}
	}
}

func (m *chattyMachine) Receive([]runtime.Message) {
	m.rounds++
	m.halted = m.rounds >= 3
}

func (m *chattyMachine) Halted() bool      { return m.halted }
func (m *chattyMachine) Output() mm.Output { return mm.Bottom }

// TestCheckFiresOnViolatingMachine runs the chatty machine through a real
// engine and verifies the greedy contract catches it on every dimension it
// breaks: too many messages per node, oversized messages, too many rounds.
func TestCheckFiresOnViolatingMachine(t *testing.T) {
	inst, _, err := gen.BuildSpec("path:n=4,k=3", 1)
	if err != nil {
		t.Fatal(err)
	}
	g := inst.G
	_, st, err := runtime.RunWorkersN(g, nil, runtime.NewPool[chattyMachine](g.N(), nil), 16, 1)
	if err != nil {
		t.Fatal(err)
	}

	byRule := map[string][]Violation{}
	for _, v := range Check(dist.GreedyContract(g.K()), len(g.Halves()), st) {
		byRule[v.Rule] = append(byRule[v.Rule], v)
	}

	// Every round delivers 2|E| = 6 messages against a budget of
	// 1 × (4 live nodes) = 4.
	if vs := byRule["msgs-per-node"]; len(vs) != 3 {
		t.Fatalf("msgs-per-node fired %d times, want every round (3): %v", len(vs), vs)
	} else if vs[0].Round != 1 || vs[0].Got != 6 || vs[0].Limit != 4 {
		t.Errorf("round 1 violation = %+v, want got 6 limit 4", vs[0])
	}
	// 9-byte payloads against the 1-byte control-word budget.
	if vs := byRule["bytes-per-msg"]; len(vs) != 3 {
		t.Errorf("bytes-per-msg fired %d times, want 3: %v", len(vs), vs)
	} else if vs[0].Got != 54 || vs[0].Limit != 6 {
		t.Errorf("byte violation = %+v, want got 54 limit 6", vs[0])
	}
	// Three rounds against Lemma 1's k−1 = 2.
	if vs := byRule["rounds"]; len(vs) != 1 || vs[0].Got != 3 || vs[0].Limit != 2 {
		t.Errorf("rounds violation = %v, want one with got 3 limit 2", vs)
	}
	// One message per directed edge per round is respected even by the
	// chatty machine (the slab engine cannot deliver more), so this rule
	// must stay quiet here.
	if vs := byRule["msgs-per-edge"]; len(vs) != 0 {
		t.Errorf("msgs-per-edge fired unexpectedly: %v", vs)
	}
}

// TestCheckPerEdgeRule drives the per-edge rule with synthetic statistics,
// since the slab engine structurally cannot deliver two messages on one
// directed edge in one round.
func TestCheckPerEdgeRule(t *testing.T) {
	st := &runtime.Stats{
		Rounds:    1,
		Messages:  5,
		HaltTimes: []int{1, 1, 1},
		PerRound:  []runtime.RoundTraffic{{Messages: 5, Bytes: 5}},
	}
	c := dist.Contract{Algo: "synthetic", MsgsPerEdgeRound: 1}
	vs := Check(c, 4, st)
	if len(vs) != 1 || vs[0].Rule != "msgs-per-edge" || vs[0].Got != 5 || vs[0].Limit != 4 {
		t.Fatalf("Check = %v, want one msgs-per-edge violation got 5 limit 4", vs)
	}
}

// TestCheckRejectsMissingHistogram: a run with traffic but no per-round
// histogram cannot be verified and must not pass silently.
func TestCheckRejectsMissingHistogram(t *testing.T) {
	st := &runtime.Stats{Rounds: 2, Messages: 7, HaltTimes: []int{2}}
	vs := Check(dist.GreedyContract(8), 10, st)
	if len(vs) != 1 || vs[0].Limit != 0 {
		t.Fatalf("Check = %v, want one unverifiable-run violation", vs)
	}
	// A genuinely silent run (0 rounds, 0 messages) conforms trivially.
	quiet := &runtime.Stats{HaltTimes: []int{0}}
	if vs := Check(dist.GreedyContract(8), 10, quiet); len(vs) != 0 {
		t.Fatalf("silent run flagged: %v", vs)
	}
}

// TestCheckAcceptsConformingRuns pins the checker's negative direction on
// real executions of every algorithm on an instance it applies to.
func TestCheckAcceptsConformingRuns(t *testing.T) {
	for _, tc := range []struct {
		spec, algo string
	}{
		{"matching-union:n=128,k=6", "greedy"},
		{"matching-union:n=128,k=6", "proposal"},
		{"bounded-degree:n=128,k=64,delta=3", "reduced"},
		{"double-cover:n=64", "bipartite"},
		{"caterpillar:k=8,legs=2", "greedy"},
	} {
		inst, sc, err := gen.BuildSpec(tc.spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		a, ok := AlgoByName(tc.algo)
		if !ok {
			t.Fatalf("unknown algo %s", tc.algo)
		}
		g := inst.G
		_, st, err := runtime.RunWorkersN(g, inst.Labels, a.Source(g), a.MaxRounds(g), 1)
		if err != nil {
			t.Fatalf("%s/%s: %v", sc.Name, tc.algo, err)
		}
		if vs := Check(a.Contract(g), len(g.Halves()), st); len(vs) != 0 {
			t.Errorf("%s/%s: unexpected violations: %v", sc.Name, tc.algo, vs)
		}
	}
}
