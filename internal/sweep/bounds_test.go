package sweep

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
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

func (m *chattyMachine) Send(out []runtime.Message) {
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
	for _, v := range check(dist.GreedyContract(g.K()), len(g.Halves()), st) {
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
		Traffic:   []runtime.RoundTraffic{{Round: 1, Messages: 5, Bytes: 5}},
	}
	c := dist.Contract{Algo: "synthetic", MsgsPerEdgeRound: 1}
	vs := check(c, 4, st)
	if len(vs) != 1 || vs[0].Rule != "msgs-per-edge" || vs[0].Got != 5 || vs[0].Limit != 4 {
		t.Fatalf("Check = %v, want one msgs-per-edge violation got 5 limit 4", vs)
	}
}

// TestCheckRejectsMissingHistogram: a run with traffic but no traffic
// record cannot be verified and must not pass silently.
func TestCheckRejectsMissingHistogram(t *testing.T) {
	st := &runtime.Stats{Rounds: 2, Messages: 7, HaltTimes: []int{2}}
	vs := check(dist.GreedyContract(8), 10, st)
	if len(vs) != 1 || vs[0].Limit != 0 {
		t.Fatalf("Check = %v, want one unverifiable-run violation", vs)
	}
	// A genuinely silent run (0 rounds, 0 messages) conforms trivially.
	quiet := &runtime.Stats{HaltTimes: []int{0}}
	if vs := check(dist.GreedyContract(8), 10, quiet); len(vs) != 0 {
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
		if vs := check(a.Contract(g), len(g.Halves()), st); len(vs) != 0 {
			t.Errorf("%s/%s: unexpected violations: %v", sc.Name, tc.algo, vs)
		}
	}
}

// checkDense is the bounds check over the dense per-round histogram: it
// walks every round 1…Rounds, silent ones included, with the live counts
// of a halt-time suffix sum over all rounds. It is the reference the
// sparse check must reproduce.
func checkDense(c dist.Contract, directedEdges int, st *runtime.Stats) []Violation {
	var out []Violation
	if c.MaxRounds > 0 && st.Rounds > c.MaxRounds {
		out = append(out, Violation{Rule: "rounds", Got: st.Rounds, Limit: c.MaxRounds})
	}
	per := st.PerRound()
	if per == nil {
		if st.Messages > 0 {
			out = append(out, Violation{Rule: "msgs-per-node", Got: st.Messages, Limit: 0})
		}
		return out
	}
	rounds := len(per)
	haltAt := make([]int, rounds+1)
	for _, h := range st.HaltTimes {
		if h > rounds {
			h = rounds
		}
		if h > 0 {
			haltAt[h]++
		}
	}
	alive := make([]int, rounds+1)
	for r := rounds; r >= 1; r-- {
		alive[r-1] = alive[r] + haltAt[r]
	}
	for r1, t := range per {
		r := r1 + 1
		if c.MsgsPerNodeRound > 0 {
			if limit := c.MsgsPerNodeRound * alive[r-1]; t.Messages > limit {
				out = append(out, Violation{Rule: "msgs-per-node", Round: r, Got: t.Messages, Limit: limit})
			}
		}
		if c.MsgsPerEdgeRound > 0 {
			if limit := c.MsgsPerEdgeRound * directedEdges; t.Messages > limit {
				out = append(out, Violation{Rule: "msgs-per-edge", Round: r, Got: t.Messages, Limit: limit})
			}
		}
		if c.MaxMessageBytes > 0 {
			if limit := c.MaxMessageBytes * t.Messages; t.Bytes > limit {
				out = append(out, Violation{Rule: "bytes-per-msg", Round: r, Got: t.Bytes, Limit: limit})
			}
		}
	}
	return out
}

// burstMachine talks in bursts: in the rounds its run's schedule marks as
// talking rounds — the same rounds at every node, so the others are
// silent network-wide — it sends on each port with probability 1/2 a
// message of 1–3 wire bytes, and it halts after a per-node number of
// rounds drawn from its label. It exists to give the sparse traffic
// record gaps, staggered halts and oversized messages all at once.
type burstMachine struct {
	trial  uint64
	rng    uint64
	round  int
	target int
	halted bool
}

type sizedMessage int

func (m sizedMessage) WireBytes() int { return int(m) }

func (m *burstMachine) next() uint64 {
	m.rng += 0x9e3779b97f4a7c15
	z := m.rng
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (m *burstMachine) Init(info runtime.NodeInfo) {
	m.rng = m.trial<<32 | uint64(info.Label)
	m.round = 0
	m.target = int(m.next() % 13)
	m.halted = len(info.Colors) == 0 || m.target == 0
}

func (m *burstMachine) Send(out []runtime.Message) {
	if (uint64(m.round+1)*0x9e3779b97f4a7c15^m.trial)%3 != 0 {
		return
	}
	for i := range out {
		if m.next()%2 == 0 {
			out[i] = sizedMessage(1 + m.next()%3)
		}
	}
}

func (m *burstMachine) Receive([]runtime.Message) {
	m.round++
	m.halted = m.round >= m.target
}

func (m *burstMachine) Halted() bool      { return m.halted }
func (m *burstMachine) Output() mm.Output { return mm.Bottom }

// TestCheckSparseMatchesDense runs bursty protocols on random instances
// and requires check, which walks only the recorded rounds, to return
// exactly the violations of the dense reference walk, under contracts
// tight enough that each rule fires across the trials.
func TestCheckSparseMatchesDense(t *testing.T) {
	fired := map[string]int{}
	silent := 0
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		g := graph.RandomMatchingUnion(16+rng.Intn(48), 2+rng.Intn(5), 0.7, rng)
		labels := make([]int, g.N())
		for v := range labels {
			labels[v] = v
		}
		src := runtime.NewPool[burstMachine](g.N(), func(m *burstMachine) { m.trial = uint64(trial) + 1 })
		_, st, err := runtime.RunWorkersN(g, labels, src, 64, 1+trial%3)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		silent += st.Rounds - len(st.Traffic)
		de := len(g.Halves())
		for _, c := range []dist.Contract{
			{MsgsPerNodeRound: 1},
			{MsgsPerEdgeRound: 1},
			{MaxMessageBytes: 2},
			{MsgsPerNodeRound: 1, MsgsPerEdgeRound: 1, MaxMessageBytes: 2, MaxRounds: 6},
		} {
			for _, edges := range []int{de, de / 4} {
				got, want := check(c, edges, st), checkDense(c, edges, st)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d contract %+v edges %d: Check = %v, dense reference = %v", trial, c, edges, got, want)
				}
				for _, v := range got {
					fired[v.Rule]++
				}
			}
		}
	}
	for _, rule := range []string{"msgs-per-node", "msgs-per-edge", "bytes-per-msg", "rounds"} {
		if fired[rule] == 0 {
			t.Errorf("rule %s never fired; the contracts are too loose to test it", rule)
		}
	}
	if silent == 0 {
		t.Error("no run had a silent round; the sparse walk skipped nothing")
	}
	t.Logf("violations by rule: %v; silent rounds: %d", fired, silent)
}
