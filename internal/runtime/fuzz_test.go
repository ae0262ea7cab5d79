package runtime

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/mm"
)

// chatterMachine is a randomized-but-deterministic machine: its halting
// round and message pattern derive from a per-node seed, so the engine at
// any worker count and the reference simulator must still agree exactly.
// It exercises staggered halting, selective sending and label plumbing
// under many topologies.
type chatterMachine struct {
	seed    int64
	rng     *rand.Rand
	colors  []group.Color
	label   int
	target  int
	rounds  int
	halted  bool
	counter int
}

func (m *chatterMachine) Init(info NodeInfo) {
	m.rng = rand.New(rand.NewSource(m.seed))
	m.colors = info.Colors
	m.label = info.Label
	m.target = m.rng.Intn(6)
	m.rounds = 0
	m.counter = 0
	m.halted = m.target == 0
}

func (m *chatterMachine) Send(out []Message) {
	for i, c := range m.colors {
		// Send on a pseudo-random subset of edges.
		if m.rng.Intn(2) == 0 {
			out[i] = int(c) + m.label
		}
	}
}

func (m *chatterMachine) Receive(in []Message) {
	// Weighting each payload by its port makes the counter, and so the
	// output, depend on which port a message arrived on, not only on the
	// payloads: an engine that mixes up ports diverges from the reference.
	for i, v := range in {
		if v != nil {
			m.counter += (i + 1) * v.(int)
		}
	}
	m.rounds++
	m.halted = m.rounds >= m.target
}

func (m *chatterMachine) Halted() bool { return m.halted }

func (m *chatterMachine) Output() mm.Output {
	// Encode the accumulated counter (mod palette) so output equality is a
	// strong check of identical message histories.
	return mm.Output{Color: group.Color(m.counter%7 + 1)}
}

func TestEnginesAgreeOnRandomProtocols(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(24)
		k := 2 + rng.Intn(6)
		g := graph.RandomMatchingUnion(n, k, 0.7, rng)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(3)
		}
		seeds := make([]int64, n)
		for i := range seeds {
			seeds[i] = rng.Int63()
		}

		src := nodeSource(func(v int) Machine { return &chatterMachine{seed: seeds[v]} })

		refOuts, refStats, err := RunReference(g, labels, src, 64)
		if err != nil {
			t.Fatalf("trial %d reference: %v", trial, err)
		}
		for _, workers := range []int{1, 2, 3} {
			outs, stats, err := RunWorkersN(g, labels, src, 64, workers)
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if !slices.Equal(outs, refOuts) {
				t.Fatalf("trial %d workers=%d: outputs differ from the reference — message histories diverged", trial, workers)
			}
			if stats.Rounds != refStats.Rounds || stats.Messages != refStats.Messages ||
				!slices.Equal(stats.HaltTimes, refStats.HaltTimes) || !slices.Equal(stats.PerRound(), refStats.PerRound()) ||
				!slices.Equal(stats.Traffic, refStats.Traffic) {
				t.Fatalf("trial %d workers=%d: stats %+v, reference %+v", trial, workers, stats, refStats)
			}
		}
	}
}

// portMachine sends, on every port i, the colour Colors[i] of that port's
// edge, and counts the messages that arrive on a port of another colour.
// Both endpoints of an edge see it under the same colour, so an engine
// that delivers by position must put each message on the port whose
// colour it carries. Nodes halt after 1 + deg mod 3 rounds, so some ports
// fall silent while their peers still run.
type portMachine struct {
	colors []group.Color
	rounds int
	wrong  int
}

func (m *portMachine) Init(info NodeInfo) {
	m.colors = info.Colors
	m.rounds = 0
	m.wrong = 0
}

func (m *portMachine) Send(out []Message) {
	if len(out) != len(m.colors) {
		m.wrong++
	}
	for i, c := range m.colors {
		out[i] = c
	}
}

func (m *portMachine) Receive(in []Message) {
	if len(in) != len(m.colors) {
		m.wrong++
	}
	for i, msg := range in {
		if msg != nil && msg != m.colors[i] {
			m.wrong++
		}
	}
	m.rounds++
}

func (m *portMachine) Halted() bool { return len(m.colors) == 0 || m.rounds > len(m.colors)%3 }

func (m *portMachine) Output() mm.Output { return mm.Bottom }

// TestPortContract pins the port numbering itself: out and in have one
// entry per incident edge, and port i carries the edge of colour
// Colors[i], in the reference simulator and in the engine at workers 1–3.
func TestPortContract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(60)
		g := graph.RandomMatchingUnion(n, 2+rng.Intn(8), 0.7, rng)
		runs := map[string]func(Source) (*Stats, error){
			"reference": func(src Source) (*Stats, error) {
				_, st, err := RunReference(g, nil, src, 16)
				return st, err
			},
		}
		for workers := 1; workers <= 3; workers++ {
			runs[fmt.Sprintf("workers=%d", workers)] = func(src Source) (*Stats, error) {
				_, st, err := RunWorkersN(g, nil, src, 16, workers)
				return st, err
			}
		}
		for name, run := range runs {
			var ms []*portMachine
			st, err := run(nodeSource(func(int) Machine {
				m := &portMachine{}
				ms = append(ms, m)
				return m
			}))
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if g.NumEdges() > 0 && st.Messages == 0 {
				t.Fatalf("trial %d %s: no message delivered", trial, name)
			}
			for v, m := range ms {
				if m.wrong != 0 {
					t.Fatalf("trial %d %s: node %d saw %d port mismatches", trial, name, v, m.wrong)
				}
			}
		}
	}
}
