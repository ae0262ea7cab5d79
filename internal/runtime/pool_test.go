package runtime

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/mm"
)

// poolProbe is a minimal machine recording how it was set up; used to test
// the generic Pool source.
type poolProbe struct {
	tag    int
	inited int
}

func (m *poolProbe) Init(info NodeInfo) { m.inited++ }
func (m *poolProbe) Send([]Message)     {}
func (m *poolProbe) Receive([]Message)  {}
func (m *poolProbe) Halted() bool       { return true }
func (m *poolProbe) Output() mm.Output  { return mm.Bottom }

// TestPoolReusesMachinesAcrossRuns checks the Source contract of Pool: the
// same backing machines and the same boxed slice are handed out run after
// run, setup is applied to every arena slot, and growth re-runs setup.
func TestPoolReusesMachinesAcrossRuns(t *testing.T) {
	p := NewPool[poolProbe](3, func(m *poolProbe) { m.tag = 7 })
	a := p.NewPool(3)
	b := p.NewPool(2)
	if &a[0] != &b[0] || a[0] != b[0] {
		t.Fatal("NewPool did not reuse the boxed slice and machines")
	}
	for i, m := range a {
		if m.(*poolProbe).tag != 7 {
			t.Fatalf("machine %d missed setup", i)
		}
	}
	// Growth must preserve existing machines (their accumulated scratch is
	// the point of pooling) and set up only the added tail.
	a[0].(*poolProbe).inited = 42
	big := p.NewPool(5)
	if len(big) != 5 {
		t.Fatalf("grown pool has %d machines", len(big))
	}
	if big[0].(*poolProbe).inited != 42 {
		t.Fatal("growth discarded existing machine state")
	}
	for i, m := range big {
		if m.(*poolProbe).tag != 7 {
			t.Fatalf("machine %d missed setup after growth", i)
		}
	}
}

// TestEnginesUsePoolBatch drives the engine at one and two workers from
// one Pool and checks each run re-initialises the same machines.
func TestEnginesUsePoolBatch(t *testing.T) {
	g, err := graph.PathGraph(2, []group.Color{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool[poolProbe](3, nil)
	for run := 1; run <= 2; run++ {
		if _, _, err := RunWorkersN(g, nil, p, 8, 1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := RunWorkersN(g, nil, p, 8, 2); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range p.NewPool(3) {
		if m.(*poolProbe).inited != 4 {
			t.Fatalf("machine %d initialised %d times, want 4", i, m.(*poolProbe).inited)
		}
	}
}
