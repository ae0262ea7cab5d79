package runtime

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/group"
)

// TestWorkersMatchSequentialMechanics drives the echoMachine through the
// engine at several worker counts and compares against the reference
// simulator.
func TestWorkersMatchSequentialMechanics(t *testing.T) {
	g := triangleFree(t)
	factory := Factory(func() Machine { return &echoMachine{target: 3, selfName: "w"} })
	_, refStats, err := RunReference(g, nil, factory, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		_, wStats, err := RunWorkersN(g, nil, factory, 10, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if wStats.Rounds != refStats.Rounds || wStats.Messages != refStats.Messages {
			t.Errorf("workers=%d: stats %+v, want %+v", workers, wStats, refStats)
		}
	}
}

// TestWorkersStaggeredHalting mirrors TestStaggeredHalting at two workers,
// including per-node halt times, against the reference simulator.
func TestWorkersStaggeredHalting(t *testing.T) {
	g, err := graph.PathGraph(4, []group.Color{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	targets := []int{1, 3, 2, 4}
	factoryFor := func() Factory {
		i := 0
		return func() Machine {
			m := &echoMachine{target: targets[i%4], selfName: "n"}
			i++
			return m
		}
	}
	_, refStats, err := RunReference(g, nil, factoryFor(), 10)
	if err != nil {
		t.Fatal(err)
	}
	_, wStats, err := RunWorkersN(g, nil, factoryFor(), 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if wStats.Rounds != refStats.Rounds {
		t.Errorf("rounds: workers %d, reference %d", wStats.Rounds, refStats.Rounds)
	}
	for v := range refStats.HaltTimes {
		if refStats.HaltTimes[v] != wStats.HaltTimes[v] {
			t.Errorf("halt time of %d: workers %d, reference %d", v, wStats.HaltTimes[v], refStats.HaltTimes[v])
		}
	}
}

// TestWorkersHaltAtTimeZero: machines that halt during Init produce a
// zero-round, zero-message run.
func TestWorkersHaltAtTimeZero(t *testing.T) {
	g := triangleFree(t)
	_, stats, err := RunWorkers(g, Factory(func() Machine { return &echoMachine{target: 0} }), 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 0 || stats.Messages != 0 {
		t.Errorf("rounds=%d messages=%d, want 0/0", stats.Rounds, stats.Messages)
	}
}

// TestWorkersMaxRoundsExceeded: the engine reports non-termination at more
// than one worker too.
func TestWorkersMaxRoundsExceeded(t *testing.T) {
	g := triangleFree(t)
	factory := Factory(func() Machine { return &echoMachine{target: 99, selfName: "z"} })
	if _, _, err := RunWorkersN(g, nil, factory, 5, 2); err == nil ||
		!strings.Contains(err.Error(), "no termination") {
		t.Errorf("err = %v, want termination error", err)
	}
}

// edgeless builds an n-node graph with palette 1…k and no edges.
func edgeless(t *testing.T, n, k int) *graph.Graph {
	t.Helper()
	g, err := graph.NewCSRBuilder(n, k).Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestWorkersEmptyGraph: a zero-node instance runs to completion.
func TestWorkersEmptyGraph(t *testing.T) {
	g := edgeless(t, 0, 3)
	outs, stats, err := RunWorkers(g, Factory(func() Machine { return &echoMachine{} }), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 0 || stats.Rounds != 0 {
		t.Errorf("outs=%v stats=%+v", outs, stats)
	}
}
