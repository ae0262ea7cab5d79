package runtime

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/group"
)

// targetEcho builds a Source handing out echoMachines whose halt round is
// a function of the node ID.
func targetEcho(target func(v int) int) Source {
	return nodeSource(func(v int) Machine {
		return &echoMachine{target: target(v), selfName: fmt.Sprintf("m%d", v)}
	})
}

// checkFrontierRun pins RunWorkersN against the reference simulator on
// echo machines that halt after target(v) rounds.
func checkFrontierRun(t *testing.T, name string, g *graph.Graph, target func(v int) int, maxRounds int) *Stats {
	t.Helper()
	return checkAgainstReference(t, name, g, func() Source { return targetEcho(target) }, maxRounds)
}

// checkAgainstReference pins RunWorkersN at several worker counts against
// the reference simulator: outputs, rounds, messages, halt times, per-round
// histogram. newSource is called once per run, so no two runs drive the
// same machines.
func checkAgainstReference(t *testing.T, name string, g *graph.Graph, newSource func() Source, maxRounds int) *Stats {
	t.Helper()
	refOuts, refStats, err := RunReference(g, nil, newSource(), maxRounds)
	if err != nil {
		t.Fatalf("%s/reference: %v", name, err)
	}
	for _, workers := range []int{1, 2, 3, 7} {
		outs, stats, err := RunWorkersN(g, nil, newSource(), maxRounds, workers)
		if err != nil {
			t.Fatalf("%s/workers=%d: %v", name, workers, err)
		}
		for v := range outs {
			if outs[v] != refOuts[v] {
				t.Fatalf("%s/workers=%d node %d: output differs", name, workers, v)
			}
		}
		if stats.Rounds != refStats.Rounds || stats.Messages != refStats.Messages {
			t.Fatalf("%s/workers=%d: rounds/messages %d/%d, reference %d/%d",
				name, workers, stats.Rounds, stats.Messages, refStats.Rounds, refStats.Messages)
		}
		for v := range stats.HaltTimes {
			if stats.HaltTimes[v] != refStats.HaltTimes[v] {
				t.Fatalf("%s/workers=%d: halt time of node %d is %d, reference %d",
					name, workers, v, stats.HaltTimes[v], refStats.HaltTimes[v])
			}
		}
		if len(stats.PerRound) != len(refStats.PerRound) {
			t.Fatalf("%s/workers=%d: %d per-round rows, reference %d",
				name, workers, len(stats.PerRound), len(refStats.PerRound))
		}
		for r := range stats.PerRound {
			if stats.PerRound[r] != refStats.PerRound[r] {
				t.Fatalf("%s/workers=%d round %d: %+v, reference %+v",
					name, workers, r+1, stats.PerRound[r], refStats.PerRound[r])
			}
		}
	}
	return refStats
}

// TestFrontierOddNodeCount: n not a multiple of 64, so the last frontier
// word is partial; halt rounds vary per node to churn the bitset.
func TestFrontierOddNodeCount(t *testing.T) {
	const n = 67 // one full word + a 3-bit tail
	colors := make([]group.Color, n-1)
	for i := range colors {
		colors[i] = group.Color(1 + i%2)
	}
	g, err := graph.PathGraph(4, colors)
	if err != nil {
		t.Fatal(err)
	}
	stats := checkFrontierRun(t, "odd-n", g, func(v int) int { return 1 + v%5 }, 32)
	if stats.Rounds != 5 {
		t.Fatalf("rounds = %d, want 5 (max target)", stats.Rounds)
	}
}

// TestFrontierAllHaltInRoundOne: every node halts after round 1, so round
// 2's frontier is empty in the very first AND-NOT pass.
func TestFrontierAllHaltInRoundOne(t *testing.T) {
	colors := make([]group.Color, 99) // n = 100
	for i := range colors {
		colors[i] = group.Color(1 + i%2)
	}
	g, err := graph.PathGraph(4, colors)
	if err != nil {
		t.Fatal(err)
	}
	stats := checkFrontierRun(t, "all-halt-r1", g, func(int) int { return 1 }, 8)
	if stats.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", stats.Rounds)
	}
	// A path of 99 edges delivers two messages per edge in its one round.
	if stats.Messages != 2*99 {
		t.Fatalf("messages = %d, want %d", stats.Messages, 2*99)
	}
}

// TestFrontierSingleLiveNodeInLastWord: only the highest node ID stays live
// past init, parked in the last (partial) word — the engine must keep
// scanning that word alone until it halts.
func TestFrontierSingleLiveNodeInLastWord(t *testing.T) {
	const n = 130          // words 0,1 full; node 129 is bit 1 of word 2
	g := edgeless(t, n, 8) // everything rides on the frontier alone
	stats := checkFrontierRun(t, "last-word", g, func(v int) int {
		if v == n-1 {
			return 3
		}
		return 0 // halted at init, never enters the frontier
	}, 8)
	if stats.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", stats.Rounds)
	}
	if stats.Messages != 0 {
		t.Fatalf("messages = %d, want 0 (no edges)", stats.Messages)
	}
	for v, h := range stats.HaltTimes {
		want := 0
		if v == n-1 {
			want = 3
		}
		if h != want {
			t.Fatalf("halt time of node %d = %d, want %d", v, h, want)
		}
	}
}

// TestWorkersStateFitZeroesFrontier is the unit half of the pool-reuse fix:
// fit must hand back all-zero frontier words even when a previous (larger)
// run left bits behind — an errored run abandons its frontier mid-round.
func TestWorkersStateFitZeroesFrontier(t *testing.T) {
	st := &workersState{}
	st.fit(200, 2, 4)
	for i := range st.cur {
		st.cur[i] = ^uint64(0)
		st.next[i] = ^uint64(0)
	}
	st.fit(100, 2, 4)
	for i := range st.cur {
		if st.cur[i] != 0 || st.next[i] != 0 {
			t.Fatalf("word %d not zeroed on reuse: cur=%x next=%x", i, st.cur[i], st.next[i])
		}
	}
}

// TestWorkersPoolNoLivenessLeak is the behavioural half: back-to-back
// pooled runs on different graphs, where the second run's init-halted nodes
// sit exactly where the first run's live bits were. A leaked bit would make
// a halted machine execute rounds and corrupt halt times.
func TestWorkersPoolNoLivenessLeak(t *testing.T) {
	big := edgeless(t, 256, 8)
	small := edgeless(t, 100, 8)
	for rep := 0; rep < 3; rep++ {
		if _, _, err := RunWorkersN(big, nil, targetEcho(func(int) int { return 3 }), 10, 3); err != nil {
			t.Fatal(err)
		}
		_, stats, err := RunWorkersN(small, nil, targetEcho(func(v int) int {
			if v == 5 {
				return 2
			}
			return 0
		}), 10, 3)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rounds != 2 || stats.Messages != 0 {
			t.Fatalf("rep %d: rounds/messages = %d/%d, want 2/0", rep, stats.Rounds, stats.Messages)
		}
		for v, h := range stats.HaltTimes {
			want := 0
			if v == 5 {
				want = 2
			}
			if h != want {
				t.Fatalf("rep %d: node %d halt time %d, want %d — liveness leaked across pooled runs", rep, v, h, want)
			}
		}
	}
}
