package dist_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// TestPooledStateReuseAcrossRuns drives the engine back-to-back over graphs
// of different n and k with machine pools shared across runs, and asserts
// every run matches runtime.RunReference on fresh machines: no stale
// live/slab/arena/machine state may leak between runs. The reference
// simulator keeps no state between runs and takes a freshly built source
// every run, so a leak cannot corrupt both sides. The reduced battery has a
// second pooled side, one NewReducedGreedyMachine factory reused across
// palettes, whose machines share a schedule holder that must recompute
// when k changes, and a Δ=4 instance through its own pool. CI runs this
// under -race, which additionally checks the engine's internal sharing.
func TestPooledStateReuseAcrossRuns(t *testing.T) {
	const maxN = 96
	rng := rand.New(rand.NewSource(17))

	type instance struct {
		name   string
		g      *graph.Graph
		pooled runtime.Source
		fresh  func() runtime.Source
		maxR   int
	}

	greedyPool := dist.NewGreedyMachinePool(maxN)
	reducedPool := dist.NewReducedGreedyMachinePool(3, maxN)
	proposalPool := dist.NewProposalMachinePool(maxN)
	reducedFactory := dist.NewReducedGreedyMachine(3)
	reduced4Pool := dist.NewReducedGreedyMachinePool(4, maxN)
	greedyFresh := func() runtime.Source { return dist.NewGreedyMachine }
	proposalFresh := func() runtime.Source { return dist.NewProposalMachine }
	reducedFresh := func(delta int) func() runtime.Source {
		return func() runtime.Source { return dist.NewReducedGreedyMachine(delta) }
	}

	var instances []instance
	for _, p := range []struct{ n, k int }{{64, 5}, {96, 3}, {32, 8}} {
		g := graph.RandomMatchingUnion(p.n, p.k, 0.7, rng)
		instances = append(instances, instance{
			name:   fmt.Sprintf("greedy/n=%d,k=%d", p.n, p.k),
			g:      g,
			pooled: greedyPool,
			fresh:  greedyFresh,
			maxR:   runtime.DefaultMaxRounds(g),
		}, instance{
			name:   fmt.Sprintf("proposal/n=%d,k=%d", p.n, p.k),
			g:      g,
			pooled: proposalPool,
			fresh:  proposalFresh,
			maxR:   runtime.DefaultMaxRounds(g),
		})
	}
	for _, p := range []struct{ n, k int }{{48, 64}, {96, 257}, {64, 17}} {
		g := graph.RandomBoundedDegree(p.n, p.k, 3, 6*p.n, rng)
		instances = append(instances, instance{
			name:   fmt.Sprintf("reduced/n=%d,k=%d", p.n, p.k),
			g:      g,
			pooled: reducedPool,
			fresh:  reducedFresh(3),
			maxR:   dist.TotalRounds(p.k, 3) + 8,
		}, instance{
			name:   fmt.Sprintf("reduced-factory/n=%d,k=%d", p.n, p.k),
			g:      g,
			pooled: reducedFactory,
			fresh:  reducedFresh(3),
			maxR:   dist.TotalRounds(p.k, 3) + 8,
		})
	}
	g4 := graph.RandomBoundedDegree(80, 300, 4, 6*80, rng)
	instances = append(instances, instance{
		name:   "reduced-delta4/n=80,k=300",
		g:      g4,
		pooled: reduced4Pool,
		fresh:  reducedFresh(4),
		maxR:   dist.TotalRounds(300, 4) + 8,
	})

	// Two passes over the whole battery: the second pass reuses pool and
	// engine state warmed (and possibly dirtied) by every earlier shape.
	for pass := 1; pass <= 2; pass++ {
		for _, inst := range instances {
			want, wantStats, err := runtime.RunReference(inst.g, nil, inst.fresh(), inst.maxR)
			if err != nil {
				t.Fatalf("pass %d %s: reference: %v", pass, inst.name, err)
			}
			for _, workers := range []int{1, 3, 8} {
				got, gotStats, err := runtime.RunWorkersN(inst.g, nil, inst.pooled, inst.maxR, workers)
				if err != nil {
					t.Fatalf("pass %d %s workers=%d: %v", pass, inst.name, workers, err)
				}
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("pass %d %s workers=%d: node %d: %v, want %v",
							pass, inst.name, workers, v, got[v], want[v])
					}
				}
				if gotStats.Rounds != wantStats.Rounds || gotStats.Messages != wantStats.Messages {
					t.Fatalf("pass %d %s workers=%d: stats (%d rounds, %d msgs), want (%d, %d)",
						pass, inst.name, workers, gotStats.Rounds, gotStats.Messages,
						wantStats.Rounds, wantStats.Messages)
				}
				for v := range wantStats.HaltTimes {
					if gotStats.HaltTimes[v] != wantStats.HaltTimes[v] {
						t.Fatalf("pass %d %s workers=%d: halt time of node %d: %d, want %d",
							pass, inst.name, workers, v, gotStats.HaltTimes[v], wantStats.HaltTimes[v])
					}
				}
			}
		}
	}
}

// fixedSource hands the engine the same machines every run, so a test can
// inspect them afterwards.
type fixedSource []runtime.Machine

func (s fixedSource) NewPool(n int) []runtime.Machine { return s[:n] }

// TestReducedSourceSharesOneSchedule pins the shared reduction schedule:
// after a run, every non-isolated machine of one source — pool or factory —
// holds the same schedule backing array, and a source reused on a
// different palette recomputes it for the new k.
func TestReducedSourceSharesOneSchedule(t *testing.T) {
	const n = 96
	rng := rand.New(rand.NewSource(5))
	g257 := graph.RandomBoundedDegree(n, 257, 3, 6*n, rng)
	g200 := graph.RandomBoundedDegree(n, 200, 3, 6*n, rng)

	// shared runs g on src and returns the one schedule all its
	// non-isolated machines hold.
	shared := func(name string, g *graph.Graph, src runtime.Source, ms []runtime.Machine) []dist.Step {
		t.Helper()
		if _, _, err := runtime.RunWorkersN(g, nil, src, dist.TotalRounds(g.K(), 3)+8, 2); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var first []dist.Step
		for v := 0; v < g.N(); v++ {
			if len(g.IncidentColors(v)) == 0 {
				continue
			}
			s := dist.ScheduleOf(ms[v])
			if len(s) == 0 {
				t.Fatalf("%s: node %d has an empty schedule at k=%d", name, v, g.K())
			}
			if first == nil {
				first = s
			} else if &s[0] != &first[0] {
				t.Fatalf("%s: node %d holds its own schedule copy", name, v)
			}
		}
		if first == nil {
			t.Fatalf("%s: no non-isolated node", name)
		}
		if first[0].Q != g.K() {
			t.Fatalf("%s: schedule starts at palette %d, want k=%d", name, first[0].Q, g.K())
		}
		return first
	}

	pool := dist.NewReducedGreedyMachinePool(3, n)
	poolMachines := pool.NewPool(n)
	factoryMachines := dist.NewReducedGreedyMachine(3).NewPool(n)
	for _, side := range []struct {
		name string
		src  runtime.Source
		ms   []runtime.Machine
	}{
		{"pool", pool, poolMachines},
		{"factory", fixedSource(factoryMachines), factoryMachines},
	} {
		a := shared(side.name+"/k=257", g257, side.src, side.ms)
		again := shared(side.name+"/k=257 again", g257, side.src, side.ms)
		if &a[0] != &again[0] {
			t.Errorf("%s: a rerun at the same palette recomputed the schedule", side.name)
		}
		b := shared(side.name+"/k=200", g200, side.src, side.ms)
		if &a[0] == &b[0] {
			t.Errorf("%s: the k=200 run reused the k=257 schedule", side.name)
		}
		shared(side.name+"/k=257 after k=200", g257, side.src, side.ms)
	}
}
