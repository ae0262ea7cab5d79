// Top-level benchmarks: one per experiment of internal/harness, so every
// figure/lemma/theorem reproduction has a `go test -bench` entry point, plus
// end-to-end benchmarks of the two headline pipelines (the greedy machine
// and the Theorem 5 adversary).
package repro

import (
	"context"
	"io"
	"math/rand"
	goruntime "runtime"
	"strconv"
	"testing"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/harness"
	"repro/internal/runtime"
	"repro/internal/sweep"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

func BenchmarkE1GreedyRounds(b *testing.B)  { benchExperiment(b, "E1") }
func BenchmarkE2WorstCase(b *testing.B)     { benchExperiment(b, "E2") }
func BenchmarkE3ColourSystems(b *testing.B) { benchExperiment(b, "E3") }
func BenchmarkE4Encoding(b *testing.B)      { benchExperiment(b, "E4") }
func BenchmarkE5Template(b *testing.B)      { benchExperiment(b, "E5") }
func BenchmarkE6Extension(b *testing.B)     { benchExperiment(b, "E6") }
func BenchmarkE7BaseCase(b *testing.B)      { benchExperiment(b, "E7") }
func BenchmarkE8Inductive(b *testing.B)     { benchExperiment(b, "E8") }
func BenchmarkE9Adversary(b *testing.B)     { benchExperiment(b, "E9") }
func BenchmarkE10Regular(b *testing.B)      { benchExperiment(b, "E10") }
func BenchmarkE12Lemmas(b *testing.B)       { benchExperiment(b, "E12") }
func BenchmarkE13Views(b *testing.B)        { benchExperiment(b, "E13") }
func BenchmarkE14Related(b *testing.B)      { benchExperiment(b, "E14") }

// E11 sweeps palettes up to 2048 and is by far the heaviest experiment;
// gate it so default -bench=. runs stay snappy while -bench=E11 still works.
func BenchmarkE11UpperBounds(b *testing.B) {
	if testing.Short() {
		b.Skip("E11 sweeps k up to 2048; skipped with -short")
	}
	benchExperiment(b, "E11")
}

// BenchmarkAdversaryByK isolates the Theorem 5 pipeline per palette size.
func BenchmarkAdversaryByK(b *testing.B) {
	for _, k := range []int{3, 4, 5, 6} {
		b.Run(benchName(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				adv, err := core.New(algo.NewGreedy(), k)
				if err != nil {
					b.Fatal(err)
				}
				res, err := adv.Run()
				if err != nil {
					b.Fatal(err)
				}
				if res.OutV.IsMatched() {
					b.Fatal("wrong adversary outcome")
				}
			}
		})
	}
}

// BenchmarkGreedyMachineEngines runs RunWorkersN on one worker
// (sequential) and on GOMAXPROCS workers over the same instances; the round
// loop is allocation-free at every worker count (BENCH_pr1.json records a
// baseline).
//
// The instance is a union of partial random matchings rather than a
// k-regular graph: in a k-regular properly coloured graph every node has a
// colour-1 edge and greedy halts at time 0, so nothing but setup would be
// measured. Both rows share one arena-backed machine pool, so the numbers
// isolate engine round-loop cost from per-machine allocation.
func BenchmarkGreedyMachineEngines(b *testing.B) {
	for _, n := range []int{4096, 65536} {
		rng := rand.New(rand.NewSource(1))
		g := graph.RandomMatchingUnion(n, 6, 0.7, rng)
		pool := dist.NewGreedyMachinePool(n)
		prefix := "n=" + strconv.Itoa(n) + "/"
		b.Run(prefix+"sequential", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := runtime.RunWorkersN(g, nil, pool, 64, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(prefix+"workers", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := runtime.RunWorkersN(g, nil, pool, 64, goruntime.GOMAXPROCS(0)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReducedPipelineEngines measures the full ReducedGreedyMachine
// pipeline (Linial reduction + recolouring + greedy) on one worker vs
// GOMAXPROCS workers. Both share one pooled machine arena; the round loop
// performs no allocations even though every reduction round sends a colour
// list per node, because each node sends a pointer to the list it keeps
// published on its machine (BENCH_pr2.json records a baseline).
func BenchmarkReducedPipelineEngines(b *testing.B) {
	const delta = 3
	for _, p := range []struct{ n, k int }{{4096, 256}, {65536, 1024}} {
		if p.n > 1<<13 && testing.Short() {
			continue
		}
		rng := rand.New(rand.NewSource(2))
		g := graph.RandomBoundedDegree(p.n, p.k, delta, 5*p.n, rng)
		maxR := dist.TotalRounds(p.k, delta) + 8
		pool := dist.NewReducedGreedyMachinePool(delta, p.n)
		prefix := "n=" + strconv.Itoa(p.n) + ",k=" + strconv.Itoa(p.k) + "/"
		b.Run(prefix+"sequential", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := runtime.RunWorkersN(g, nil, pool, maxR, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(prefix+"workers", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := runtime.RunWorkersN(g, nil, pool, maxR, goruntime.GOMAXPROCS(0)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkersScaling is the multi-core scaling study for RunWorkersN:
// the same instance driven with 1…16 workers (independent of GOMAXPROCS, so
// the shard/barrier overhead is visible even on small hosts). BENCH_pr2.json
// records a run with the host core count alongside.
func BenchmarkWorkersScaling(b *testing.B) {
	for _, n := range []int{1 << 18, 1 << 20} {
		if n > 1<<18 && testing.Short() {
			continue
		}
		rng := rand.New(rand.NewSource(1))
		g := graph.RandomMatchingUnion(n, 6, 0.7, rng)
		pool := dist.NewGreedyMachinePool(n)
		for _, workers := range []int{1, 2, 4, 8, 16} {
			b.Run("n="+strconv.Itoa(n)+"/workers="+strconv.Itoa(workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := runtime.RunWorkersN(g, nil, pool, 64, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEngineTailRounds isolates the per-round liveness-scan cost the
// bitset frontiers attack: a §1.2 worst-case path of k edges embedded in a
// sea of isolated nodes, so greedy runs ~k rounds with a handful of live
// nodes each. An engine that walks all n nodes (or halted flags) per round
// pays O(nk) for the tail; a 64-bit word frontier pays O(nk/64 + live).
func BenchmarkEngineTailRounds(b *testing.B) {
	const k = 512
	for _, n := range []int{1 << 18, 1 << 20} {
		if n > 1<<18 && testing.Short() {
			continue
		}
		bld := graph.NewCSRBuilder(n, k)
		for i := 0; i < k; i++ {
			if err := bld.AddEdge(i, i+1, group.Color(k-i)); err != nil {
				b.Fatal(err)
			}
		}
		g := bld.Build()
		pool := dist.NewGreedyMachinePool(n)
		prefix := "n=" + strconv.Itoa(n) + "/"
		b.Run(prefix+"sequential", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := runtime.RunWorkersN(g, nil, pool, k+16, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(prefix+"workers=2", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := runtime.RunWorkersN(g, nil, pool, k+16, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// roundsHeavyGraph builds the instance of mmbench's rounds-heavy workload.
func roundsHeavyGraph(b *testing.B) *graph.Graph {
	b.Helper()
	inst, _, err := gen.BuildSpec("bounded-degree:n=16384,k=1024,delta=3", 1)
	if err != nil {
		b.Fatal(err)
	}
	return inst.G
}

// BenchmarkGreedyKggDelta is greedy in the paper's k ≫ Δ regime, on the
// instance of mmbench's rounds-heavy workload (gen's bounded-degree family
// at n=16384, k=1024, Δ=3): 1023 rounds in which only the few nodes whose
// class is being decided do anything. The engine skips the rest through
// GreedyMachine.Sleep, so a run costs O(m + k) machine calls rather than
// Θ(n·k). One pooled machine arena serves both rows.
func BenchmarkGreedyKggDelta(b *testing.B) {
	g := roundsHeavyGraph(b)
	pool := dist.NewGreedyMachinePool(g.N())
	maxR := runtime.DefaultMaxRounds(g)
	for _, workers := range []int{1, 2} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := runtime.RunWorkersN(g, nil, pool, maxR, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReducedKggDelta is the other side of the paper's k ≫ Δ
// comparison, on the same rounds-heavy instance: the O(Δ + log* k) colour
// reduction followed by greedy over the reduced palette, 121 rounds that
// ship about 5.3M colour-list messages. Nearly all of it is the engine's
// send and receive phases. One pooled machine arena serves both rows.
func BenchmarkReducedKggDelta(b *testing.B) {
	const delta = 3
	g := roundsHeavyGraph(b)
	pool := dist.NewReducedGreedyMachinePool(delta, g.N())
	maxR := dist.TotalRounds(g.K(), delta) + 8
	for _, workers := range []int{1, 2} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := runtime.RunWorkersN(g, nil, pool, maxR, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReducedCellSetup is the reduced cell as the sweep runs it, on
// the same rounds-heavy instance: every run takes a fresh Source from the
// sweep registry, so it pays the per-cell set-up — the machine arena and
// the reduction schedule — that BenchmarkReducedKggDelta's one pooled arena
// skips after its first run.
func BenchmarkReducedCellSetup(b *testing.B) {
	g := roundsHeavyGraph(b)
	reduced, ok := sweep.AlgoByName("reduced")
	if !ok {
		b.Fatal("reduced is not registered")
	}
	maxR := reduced.MaxRounds(g)
	for _, workers := range []int{1, 2} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := runtime.RunWorkersN(g, nil, reduced.Source(g), maxR, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenMatchingUnion measures instance construction on the CSR
// builder at benchmark scale. The builder amortises everything into a
// handful of slabs; TestGeneratorAllocsBounded in internal/graph pins the
// allocation count per build.
func BenchmarkGenMatchingUnion(b *testing.B) {
	const n, k = 65536, 6
	b.Run("csr-builder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(1))
			graph.RandomMatchingUnion(n, k, 0.7, rng)
		}
	})
}

// BenchmarkGenRegular is the same measurement on mmbench's build-heavy
// instance, regular:n=131072,k=3: colour classes arrive in order, so Build
// scatters the edges without sorting them.
func BenchmarkGenRegular(b *testing.B) {
	const n, k = 131072, 3
	b.Run("csr-builder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := graph.RandomRegular(n, k, rand.New(rand.NewSource(1))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGenBoundedDegree is the same measurement for the §1.3 k ≫ Δ
// instances (the reduced-pipeline benchmark setup).
func BenchmarkGenBoundedDegree(b *testing.B) {
	const n, k, delta = 65536, 1024, 3
	b.Run("csr-builder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(2))
			graph.RandomBoundedDegree(n, k, delta, 5*n, rng)
		}
	})
}

// BenchmarkSweepStream times the streaming pipeline on a grid big enough
// for the reorder window to matter. The interesting number is allocs/op:
// the stream holds a bounded window, so its footprint is flat in the cell
// count.
func BenchmarkSweepStream(b *testing.B) {
	cfg := sweep.Config{
		Grids:       []string{"matching-union:n=256..1024,k=2|4"},
		Algos:       []string{"greedy", "proposal"},
		Reps:        4,
		Seed:        1,
		CheckBounds: true,
	}
	b.Run("stream-discard", func(b *testing.B) {
		b.ReportAllocs()
		sink := sweep.NewJSONLSink(io.Discard)
		for i := 0; i < b.N; i++ {
			if _, err := sweep.Stream(context.Background(), cfg, sink); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSweepSmallCells is the sweep cell's fixed cost — build, run,
// check and emit — without mmbench: each op is one sweep.Stream pass over
// sweep.DefaultGrids × greedy, reduced and proposal with 4 repetitions,
// 108 cells of at most 128 nodes on one cell worker, with bounds checked
// and rows encoded to io.Discard. allocs/op and B/op divided by cells/op
// are the per-cell allocation numbers. Every pass starts a new stream, so
// it includes its worker's first cell of each algorithm, which makes the
// machine sources the later cells reuse.
func BenchmarkSweepSmallCells(b *testing.B) {
	cfg := sweep.Config{
		Grids:         sweep.DefaultGrids(),
		Algos:         []string{"greedy", "reduced", "proposal"},
		Reps:          4,
		Seed:          1,
		CellWorkers:   1,
		EngineWorkers: 1,
		CheckBounds:   true,
	}
	cells, err := sweep.Expand(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sink := sweep.NewJSONLSink(io.Discard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.Stream(context.Background(), cfg, sink); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cells), "cells/op")
}

// BenchmarkGenScenarios builds every registered scenario at a mid-size n,
// so the bench smoke run exercises the whole registry and allocation
// regressions in any family are visible.
func BenchmarkGenScenarios(b *testing.B) {
	for _, s := range gen.All() {
		overrides := gen.Params{}
		if _, ok := s.Params["n"]; ok {
			overrides["n"] = 4096
		}
		b.Run(s.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Build(int64(i), overrides); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReductionSchedule measures the schedule computation that a
// reduced-greedy pool performs once per palette and shares across its
// machines.
func BenchmarkReductionSchedule(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dist.ReductionSchedule(1<<20, 6)
	}
}

func benchName(k int) string {
	return "k=" + strconv.Itoa(k)
}
