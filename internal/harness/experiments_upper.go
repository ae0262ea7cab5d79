package harness

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/colsys"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/logstar"
	"repro/internal/runtime"
)

// e1 reproduces Figure 1 and Lemma 1: the greedy algorithm finds a maximal
// matching in at most k−1 rounds, on the Figure 1 instance and on random
// properly coloured graphs.
func e1() Experiment {
	return Experiment{
		ID:    "E1",
		Title: "Greedy maximal matching within k−1 rounds",
		Paper: "Figure 1, Lemma 1",
		Run: func(w io.Writer) error {
			table := NewTable("instance", "n", "|E|", "Δ", "k", "rounds", "bound k−1", "|M|", "maximal")

			run := func(name string, g *graph.Graph) error {
				outs, stats, err := runtime.RunWorkersN(g, nil, dist.NewGreedyMachinePool(g.N()), runtime.DefaultMaxRounds(g), 1)
				if err != nil {
					return err
				}
				if err := graph.CheckMatching(g, outs); err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				if stats.Rounds > g.K()-1 {
					return fmt.Errorf("%s: %d rounds exceeds k−1 = %d", name, stats.Rounds, g.K()-1)
				}
				// Cross-check the engine against the naive reference
				// simulator, which shares only the Machine interface with it,
				// on every instance of the experiment.
				routs, rstats, err := runtime.RunReference(g, nil, dist.NewGreedyMachinePool(g.N()), runtime.DefaultMaxRounds(g))
				if err != nil {
					return err
				}
				for v := range routs {
					if routs[v] != outs[v] {
						return fmt.Errorf("%s: engine diverges from the reference at node %d (%v vs %v)",
							name, v, outs[v], routs[v])
					}
				}
				if rstats.Rounds != stats.Rounds || rstats.Messages != stats.Messages {
					return fmt.Errorf("%s: engine stats (%d rounds, %d msgs) differ from the reference (%d, %d)",
						name, stats.Rounds, stats.Messages, rstats.Rounds, rstats.Messages)
				}
				table.AddRow(name, g.N(), g.NumEdges(), g.MaxDegree(), g.K(),
					stats.Rounds, g.K()-1, len(graph.MatchingEdges(g, outs)), "yes")
				return nil
			}

			fig1, err := graph.Figure1()
			if err != nil {
				return err
			}
			if err := run("figure-1 (Q4)", fig1); err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(1))
			for _, k := range []int{3, 5, 8} {
				g := graph.RandomMatchingUnion(64, k, 0.8, rng)
				if err := run(fmt.Sprintf("random-union k=%d", k), g); err != nil {
					return err
				}
			}
			for _, k := range []int{4, 6} {
				g, err := graph.RandomRegular(64, k, rng)
				if err != nil {
					return err
				}
				if err := run(fmt.Sprintf("random-regular k=%d", k), g); err != nil {
					return err
				}
			}
			table.Render(w)
			return nil
		},
	}
}

// e2 reproduces the §1.2 worst-case construction: greedy needs exactly k−1
// rounds, because the two path endpoints are indistinguishable up to
// radius k−1 yet must answer differently.
func e2() Experiment {
	return Experiment{
		ID:    "E2",
		Title: "Worst case: greedy needs exactly k−1 rounds",
		Paper: "§1.2 example",
		Run: func(w io.Writer) error {
			table := NewTable("k", "rounds", "A at u", "A at v", "views equal ≤", "views differ at")
			for k := 2; k <= 8; k++ {
				wc, err := graph.NewWorstCase(k)
				if err != nil {
					return err
				}
				outs, stats, err := runtime.RunWorkersN(wc.G, nil, dist.NewGreedyMachinePool(wc.G.N()), runtime.DefaultMaxRounds(wc.G), 1)
				if err != nil {
					return err
				}
				if err := graph.CheckMatching(wc.G, outs); err != nil {
					return err
				}
				if stats.Rounds != k-1 {
					return fmt.Errorf("k=%d: %d rounds, want exactly %d", k, stats.Rounds, k-1)
				}
				if outs[wc.U].IsMatched() == outs[wc.V].IsMatched() {
					return fmt.Errorf("k=%d: endpoints matched alike", k)
				}
				eq, diff, err := viewAgreement(wc)
				if err != nil {
					return err
				}
				if eq != k-1 || diff != k {
					return fmt.Errorf("k=%d: views equal to %d, differ at %d; want %d and %d",
						k, eq, diff, k-1, k)
				}
				table.AddRow(k, stats.Rounds, outs[wc.U], outs[wc.V], eq, diff)
			}
			table.Render(w)
			fmt.Fprintln(w, "greedy's outputs at u and v differ although their radius-(k−1)")
			fmt.Fprintln(w, "views coincide: any faithful implementation needs ≥ k−1 rounds.")
			return nil
		},
	}
}

// viewAgreement returns the largest radius at which the views of U and V
// agree and the first radius at which they differ.
func viewAgreement(wc *graph.WorstCase) (equal, differ int, err error) {
	k := wc.G.K()
	for r := 1; r <= k+1; r++ {
		vu, err := wc.G.View(wc.U, r)
		if err != nil {
			return 0, 0, err
		}
		vv, err := wc.G.View(wc.V, r)
		if err != nil {
			return 0, 0, err
		}
		if !colsys.EqualUpTo(vu, vv, r) {
			return r - 1, r, nil
		}
	}
	return k + 1, 0, nil
}

// e11Row is one palette size's measurements in the E11 sweep.
type e11Row struct {
	k           int
	greedyWorst int
	greedyRand  int
	pred        int
	reducedRand int
	propRand    int
	propWorst   int
}

// e11Measure runs the full E11 battery for one palette size. It is
// self-contained — the rng is derived from k, not shared with other
// palette sizes — so the sweep can fan out across a worker pool without
// changing any row.
func e11Measure(k, delta int) (e11Row, error) {
	row := e11Row{k: k}
	wc, err := graph.NewWorstCase(k)
	if err != nil {
		return row, err
	}
	maxR := 4*k + wc.G.N() + 16
	_, greedyWorst, err := runtime.RunWorkersN(wc.G, nil, dist.NewGreedyMachinePool(wc.G.N()), maxR, 1)
	if err != nil {
		return row, err
	}
	_, propWorst, err := runtime.RunWorkersN(wc.G, nil, dist.NewProposalMachinePool(wc.G.N()), maxR, 1)
	if err != nil {
		return row, err
	}

	rng := rand.New(rand.NewSource(11<<16 + int64(k)))
	g := graph.RandomBoundedDegree(128, k, delta, 600, rng)
	outs, greedyRand, err := runtime.RunWorkersN(g, nil, dist.NewGreedyMachinePool(g.N()), maxR, 1)
	if err != nil {
		return row, err
	}
	if err := graph.CheckMatching(g, outs); err != nil {
		return row, err
	}
	row.pred = dist.TotalRounds(k, delta)
	outs, reducedRand, err := runtime.RunWorkersN(g, nil, dist.NewReducedGreedyMachinePool(delta, g.N()), row.pred+8, 1)
	if err != nil {
		return row, err
	}
	if err := graph.CheckMatching(g, outs); err != nil {
		return row, err
	}
	// Cross-check a three-worker run against the one-worker run on the
	// reduced pipeline — the heaviest message path.
	// Three workers always exercise the multi-worker schedule, whatever
	// GOMAXPROCS is.
	wouts, wstats, err := runtime.RunWorkersN(g, nil, dist.NewReducedGreedyMachinePool(delta, g.N()), row.pred+8, 3)
	if err != nil {
		return row, err
	}
	for v := range wouts {
		if wouts[v] != outs[v] {
			return row, fmt.Errorf("k=%d: multi-worker run diverges at node %d (%v vs %v)", k, v, wouts[v], outs[v])
		}
	}
	if wstats.Rounds != reducedRand.Rounds {
		return row, fmt.Errorf("k=%d: multi-worker rounds %d, one worker %d", k, wstats.Rounds, reducedRand.Rounds)
	}
	outs, propRand, err := runtime.RunWorkersN(g, nil, dist.NewProposalMachinePool(g.N()), maxR, 1)
	if err != nil {
		return row, err
	}
	if err := graph.CheckMatching(g, outs); err != nil {
		return row, err
	}

	row.greedyWorst = greedyWorst.Rounds
	row.greedyRand = greedyRand.Rounds
	row.reducedRand = reducedRand.Rounds
	row.propRand = propRand.Rounds
	row.propWorst = propWorst.Rounds
	return row, nil
}

// e11PaletteSweep runs the E11 measurement for every palette size and
// returns the rows in palette order.
func e11PaletteSweep(ks []int, delta int) ([]e11Row, error) {
	rows := make([]e11Row, 0, len(ks))
	for _, k := range ks {
		row, err := e11Measure(k, delta)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// e11 measures the §1.3 upper-bound regime: for fixed Δ, greedy's rounds
// grow linearly in k while colour reduction + greedy grows like log* k
// (plus a Δ-dependent constant); the proposal baseline is palette-
// independent on random instances but linear on adversarial chains.
func e11() Experiment {
	return Experiment{
		ID:    "E11",
		Title: "Rounds vs k at fixed Δ: linear (greedy) vs log*-shaped (reduced)",
		Paper: "§1.3 upper bounds",
		Run: func(w io.Writer) error {
			const delta = 3
			table := NewTable("k", "log*k", "greedy (worst)", "greedy (random)",
				"reduced (pred)", "reduced (random)", "proposal (random)", "proposal (worst)")
			rows, err := e11PaletteSweep([]int{4, 8, 16, 64, 256, 1024, 2048}, delta)
			if err != nil {
				return err
			}
			crossover := -1
			for _, row := range rows {
				if crossover < 0 && row.pred < row.k-1 {
					crossover = row.k
				}
				table.AddRow(row.k, logstar.LogStar(row.k), row.greedyWorst, row.greedyRand,
					row.pred, row.reducedRand, row.propRand, row.propWorst)
			}
			table.Render(w)
			if crossover < 0 {
				return fmt.Errorf("reduced-greedy never beat the k−1 bound")
			}
			fmt.Fprintf(w, "reduced-greedy beats the greedy bound from k = %d on (Δ = %d);\n", crossover, delta)
			fmt.Fprintln(w, "its k-dependence is the log* k reduction schedule, as in §1.3.")
			return nil
		},
	}
}
