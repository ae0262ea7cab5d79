package harness

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/runtime"
	"repro/internal/view"
)

// e13 reproduces Remark 2's perspective: views as nodes of Linial's
// neighbourhood graphs. It enumerates every radius-h ball of d-regular
// k-colour systems for small parameters, locates the adversary's shared
// ball among them, and machine-checks the indistinguishability principle
// that powers Theorem 5.
func e13() Experiment {
	return Experiment{
		ID:    "E13",
		Title: "Views as neighbourhood-graph nodes; indistinguishability",
		Paper: "§2.3, Remark 2",
		Run: func(w io.Writer) error {
			table := NewTable("k", "d", "h", "distinct radius-h views")
			for _, p := range []struct{ k, d, h int }{
				{3, 2, 1}, {3, 2, 2}, {3, 2, 3}, {4, 3, 1}, {4, 3, 2}, {5, 4, 1},
			} {
				balls, err := view.EnumerateBalls(p.k, p.d, p.h)
				if err != nil {
					return err
				}
				table.AddRow(p.k, p.d, p.h, len(balls))
			}
			table.Render(w)

			// The adversary's shared ball is one of the enumerated views,
			// and greedy respects indistinguishability on the pair.
			adv, err := core.New(algo.NewGreedy(), 3)
			if err != nil {
				return err
			}
			res, err := adv.Run()
			if err != nil {
				return err
			}
			u := adv.Realisation(res.U)
			v := adv.Realisation(res.V)
			if err := view.CheckIndistinguishable(algo.NewGreedy(), u, group.Identity(), v, group.Identity()); err != nil {
				return err
			}
			cu, err := view.Canonical(res.U.System(), group.Identity(), res.D)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "adversary (k=3): shared radius-%d view of the roots = {%s};\n", res.D, cu)
			fmt.Fprintln(w, "greedy's outputs depend only on radius-(r+1) views — verified on the pair.")
			return nil
		},
	}
}

// e14 runs the §1.1 related-work algorithms this repository implements in
// full: maximal matching on 2-coloured (bipartite) graphs in O(Δ) rounds
// [ref 6] and proper edge recolouring down to 2Δ−1 colours.
func e14() Experiment {
	return Experiment{
		ID:    "E14",
		Title: "Related §1.1 algorithms: bipartite O(Δ) matching; 2Δ−1 recolouring",
		Paper: "§1.1 (refs [6], [15])",
		Run: func(w io.Writer) error {
			// Bipartite matching: rounds track Δ, not k and not n.
			table := NewTable("n", "k", "Δ", "rounds", "2Δ+3 bound", "maximal")
			rng := rand.New(rand.NewSource(14))
			for _, p := range []struct{ n, k int }{
				{20, 4}, {40, 64}, {80, 1024}, {160, 1024},
			} {
				b := graph.NewCSRBuilder(2*p.n, p.k)
				labels := make([]int, 2*p.n)
				for i := p.n; i < 2*p.n; i++ {
					labels[i] = dist.SideBlack
				}
				for i := 0; i < 4*p.n; i++ {
					u := rng.Intn(p.n)
					v := p.n + rng.Intn(p.n)
					b.TryAddEdge(u, v, group.Color(1+rng.Intn(p.k)))
				}
				g := b.Build()
				outs, stats, err := runtime.RunWorkersN(g, labels, dist.NewBipartiteMachinePool(g.N()),
					4*g.MaxDegree()+16, 1)
				if err != nil {
					return err
				}
				if err := graph.CheckMatching(g, outs); err != nil {
					return err
				}
				bound := 2*g.MaxDegree() + 3
				if stats.Rounds > bound {
					return fmt.Errorf("bipartite rounds %d exceed 2Δ+3 = %d", stats.Rounds, bound)
				}
				table.AddRow(2*p.n, p.k, g.MaxDegree(), stats.Rounds, bound, "yes")
			}
			table.Render(w)
			fmt.Fprintln(w, "with a bipartition as input, rounds depend on Δ only — no Θ(k−1)")
			fmt.Fprintln(w, "barrier, because the side bits break the symmetry the adversary exploits.")

			// Edge recolouring to 2Δ−1 colours.
			table2 := NewTable("k", "Δ", "final palette", "target 2Δ−1", "rounds")
			for _, p := range []struct{ k, delta int }{
				{512, 3}, {4096, 3}, {4096, 4}, {65536, 5},
			} {
				g := graph.RandomBoundedDegree(100, p.k, p.delta, 500, rng)
				ec, err := dist.ReduceEdgeColoring(g, p.delta)
				if err != nil {
					return err
				}
				table2.AddRow(p.k, p.delta, ec.Palette, 2*p.delta-1, ec.Rounds)
				if ec.Palette > 2*p.delta-1 {
					return fmt.Errorf("palette %d above 2Δ−1 = %d", ec.Palette, 2*p.delta-1)
				}
			}
			table2.Render(w)
			fmt.Fprintln(w, "Linial reduction + one-class-per-round recolouring reaches the classical")
			fmt.Fprintln(w, "2Δ−1 palette in O(log* k) + poly(Δ) rounds.")
			return nil
		},
	}
}
