package harness

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/algo"
	"repro/internal/colsys"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/template"
)

// e7 reproduces the base case of the lower bound (Figure 6, §3.8): the
// 1-critical pair constructed against the greedy algorithm at k = 4.
func e7() Experiment {
	return Experiment{
		ID:    "E7",
		Title: "Base case: a 1-critical pair against greedy",
		Paper: "Figure 6, §3.6, §3.8 (Lemmas 10–11)",
		Run: func(w io.Writer) error {
			adv, err := core.New(algo.NewGreedy(), 4)
			if err != nil {
				return err
			}
			c1, c2, c3, c4, err := adv.Lemma10()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "Lemma 10 colours: c1=%v c2=%v c3=%v, with A(Z,ĉ3,e)=c4=%v\n", c1, c2, c3, c4)

			pair, err := adv.BaseCase()
			if err != nil {
				return err
			}
			table := NewTable("node t", "σ1(t)", "A(S1,σ1,t)", "τ1(t)", "A(T1,τ1,t)")
			for _, node := range colsys.Nodes(pair.S.System(), 1) {
				table.AddRow(node,
					pair.S.Forbidden(node), adv.EvalTemplate(pair.S, node),
					pair.T.Forbidden(node), adv.EvalTemplate(pair.T, node))
			}
			table.Render(w)
			if err := adv.VerifyPair(pair, 3); err != nil {
				return err
			}
			fmt.Fprintln(w, "(C1)–(C4) verified: S1[1] = T1[1], σ1 = τ1 at e, the root of T1 is")
			fmt.Fprintln(w, "unmatched relative to T1, and every node of S1 is matched within S1.")
			return nil
		},
	}
}

// e8 reproduces the inductive step (Figures 7–8, §3.9) against greedy at
// k = 4: every level reports its χ, the Lemma 12 witness y and the side
// (K1 or L1) it was found on.
func e8() Experiment {
	return Experiment{
		ID:    "E8",
		Title: "Inductive step: h-critical pairs for h = 1 … d",
		Paper: "Figures 7–8, §3.9 (Lemmas 12–13)",
		Run: func(w io.Writer) error {
			adv, err := core.New(algo.NewGreedy(), 4, core.WithParanoia(2))
			if err != nil {
				return err
			}
			res, err := adv.Run()
			if err != nil {
				return err
			}
			table := NewTable("level h", "χ", "witness y", "side", "S[h]=T[h]", "C3", "C4 (radius 3)")
			for _, pair := range res.Pairs {
				side := "—"
				if pair.H > 1 {
					side = "L1"
					if pair.FromK {
						side = "K1"
					}
				}
				chi := "—"
				if pair.Chi != group.None {
					chi = pair.Chi.String()
				}
				y := "—"
				if pair.H > 1 {
					y = pair.Y.String()
				}
				err := adv.VerifyPair(pair, 3)
				if err != nil {
					return err
				}
				table.AddRow(pair.H, chi, y, side, "yes", "yes", "yes")
			}
			table.Render(w)
			return nil
		},
	}
}

// e9 executes Theorem 5 end to end: for each k, the adversary produces
// d-regular systems U, V with U[d] = V[d] on which greedy answers
// differently at the root — so every correct algorithm needs ≥ k−1 rounds.
func e9() Experiment {
	return Experiment{
		ID:    "E9",
		Title: "Theorem 5: the adversary defeats greedy at radius d",
		Paper: "Theorems 2 and 5",
		Run: func(w io.Writer) error {
			table := NewTable("k", "d", "levels", "|U[d]|", "U[d]=V[d]", "A(U,e)", "A(V,e)")
			for k := 3; k <= 6; k++ {
				adv, err := core.New(algo.NewGreedy(), k)
				if err != nil {
					return err
				}
				res, err := adv.Run()
				if err != nil {
					return err
				}
				if err := res.Verify(adv); err != nil {
					return err
				}
				table.AddRow(k, res.D, len(res.Pairs),
					len(colsys.Nodes(res.U.System(), res.D)),
					"yes", res.OutU, res.OutV)
			}
			table.Render(w)
			fmt.Fprintln(w, "equal radius-d views with different outputs: running time ≥ d = k−1.")
			fmt.Fprintln(w, "greedy is therefore optimal (Theorem 2).")
			return nil
		},
	}
}

// e10 reproduces Corollary 1 and Lemma 4: the Θ(Δ) summary on d-regular
// systems and the k = 2 witness.
func e10() Experiment {
	return Experiment{
		ID:    "E10",
		Title: "Corollary 1 (Ω(Δ) rounds) and Lemma 4 (k ≤ 2)",
		Paper: "Corollary 1, Lemma 4",
		Run: func(w io.Writer) error {
			table := NewTable("k", "Δ = d", "U,V d-regular", "lower bound", "greedy upper bound", "tight")
			for k := 3; k <= 6; k++ {
				adv, err := core.New(algo.NewGreedy(), k)
				if err != nil {
					return err
				}
				res, err := adv.Run()
				if err != nil {
					return err
				}
				d := res.D
				regular := colsys.IsRegular(res.U.System(), d, d) && colsys.IsRegular(res.V.System(), d, d)
				if !regular {
					return fmt.Errorf("k=%d: constructed systems not %d-regular", k, d)
				}
				table.AddRow(k, d, "yes", fmt.Sprintf("%d rounds", d), fmt.Sprintf("%d rounds", k-1), d == k-1)
			}
			table.Render(w)
			fmt.Fprintln(w, "the lower-bound instances are d-regular with d = k−1: maximal matching")
			fmt.Fprintln(w, "needs Θ(Δ) rounds even on regular graphs (Corollary 1).")

			witness, err := core.LemmaFour(algo.NewGreedy())
			if err != nil {
				return err
			}
			if err := witness.Verify(algo.NewGreedy()); err != nil {
				return err
			}
			fmt.Fprintf(w, "\nLemma 4 (k = 2): node %v of %v outputs %v, node %v of %v outputs %v,\n",
				witness.NodeA, witness.SysA, witness.OutA, witness.NodeB, witness.SysB, witness.OutB)
			fmt.Fprintln(w, "with identical radius-1 views: at least k−1 = 1 round is required.")
			return nil
		},
	}
}

// e12 sweeps the §3.2–3.7 toolbox lemmas over randomised templates and
// pickers, counting machine-checked instances of each.
func e12() Experiment {
	return Experiment{
		ID:    "E12",
		Title: "Property sweep of the template toolbox",
		Paper: "Lemmas 6–10, Corollaries 2–3",
		Run: func(w io.Writer) error {
			rng := rand.New(rand.NewSource(1202))
			table := NewTable("lemma", "instances", "verified")

			// Lemma 6 + Lemma 7 on random path templates with random pickers.
			const trials = 20
			for _, check := range []struct {
				name string
				fn   func(*rand.Rand) error
			}{
				{"Lemma 6 (extension regularity)", checkLemma6},
				{"Lemma 7 (extension symmetry)", checkLemma7},
				{"Lemma 8 (pickers commute)", checkLemma8},
				{"Lemma 9 (no ⊥ below d)", checkLemma9},
				{"Lemma 10 (zero-template colours)", checkLemma10},
			} {
				for i := 0; i < trials; i++ {
					if err := check.fn(rng); err != nil {
						return fmt.Errorf("%s, instance %d: %w", check.name, i, err)
					}
				}
				table.AddRow(check.name, trials, "all")
			}
			table.Render(w)
			return nil
		},
	}
}

// randomPathTemplate builds a 2-template over k ≥ 5 colours with random
// periodic colour cycles.
func randomPathTemplate(rng *rand.Rand, k int) (*template.Template, error) {
	cycle := func(first group.Color) []group.Color {
		n := 2 + rng.Intn(3)
		out := make([]group.Color, n)
		out[0] = first
		for i := 1; i < n; i++ {
			for {
				c := group.Color(1 + rng.Intn(k))
				if c != out[i-1] && !(i == n-1 && c == out[0]) {
					out[i] = c
					break
				}
			}
		}
		return out
	}
	right := cycle(group.Color(1 + rng.Intn(k)))
	var left []group.Color
	for {
		first := group.Color(1 + rng.Intn(k))
		if first != right[0] {
			left = cycle(first)
			break
		}
	}
	p, err := colsys.NewPath(k, right, left)
	if err != nil {
		return nil, err
	}
	return template.New(p, 2, func(wrd group.Word) group.Color {
		for c := group.Color(1); int(c) <= k; c++ {
			if !colsys.HasColor(p, wrd, c) {
				return c
			}
		}
		return group.None
	}), nil
}

func checkLemma6(rng *rand.Rand) error {
	k := 5 + rng.Intn(2)
	tpl, err := randomPathTemplate(rng, k)
	if err != nil {
		return err
	}
	picker := template.NewPickerFunc(1, func(t group.Word) []group.Color {
		free := tpl.FreeColors(t)
		return free[rng.Intn(len(free)):][:1]
	})
	// Memoised pickers must be deterministic; force determinism by
	// materialising picks through the memo before use.
	ext := template.Extend(tpl, picker)
	if !colsys.IsRegular(ext, 3, 3) {
		return fmt.Errorf("extension not (h+b)-regular")
	}
	return template.Check(ext.AsTemplate(), 2)
}

func checkLemma7(rng *rand.Rand) error {
	k := 5
	tpl, err := randomPathTemplate(rng, k)
	if err != nil {
		return err
	}
	re := template.Realise(tpl)
	nodes := colsys.Nodes(re, 3)
	// Find two distinct nodes with the same projection.
	for _, x := range nodes {
		for _, y := range nodes {
			px, _ := re.Project(x)
			py, _ := re.Project(y)
			if x.Equal(y) || !px.Equal(py) {
				continue
			}
			if !colsys.EqualUpTo(colsys.Translate(re, x), colsys.Translate(re, y), 3) {
				return fmt.Errorf("x̄X ≠ ȳX for x=%v y=%v", x, y)
			}
			return nil
		}
	}
	return nil // no twin pair in the window; vacuously fine
}

func checkLemma8(rng *rand.Rand) error {
	k := 6
	tpl, err := randomPathTemplate(rng, k)
	if err != nil {
		return err
	}
	// Two disjoint 1-pickers: the first and the last free colour (k−2−1 = 3
	// free colours per node, so they never clash).
	p := template.NewPickerFunc(1, func(t group.Word) []group.Color {
		return tpl.FreeColors(t)[:1]
	})
	q := template.NewPickerFunc(1, func(t group.Word) []group.Color {
		free := tpl.FreeColors(t)
		return free[len(free)-1:]
	})
	if !template.Disjoint(tpl, p, q, 3) {
		return fmt.Errorf("pickers not disjoint")
	}
	kExt := template.Extend(tpl, p)
	lExt := template.Extend(kExt.AsTemplate(), template.LiftPicker(q, kExt))
	xExt := template.Extend(tpl, template.UnionPicker(p, q))
	if !colsys.EqualUpTo(lExt, xExt, 4) {
		return fmt.Errorf("ext(ext(T,P),Q∘p) ≠ ext(T,P∪Q)")
	}
	for _, wrd := range colsys.Nodes(xExt, 3) {
		qp, ok1 := lExt.Project(wrd)
		pq, ok2 := kExt.Project(qp)
		r, ok3 := xExt.Project(wrd)
		if !ok1 || !ok2 || !ok3 || !pq.Equal(r) {
			return fmt.Errorf("p ∘ q ≠ r at %v", wrd)
		}
	}
	return nil
}

func checkLemma9(rng *rand.Rand) error {
	k := 5
	tpl, err := randomPathTemplate(rng, k) // h = 2 < d = 4
	if err != nil {
		return err
	}
	g := algo.NewGreedy()
	adv, err := core.New(g, k)
	if err != nil {
		return err
	}
	for _, node := range colsys.Nodes(tpl.System(), 3) {
		if out := adv.EvalTemplate(tpl, node); !out.IsMatched() {
			return fmt.Errorf("A(T, τ, %v) = ⊥ although h < d", node)
		}
	}
	return nil
}

func checkLemma10(rng *rand.Rand) error {
	k := 4 + rng.Intn(3)
	order := rng.Perm(k)
	colors := make([]group.Color, k)
	for i, o := range order {
		colors[i] = group.Color(o + 1)
	}
	g, err := algo.NewGreedyOrder(colors)
	if err != nil {
		return err
	}
	adv, err := core.New(g, k)
	if err != nil {
		return err
	}
	c1, c2, c3, c4, err := adv.Lemma10()
	if err != nil {
		return err
	}
	if c1 == c2 || c2 == c3 || c1 == c3 || c4 == c2 {
		return fmt.Errorf("colour properties violated: %v %v %v %v", c1, c2, c3, c4)
	}
	return nil
}
