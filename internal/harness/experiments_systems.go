package harness

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/algo"
	"repro/internal/colsys"
	"repro/internal/group"
	"repro/internal/mm"
	"repro/internal/template"
)

// e3 reproduces Figure 2: the colour system V = {e, 1, 2, 2·1, 3, 3·1, 3·2}
// ⊆ G_3, its translation U = 3̄V, and the caption's (in)equalities.
func e3() Experiment {
	return Experiment{
		ID:    "E3",
		Title: "Colour systems and translations in G_3",
		Paper: "Figure 2, §2.1–2.2, Lemma 3",
		Run: func(w io.Writer) error {
			v, err := colsys.ParseFinite(3, "e, 1, 2, 2·1, 3, 3·1, 3·2")
			if err != nil {
				return err
			}
			u := colsys.Translate(v, group.Word{3})

			fmt.Fprintf(w, "V      = %s\n", v)
			fmt.Fprintf(w, "U = 3̄V = %s\n", wordsOf(u, 4))

			table := newTable("claim", "holds")
			checks := []struct {
				claim string
				holds bool
			}{
				{"V is a 3-colour system", colsys.CheckValid(v, 4) == nil},
				{"U is a 3-colour system (Lemma 3)", colsys.CheckValid(u, 5) == nil},
				{"V[1] = U[1]", colsys.EqualUpTo(colsys.Restrict(v, 1), colsys.Restrict(u, 1), 4)},
				{"V = V[2]", colsys.EqualUpTo(v, colsys.Restrict(v, 2), 4)},
				{"V[2] ≠ U[2]", !colsys.EqualUpTo(colsys.Restrict(v, 2), colsys.Restrict(u, 2), 4)},
				{"U[2] ≠ U", !colsys.EqualUpTo(colsys.Restrict(u, 2), u, 4)},
			}
			for _, c := range checks {
				table.AddRow(c.claim, c.holds)
				if !c.holds {
					return fmt.Errorf("claim %q failed", c.claim)
				}
			}
			table.Render(w)

			// Translation preserves adjacency and edge colours.
			for _, x := range colsys.Nodes(v, 2) {
				img := group.Translate(group.Word{3}, x)
				cv := colsys.Colors(v, x)
				cu := colsys.Colors(u, img)
				if fmt.Sprint(cv) != fmt.Sprint(cu) {
					return fmt.Errorf("C(V, %v) = %v but C(U, %v) = %v", x, cv, img, cu)
				}
			}
			fmt.Fprintln(w, "x ↦ 3̄x preserves adjacencies and edge colours on all of V.")
			return nil
		},
	}
}

// e4 reproduces Figure 3: the encoding of a maximal matching as local
// outputs, and the validators for properties (M1)–(M3).
func e4() Experiment {
	return Experiment{
		ID:    "E4",
		Title: "Encoding of maximal matchings; properties (M1)–(M3)",
		Paper: "Figure 3, §2.4",
		Run: func(w io.Writer) error {
			// A small tree in the spirit of Figure 3, with greedy outputs.
			sys, err := colsys.ParseFinite(4, "e, 1, 2, 2·3, 2·4, 2·4·1, 3")
			if err != nil {
				return err
			}
			g := algo.NewGreedy()
			table := newTable("node v", "A(V, v)")
			for _, node := range colsys.Nodes(sys, 4) {
				table.AddRow(node, g.Eval(sys, node))
			}
			table.Render(w)
			if err := mm.Check(g, sys, 4); err != nil {
				return err
			}
			fmt.Fprintln(w, "outputs satisfy (M1) incident-or-⊥, (M2) mutuality, (M3) maximality.")

			// The validators reject each kind of broken encoding.
			rejected := 0
			for _, broken := range []mm.Algorithm{algo.Unmatched{}, algo.FirstColor{}} {
				if mm.Check(broken, sys, 4) != nil {
					rejected++
				}
			}
			if rejected != 2 {
				return fmt.Errorf("validators accepted a broken encoding")
			}
			fmt.Fprintln(w, "validators reject always-⊥ (M3) and non-mutual (M2) encodings.")
			return nil
		},
	}
}

// fig45Template builds the 2-template used for the Figure 4/5 experiments:
// an infinite path over k = 5 colours. The figure's exact colour sequence
// is not recoverable from the text; the periodic sequence below preserves
// its parameters (h = 2, b = 1, d = 4, k = 5).
func fig45Template() (*template.Template, error) {
	p, err := colsys.NewPath(5, []group.Color{2, 1, 2, 4}, []group.Color{3, 1, 3, 4})
	if err != nil {
		return nil, err
	}
	tau := func(wrd group.Word) group.Color {
		for c := group.Color(1); c <= 5; c++ {
			if !colsys.HasColor(p, wrd, c) {
				return c
			}
		}
		return group.None
	}
	return template.New(p, 2, tau), nil
}

// e5 reproduces Figure 4: a 2-template with a 1-colour picker, listing
// C(T, t), τ(t), F(T, τ, t) and P(t) along the path.
func e5() Experiment {
	return Experiment{
		ID:    "E5",
		Title: "Templates and colour pickers on an infinite path",
		Paper: "Figure 4, §3.2",
		Run: func(w io.Writer) error {
			tpl, err := fig45Template()
			if err != nil {
				return err
			}
			if err := template.Check(tpl, 5); err != nil {
				return err
			}
			picker := template.NewPickerFunc(1, func(t group.Word) []group.Color {
				return tpl.FreeColors(t)[:1]
			})
			if err := template.CheckPicker(tpl, picker, 5); err != nil {
				return err
			}
			table := newTable("t", "C(T,t)", "τ(t)", "F(T,τ,t)", "P(t)")
			for _, node := range colsys.Nodes(tpl.System(), 4) {
				table.AddRow(node,
					colorSet(colsys.Colors(tpl.System(), node)),
					tpl.Forbidden(node),
					colorSet(tpl.FreeColors(node)),
					colorSet(picker.Pick(node)))
			}
			table.Render(w)
			fmt.Fprintln(w, "P picks exactly one free colour per node: a 1-colour picker (b = 1).")
			return nil
		},
	}
}

// e6 reproduces Figure 5: the extension ext(T, τ, P) of the Figure 4
// template is a 3-regular colour system, with the projection p back to T.
func e6() Experiment {
	return Experiment{
		ID:    "E6",
		Title: "Extension of a 2-template by a 1-colour picker",
		Paper: "Figure 5, §3.3–3.4",
		Run: func(w io.Writer) error {
			tpl, err := fig45Template()
			if err != nil {
				return err
			}
			picker := template.NewPickerFunc(1, func(t group.Word) []group.Color {
				return tpl.FreeColors(t)[:1]
			})
			ext := template.Extend(tpl, picker)

			if !colsys.IsRegular(ext, 3, 4) {
				return fmt.Errorf("X is not 3-regular")
			}
			if err := template.Check(ext.AsTemplate(), 3); err != nil {
				return err
			}

			table := newTable("x ∈ X", "p(x)", "ξ(x)", "C(X,x)")
			for _, node := range colsys.Nodes(ext, 3) {
				proj, ok := ext.Project(node)
				if !ok {
					return fmt.Errorf("member %v lost its projection", node)
				}
				table.AddRow(node, proj, ext.Forbidden(node), colorSet(colsys.Colors(ext, node)))
				// Lemma 6: C(X, x) = C(T, p(x)) ∪ P(p(x)).
				want := append(colsys.Colors(tpl.System(), proj), picker.Pick(proj)...)
				if len(colsys.Colors(ext, node)) != len(want) {
					return fmt.Errorf("Lemma 6 fails at %v", node)
				}
			}
			table.Render(w)
			fmt.Fprintf(w, "X is a 3-regular colour system over k = 5 (h + b = 2 + 1); |X[3]| = %d.\n",
				len(colsys.Nodes(ext, 3)))
			return nil
		},
	}
}

// wordsOf renders a lazy system's window like Finite.String does.
func wordsOf(v colsys.System, radius int) string {
	words := colsys.Nodes(v, radius)
	parts := make([]string, len(words))
	for i, x := range words {
		parts[i] = x.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// colorSet renders a colour slice as {a, b, c}.
func colorSet(colors []group.Color) string {
	parts := make([]string, len(colors))
	for i, c := range colors {
		parts[i] = c.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
