package template

import (
	"math/rand"
	"testing"

	"repro/internal/colsys"
	"repro/internal/group"
)

func mustWord(t *testing.T, s string) group.Word {
	t.Helper()
	w, err := group.Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return w
}

func mustFinite(t *testing.T, k int, list string) *colsys.Finite {
	t.Helper()
	f, err := colsys.ParseFinite(k, list)
	if err != nil {
		t.Fatalf("ParseFinite: %v", err)
	}
	return f
}

// oneTemplate builds the 1-template ({e, c}, τ) with τ(e) = t0, τ(c) = t1,
// as used by the base case of §3.8.
func oneTemplate(t *testing.T, k int, c group.Color, t0, t1 group.Color) *Template {
	t.Helper()
	sys, err := colsys.NewFinite(k, []group.Word{{c}})
	if err != nil {
		t.Fatalf("NewFinite: %v", err)
	}
	return New(sys, 1, func(w group.Word) group.Color {
		if w.IsIdentity() {
			return t0
		}
		return t1
	})
}

// pathTemplate builds an infinite 2-template over k colours: a bi-infinite
// path with the given periodic edge-colour cycles, and τ chosen as the
// smallest colour not incident to each node.
func pathTemplate(t *testing.T, k int, right, left []group.Color) *Template {
	t.Helper()
	p, err := colsys.NewPath(k, right, left)
	if err != nil {
		t.Fatalf("NewPath: %v", err)
	}
	return New(p, 2, func(w group.Word) group.Color {
		for c := group.Color(1); int(c) <= k; c++ {
			if !colsys.HasColor(p, w, c) {
				return c
			}
		}
		return group.None
	})
}

func TestTemplateBasics(t *testing.T) {
	tpl := oneTemplate(t, 4, 2, 1, 3)
	if tpl.H() != 1 || tpl.K() != 4 {
		t.Fatalf("H = %d, K = %d", tpl.H(), tpl.K())
	}
	if got := tpl.Forbidden(group.Identity()); got != 1 {
		t.Errorf("τ(e) = %v, want 1", got)
	}
	if got := tpl.Forbidden(group.Word{2}); got != 3 {
		t.Errorf("τ(2) = %v, want 3", got)
	}
	wantFree := map[string][]group.Color{
		"e": {3, 4},
		"2": {1, 4},
	}
	for node, want := range wantFree {
		w := mustWord(t, node)
		got := tpl.FreeColors(w)
		if len(got) != len(want) {
			t.Fatalf("F(%s) = %v, want %v", node, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("F(%s) = %v, want %v", node, got, want)
			}
		}
	}
	if err := Check(tpl, 3); err != nil {
		t.Errorf("Check: %v", err)
	}
}

func TestForbiddenMemoised(t *testing.T) {
	calls := 0
	sys := mustFinite(t, 3, "e")
	tpl := New(sys, 0, func(w group.Word) group.Color {
		calls++
		return 1
	})
	for i := 0; i < 5; i++ {
		if tpl.Forbidden(group.Identity()) != 1 {
			t.Fatal("wrong forbidden colour")
		}
	}
	if calls != 1 {
		t.Errorf("tau called %d times, want 1", calls)
	}
}

func TestCheckRejectsInvalidTemplates(t *testing.T) {
	// Wrong degree: {e, 1, 2} is not 1-regular at e.
	sys := mustFinite(t, 3, "e, 1, 2")
	bad := New(sys, 1, func(group.Word) group.Color { return 3 })
	if err := Check(bad, 2); err == nil {
		t.Error("Check accepted template with wrong degree")
	}

	// Forbidden colour incident to the node.
	one := mustFinite(t, 3, "e, 1")
	bad2 := New(one, 1, func(group.Word) group.Color { return 1 })
	if err := Check(bad2, 2); err == nil {
		t.Error("Check accepted τ(t) ∈ C(T, t)")
	}

	// Forbidden colour out of range.
	bad3 := New(one, 1, func(group.Word) group.Color { return 9 })
	if err := Check(bad3, 2); err == nil {
		t.Error("Check accepted τ(t) ∉ [k]")
	}
}

func TestTranslate(t *testing.T) {
	tpl := oneTemplate(t, 4, 2, 1, 3)
	tr := tpl.Translate(group.Word{2})
	// After translating by u = 2, the old node 2 is the new e.
	if got := tr.Forbidden(group.Identity()); got != 3 {
		t.Errorf("translated τ(e) = %v, want 3", got)
	}
	if got := tr.Forbidden(group.Word{2}); got != 1 {
		t.Errorf("translated τ(2) = %v, want 1", got)
	}
	if err := Check(tr, 2); err != nil {
		t.Errorf("Check(translated): %v", err)
	}
	if tpl.Translate(group.Identity()) != tpl {
		t.Error("Translate by e should return the receiver")
	}
}

func TestConstPickerAndCheck(t *testing.T) {
	tpl := oneTemplate(t, 4, 2, 1, 3)
	// Colour 4 is free at both nodes.
	p := constPicker(4)
	if p.B() != 1 {
		t.Fatalf("B = %d", p.B())
	}
	if err := CheckPicker(tpl, p, 2); err != nil {
		t.Errorf("CheckPicker: %v", err)
	}
	// Colour 3 is forbidden at node 2 — not free there.
	badPick := constPicker(3)
	if err := CheckPicker(tpl, badPick, 2); err == nil {
		t.Error("CheckPicker accepted a non-free pick")
	}
	// Wrong cardinality.
	empty := NewPickerFunc(1, func(group.Word) []group.Color { return nil })
	if err := CheckPicker(tpl, empty, 2); err == nil {
		t.Error("CheckPicker accepted wrong pick size")
	}
}

func TestFullPicker(t *testing.T) {
	tpl := oneTemplate(t, 4, 2, 1, 3)
	p := fullPicker(tpl)
	if p.B() != 2 { // k − h − 1 = 4 − 1 − 1
		t.Fatalf("fullPicker B = %d, want 2", p.B())
	}
	if err := CheckPicker(tpl, p, 3); err != nil {
		t.Errorf("CheckPicker(full): %v", err)
	}
}

func TestDisjointAndUnionPicker(t *testing.T) {
	tpl := pathTemplate(t, 5, []group.Color{1, 2}, []group.Color{2, 1})
	// F at every node is [5] minus two incident colours (from {1,2}) minus
	// τ; τ is the smallest non-incident colour. At e: C = {1, 2}, τ = 3,
	// F = {4, 5}. Interior nodes have C = {1, 2}, so F = {4, 5} everywhere.
	p := constPicker(4)
	q := constPicker(5)
	if !Disjoint(tpl, p, q, 4) {
		t.Error("constPicker(4) and constPicker(5) reported non-disjoint")
	}
	if Disjoint(tpl, p, p, 4) {
		t.Error("picker disjoint with itself")
	}
	u := UnionPicker(p, q)
	if u.B() != 2 {
		t.Fatalf("union B = %d", u.B())
	}
	if err := CheckPicker(tpl, u, 3); err != nil {
		t.Errorf("CheckPicker(union): %v", err)
	}
	got := u.Pick(group.Identity())
	if len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Errorf("union pick = %v, want [4 5]", got)
	}
}

func TestExtensionZeroTemplate(t *testing.T) {
	// Z = {e} with τ = 1 over k = 3; the realisation picks F(e) = {2, 3}
	// and unfolds into the bi-infinite path of alternating colours 2, 3.
	z := mustFinite(t, 3, "e")
	tpl := New(z, 0, func(group.Word) group.Color { return 1 })
	re := Realise(tpl)
	if re.H() != 2 {
		t.Fatalf("realisation H = %d, want 2", re.H())
	}
	if err := colsys.CheckValid(re, 5); err != nil {
		t.Fatalf("realisation invalid: %v", err)
	}
	if !colsys.IsRegular(re, 2, 4) {
		t.Error("realisation of 0-template over k=3 is not 2-regular")
	}
	want, err := colsys.NewPath(3, []group.Color{2, 3}, []group.Color{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !colsys.EqualUpTo(re, want, 6) {
		t.Error("realisation is not the alternating 2–3 path")
	}
	// Projection maps everything to e, and ξ ≡ 1.
	for _, w := range colsys.Nodes(re, 4) {
		proj, ok := re.Project(w)
		if !ok || !proj.IsIdentity() {
			t.Errorf("p(%v) = %v, want e", w, proj)
		}
		if re.Forbidden(w) != 1 {
			t.Errorf("ξ(%v) = %v, want 1", w, re.Forbidden(w))
		}
	}
	// Non-members.
	if re.Contains(group.Word{1}) {
		t.Error("realisation contains colour-1 edge at root")
	}
	if _, ok := re.Project(group.Word{2, 1}); ok {
		t.Error("Project succeeded on non-member")
	}
	if re.Forbidden(group.Word{2, 1}) != group.None {
		t.Error("Forbidden on non-member should be None")
	}
}

func TestExtensionLemma6(t *testing.T) {
	// Lemma 6: ext(T, τ, P) of an h-template with a b-picker is an
	// (h+b)-regular colour system, (X, ξ) is an (h+b)-template, and
	// C(X, x) = C(T, p(x)) ∪ P(p(x)).
	tpl := pathTemplate(t, 5, []group.Color{1, 2}, []group.Color{2, 1})
	p := constPicker(4)
	ext := Extend(tpl, p)

	if ext.H() != 3 {
		t.Fatalf("H = %d, want 3", ext.H())
	}
	if err := colsys.CheckValid(ext, 5); err != nil {
		t.Fatalf("extension invalid: %v", err)
	}
	if !colsys.IsRegular(ext, 3, 4) {
		t.Error("extension is not 3-regular")
	}
	if err := Check(ext.AsTemplate(), 3); err != nil {
		t.Errorf("extension as template: %v", err)
	}
	for _, x := range colsys.Nodes(ext, 4) {
		proj, ok := ext.Project(x)
		if !ok {
			t.Fatalf("member %v has no projection", x)
		}
		want := map[group.Color]struct{}{}
		for _, c := range colsys.Colors(tpl.System(), proj) {
			want[c] = struct{}{}
		}
		for _, c := range p.Pick(proj) {
			want[c] = struct{}{}
		}
		got := colsys.Colors(ext, x)
		if len(got) != len(want) {
			t.Fatalf("C(X, %v) = %v, want C(T,p)∪P(p) of size %d", x, got, len(want))
		}
		for _, c := range got {
			if _, ok := want[c]; !ok {
				t.Fatalf("C(X, %v) contains %v ∉ C(T, p(x)) ∪ P(p(x))", x, c)
			}
		}
		// Observation (h): |x| ≥ |p(x)|.
		if x.Norm() < proj.Norm() {
			t.Errorf("|%v| < |p(x)| = |%v|", x, proj)
		}
	}
}

func TestExtensionLemma7Symmetry(t *testing.T) {
	// Lemma 7: p(x) = p(y) implies x̄X = ȳX and x̄ξ = ȳξ.
	z := mustFinite(t, 4, "e")
	tpl := New(z, 0, func(group.Word) group.Color { return 1 })
	re := Realise(tpl) // 3-regular tree over colours {2,3,4}, all projecting to e

	nodes := colsys.Nodes(re, 3)
	var x, y group.Word
	for _, w := range nodes {
		if w.Norm() == 2 {
			if x == nil {
				x = w
			} else if y == nil {
				y = w
				break
			}
		}
	}
	if x == nil || y == nil {
		t.Fatal("not enough depth-2 nodes")
	}
	xs := colsys.Translate(re, x)
	ys := colsys.Translate(re, y)
	if !colsys.EqualUpTo(xs, ys, 4) {
		t.Errorf("x̄X ≠ ȳX for p(x) = p(y) (x = %v, y = %v)", x, y)
	}
	for _, w := range colsys.Nodes(xs, 3) {
		fx := re.Forbidden(group.Mul(x, w))
		fy := re.Forbidden(group.Mul(y, w))
		if fx != fy {
			t.Errorf("x̄ξ(%v) = %v ≠ ȳξ(%v) = %v", w, fx, w, fy)
		}
	}
}

// LiftPicker test helper appears in Lemma 8: the picker Q ∘ p on an
// extension.
func TestExtensionLemma8Commutation(t *testing.T) {
	// Lemma 8: extending by disjoint pickers commutes — ext(ext(T,P), Q∘p)
	// equals ext(T, P ∪ Q) with composed projections.
	tpl := pathTemplate(t, 6, []group.Color{1, 2}, []group.Color{2, 1})
	// F = [6] \ {1, 2, 3} = {4, 5, 6} everywhere (τ = 3 on every node).
	p := constPicker(4)
	q := constPicker(5)
	if !Disjoint(tpl, p, q, 3) {
		t.Fatal("pickers not disjoint")
	}

	kExt := Extend(tpl, p)                                 // (K, κ, p)
	lExt := Extend(kExt.AsTemplate(), LiftPicker(q, kExt)) // (L, λ, q)
	xExt := Extend(tpl, UnionPicker(p, q))                 // (X, ξ, r)

	if !colsys.EqualUpTo(lExt, xExt, 5) {
		t.Fatal("X ≠ L")
	}
	for _, w := range colsys.Nodes(xExt, 4) {
		// p ∘ q = r.
		qProj, ok := lExt.Project(w)
		if !ok {
			t.Fatalf("L missing %v", w)
		}
		pq, ok := kExt.Project(qProj)
		if !ok {
			t.Fatalf("K missing %v", qProj)
		}
		r, ok := xExt.Project(w)
		if !ok {
			t.Fatalf("X missing %v", w)
		}
		if !pq.Equal(r) {
			t.Errorf("p(q(%v)) = %v ≠ r(%v) = %v", w, pq, w, r)
		}
		// λ = ξ.
		if lExt.Forbidden(w) != xExt.Forbidden(w) {
			t.Errorf("λ(%v) ≠ ξ(%v)", w, w)
		}
	}
}

func TestExtensionProjectConcurrent(t *testing.T) {
	tpl := pathTemplate(t, 5, []group.Color{1, 2, 3}, []group.Color{3, 2, 1})
	ext := Extend(tpl, constPicker(5))
	words := colsys.Nodes(ext, 5)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				w := words[rng.Intn(len(words))]
				if !ext.Contains(w) {
					t.Errorf("member %v reported absent", w)
					return
				}
			}
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

func TestRealisationIsDRegular(t *testing.T) {
	// Realisations of h-templates are always d-regular, d = k − 1, for
	// several h and k.
	cases := []struct {
		name string
		tpl  func(t *testing.T) *Template
		k    int
	}{
		{"0-template k=4", func(t *testing.T) *Template {
			return New(mustFinite(t, 4, "e"), 0, func(group.Word) group.Color { return 2 })
		}, 4},
		{"1-template k=4", func(t *testing.T) *Template { return oneTemplate(t, 4, 2, 1, 3) }, 4},
		{"2-template k=5", func(t *testing.T) *Template {
			return pathTemplate(t, 5, []group.Color{1, 2}, []group.Color{2, 1})
		}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			re := Realise(tc.tpl(t))
			d := tc.k - 1
			if re.H() != d {
				t.Fatalf("H = %d, want %d", re.H(), d)
			}
			if !colsys.IsRegular(re, d, 3) {
				t.Errorf("realisation not %d-regular", d)
			}
		})
	}
}

func BenchmarkExtensionContains(b *testing.B) {
	p, err := colsys.NewPath(5, []group.Color{1, 2}, []group.Color{2, 1})
	if err != nil {
		b.Fatal(err)
	}
	tpl := New(p, 2, func(w group.Word) group.Color { return 3 })
	ext := Extend(tpl, constPicker(4))
	words := colsys.Nodes(ext, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext.Contains(words[i%len(words)])
	}
}

// constPicker returns a picker choosing the same colour set at every node.
// Useful for tests and for the finite base-case templates of §3.8.
func constPicker(colors ...group.Color) Picker {
	set := make([]group.Color, len(colors))
	copy(set, colors)
	return NewPickerFunc(len(set), func(group.Word) []group.Color { return set })
}
