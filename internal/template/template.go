// Package template implements the lower-bound toolbox of Hirvonen & Suomela
// (PODC 2012, §3.2–3.5): templates, colour pickers, extensions, and
// realisations.
//
// An h-template (T, τ) is an h-regular colour system T together with a
// forbidden colour τ(t) ∉ C(T, t) for each node. A b-colour picker P chooses
// b free colours P(t) ⊆ F(T, τ, t) = [k] \ (C(T, t) + τ(t)) for every node.
// The P-extension ext(T, τ, P) = (X, ξ, p) "unfolds" the multigraph obtained
// by adding a self-loop of colour c at t for every c ∈ P(t) (Remark 1 of the
// paper): X is an (h+b)-regular colour system, p : X → T projects each node
// to the template node it covers, and ξ = τ ∘ p.
//
// The realisation (V, p) = real(T, τ) is the extension by the full picker
// P(t) = F(T, τ, t); it is the concrete d-regular problem instance that a
// template schematically represents (d = k − 1 throughout the paper).
//
// Templates, extensions and realisations are all lazy and memoised: the
// infinite trees are never materialised, and membership / projection /
// forbidden-colour queries walk the defining relation ; prefix by prefix.
package template

import (
	"fmt"
	"sync"

	"repro/internal/colsys"
	"repro/internal/group"
)

// ColorFunc maps nodes of a colour system to colours. It must be
// deterministic; it is memoised by the types of this package, so it is
// consulted at most once per node.
type ColorFunc func(w group.Word) group.Color

// Template is an h-template (T, τ). Create instances with New; the zero
// value is not usable.
//
// A Template memoises τ and free-colour queries, so deeply nested
// constructions (extensions of extensions of …) stay tractable.
type Template struct {
	sys colsys.System
	h   int
	tau ColorFunc

	mu      sync.Mutex
	tauMemo map[string]group.Color
}

// New constructs the h-template (T, τ) from an h-regular colour system and
// a forbidden-colour function. It performs no global validation (T may be
// infinite); use Check to verify the template axioms on a window.
func New(sys colsys.System, h int, tau ColorFunc) *Template {
	return &Template{sys: sys, h: h, tau: tau, tauMemo: make(map[string]group.Color)}
}

// System returns the underlying colour system T.
func (t *Template) System() colsys.System { return t.sys }

// H returns h: every node of an h-template has degree exactly h.
func (t *Template) H() int { return t.h }

// K returns the number of colours of the ambient group G_k.
func (t *Template) K() int { return t.sys.K() }

// Forbidden returns τ(w), the forbidden colour of node w ∈ T.
func (t *Template) Forbidden(w group.Word) group.Color {
	key := w.Key()
	t.mu.Lock()
	if c, ok := t.tauMemo[key]; ok {
		t.mu.Unlock()
		return c
	}
	t.mu.Unlock()
	c := t.tau(w)
	t.mu.Lock()
	t.tauMemo[key] = c
	t.mu.Unlock()
	return c
}

// FreeColors returns F(T, τ, w) = [k] \ (C(T, w) + τ(w)) in increasing
// order: the colours that are neither incident to w nor forbidden at w.
func (t *Template) FreeColors(w group.Word) []group.Color {
	forbidden := t.Forbidden(w)
	k := t.K()
	free := make([]group.Color, 0, k-t.h-1)
	for c := group.Color(1); int(c) <= k; c++ {
		if c == forbidden || colsys.HasColor(t.sys, w, c) {
			continue
		}
		free = append(free, c)
	}
	return free
}

// Translate returns the template (ūT, ūτ): the node u becomes the root.
// By Lemma 3 the result is again an h-template when u ∈ T.
func (t *Template) Translate(u group.Word) *Template {
	if u.IsIdentity() {
		return t
	}
	uc := u.Clone()
	return New(colsys.Translate(t.sys, uc), t.h, func(w group.Word) group.Color {
		return t.Forbidden(group.Mul(uc, w))
	})
}

// Check verifies the h-template axioms on the window of nodes with norm
// ≤ maxNorm: T is a valid colour system, every node has degree exactly h,
// and τ(t) ∉ C(T, t) with τ(t) ∈ [k].
func Check(t *Template, maxNorm int) error {
	if err := colsys.CheckValid(t.sys, maxNorm); err != nil {
		return fmt.Errorf("template: %w", err)
	}
	var err error
	colsys.Walk(t.sys, maxNorm, func(w group.Word) bool {
		if deg := colsys.Degree(t.sys, w); deg != t.h {
			err = fmt.Errorf("template: deg(%v) = %d, want h = %d", w, deg, t.h)
			return false
		}
		f := t.Forbidden(w)
		if !f.Valid(t.K()) {
			err = fmt.Errorf("template: τ(%v) = %v outside [k]", w, f)
			return false
		}
		if colsys.HasColor(t.sys, w, f) {
			err = fmt.Errorf("template: τ(%v) = %v is incident to the node", w, f)
			return false
		}
		return true
	})
	return err
}

// Picker is a b-colour picker for a template (§3.2): a function that chooses
// a set of exactly B free colours for every node. Pick must be
// deterministic and safe for concurrent use; callers may assume the result
// is sorted in increasing order.
type Picker interface {
	// B returns the number of colours picked at every node.
	B() int
	// Pick returns P(t) for a node t of the template.
	Pick(t group.Word) []group.Color
}

// PickerFunc adapts a function to the Picker interface, memoising results.
type PickerFunc struct {
	b  int
	fn func(t group.Word) []group.Color

	mu   sync.Mutex
	memo map[string][]group.Color
}

// NewPickerFunc wraps fn as a b-colour picker. fn must return exactly b
// free colours, sorted; this is verified by CheckPicker, not here.
func NewPickerFunc(b int, fn func(t group.Word) []group.Color) *PickerFunc {
	return &PickerFunc{b: b, fn: fn, memo: make(map[string][]group.Color)}
}

// B returns the picker's size.
func (p *PickerFunc) B() int { return p.b }

// Pick returns the memoised P(t).
func (p *PickerFunc) Pick(t group.Word) []group.Color {
	key := t.Key()
	p.mu.Lock()
	if v, ok := p.memo[key]; ok {
		p.mu.Unlock()
		return v
	}
	p.mu.Unlock()
	v := p.fn(t)
	p.mu.Lock()
	p.memo[key] = v
	p.mu.Unlock()
	return v
}

// fullPicker returns the (k−h−1)-colour picker P(t) = F(T, τ, t) that picks
// every free colour; extending by it yields the realisation (§3.5).
func fullPicker(t *Template) Picker {
	return NewPickerFunc(t.K()-t.h-1, t.FreeColors)
}

// Disjoint reports whether two pickers are disjoint on the window of nodes
// with norm ≤ maxNorm: P(t) ∩ Q(t) = ∅ for every node t.
func Disjoint(t *Template, p, q Picker, maxNorm int) bool {
	ok := true
	colsys.Walk(t.System(), maxNorm, func(w group.Word) bool {
		have := make(map[group.Color]struct{}, p.B())
		for _, c := range p.Pick(w) {
			have[c] = struct{}{}
		}
		for _, c := range q.Pick(w) {
			if _, clash := have[c]; clash {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

// UnionPicker returns the picker R(t) = P(t) ∪ Q(t) of two disjoint pickers
// (§3.2). The caller is responsible for disjointness; use Disjoint to
// verify it on a window.
func UnionPicker(p, q Picker) Picker {
	return NewPickerFunc(p.B()+q.B(), func(t group.Word) []group.Color {
		a := p.Pick(t)
		b := q.Pick(t)
		out := make([]group.Color, 0, len(a)+len(b))
		i, j := 0, 0
		for i < len(a) || j < len(b) {
			switch {
			case i == len(a):
				out = append(out, b[j])
				j++
			case j == len(b):
				out = append(out, a[i])
				i++
			case a[i] <= b[j]:
				out = append(out, a[i])
				i++
			default:
				out = append(out, b[j])
				j++
			}
		}
		return out
	})
}

// LiftPicker returns the picker Q ∘ p on an extension (K, κ, p): it picks
// at x ∈ K whatever q picks at the projected template node p(x). This is
// the picker used on the left-hand side of Lemma 8 and in the inductive
// step of §3.9.
func LiftPicker(q Picker, e *Extension) Picker {
	return NewPickerFunc(q.B(), func(x group.Word) []group.Color {
		proj, ok := e.Project(x)
		if !ok {
			return nil
		}
		return q.Pick(proj)
	})
}

// CheckPicker verifies that p is a valid b-colour picker for t on the
// window of norm ≤ maxNorm: every pick has exactly B colours, sorted, and
// P(t) ⊆ F(T, τ, t).
func CheckPicker(t *Template, p Picker, maxNorm int) error {
	var err error
	colsys.Walk(t.System(), maxNorm, func(w group.Word) bool {
		picks := p.Pick(w)
		if len(picks) != p.B() {
			err = fmt.Errorf("template: picker chose %d colours at %v, want %d", len(picks), w, p.B())
			return false
		}
		free := make(map[group.Color]struct{}, t.K())
		for _, c := range t.FreeColors(w) {
			free[c] = struct{}{}
		}
		for i, c := range picks {
			if i > 0 && picks[i-1] >= c {
				err = fmt.Errorf("template: picker output at %v not sorted/distinct: %v", w, picks)
				return false
			}
			if _, ok := free[c]; !ok {
				err = fmt.Errorf("template: picked colour %v at %v is not free", c, w)
				return false
			}
		}
		return true
	})
	return err
}

// Extension is the P-extension (X, ξ, p) = ext(T, τ, P) of §3.3. It is a
// colour system (X), a template (X, ξ) via AsTemplate, and carries the
// projection p : X → T. The zero value is not usable; construct with
// Extend.
type Extension struct {
	base   *Template
	picker Picker

	mu   sync.Mutex
	memo map[string]projEntry
}

type projEntry struct {
	member bool
	proj   group.Word
}

var _ colsys.System = (*Extension)(nil)

// Extend computes ext(T, τ, P). The relation ; of §3.3 is evaluated lazily:
// a node x ∈ G_k belongs to X iff the walk from e that follows the letters
// of x stays inside C(T, t) ∪ P(t) at every intermediate template node t,
// moving along tree edges for colours in C(T, t) and staying put (crossing
// an unfolded self-loop) for colours in P(t).
func Extend(t *Template, p Picker) *Extension {
	return &Extension{base: t, picker: p, memo: map[string]projEntry{
		"": {member: true, proj: nil}, // e ; e
	}}
}

// Realise returns the realisation (V, p) = real(T, τ): the extension by the
// full picker. V is always d-regular for d = k − 1.
func Realise(t *Template) *Extension { return Extend(t, fullPicker(t)) }

// Base returns the template (T, τ) that was extended.
func (e *Extension) Base() *Template { return e.base }

// Picker returns the picker P used for the extension.
func (e *Extension) Picker() Picker { return e.picker }

// K returns the number of colours.
func (e *Extension) K() int { return e.base.K() }

// H returns the regularity h + b of the extension.
func (e *Extension) H() int { return e.base.H() + e.picker.B() }

// Contains reports x ∈ X.
func (e *Extension) Contains(w group.Word) bool {
	_, ok := e.project(w)
	return ok
}

// Project returns p(x), the template node covered by x, and whether x ∈ X.
func (e *Extension) Project(w group.Word) (group.Word, bool) {
	return e.project(w)
}

// Forbidden returns ξ(x) = τ(p(x)). It must only be called with x ∈ X.
func (e *Extension) Forbidden(w group.Word) group.Color {
	proj, ok := e.project(w)
	if !ok {
		return group.None
	}
	return e.base.Forbidden(proj)
}

// AsTemplate returns the (h+b)-template (X, ξ) of Lemma 6.
func (e *Extension) AsTemplate() *Template {
	return New(e, e.H(), e.Forbidden)
}

func (e *Extension) project(w group.Word) (group.Word, bool) {
	key := w.Key()
	e.mu.Lock()
	if entry, ok := e.memo[key]; ok {
		e.mu.Unlock()
		return entry.proj, entry.member
	}
	e.mu.Unlock()

	// Recurse on the prefix; the recursion depth is |w| but every prefix
	// is memoised, so the amortised cost of a probe is O(1) walk steps.
	parent, ok := e.project(w.Pred())
	entry := projEntry{}
	if ok {
		c := w.Tail()
		switch {
		case colsys.HasColor(e.base.System(), parent, c):
			// Tree edge of T: x·c ; t·c.
			entry = projEntry{member: true, proj: parent.Append(c)}
		case pickContains(e.picker.Pick(parent), c):
			// Unfolded self-loop: x·c ; t.
			entry = projEntry{member: true, proj: parent}
		}
	}
	e.mu.Lock()
	e.memo[key] = entry
	e.mu.Unlock()
	return entry.proj, entry.member
}

func pickContains(picks []group.Color, c group.Color) bool {
	for _, p := range picks {
		if p == c {
			return true
		}
	}
	return false
}
