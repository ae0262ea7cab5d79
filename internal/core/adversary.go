// Package core implements the primary contribution of Hirvonen & Suomela,
// "Distributed maximal matching: greedy is optimal" (PODC 2012): the
// lower-bound construction of Section 3, executed as a program.
//
// Given any deterministic distributed maximal-matching algorithm A (an
// mm.Algorithm), the Adversary builds — level by level, h = 1 … d with
// d = k − 1 — a sequence of h-critical pairs of h-templates (§3.7), ending
// with two d-regular k-colour systems U and V such that
//
//	U[d] = V[d],   A(U, e) ≠ ⊥,   A(V, e) = ⊥.
//
// Since the radius-d views of the root agree while the outputs differ, A's
// running time is at least d = k − 1 rounds (Theorem 5, hence Theorem 2):
// the trivial greedy algorithm is optimal.
//
// The construction assumes A is a *correct* maximal-matching algorithm. The
// implementation checks the assumptions as it uses them; when one fails it
// returns an IncorrectnessError carrying a concrete counterexample (a
// colour system and a node where one of the properties (M1)–(M3) breaks),
// so the adversary doubles as a certifier of incorrectness.
package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/colsys"
	"repro/internal/group"
	"repro/internal/mm"
	"repro/internal/template"
)

// Adversary executes the Section 3 lower-bound construction against one
// algorithm for one value of k. Construct with New. An Adversary is safe
// for use from a single goroutine; create one per run.
type Adversary struct {
	alg mm.Algorithm
	k   int
	d   int

	// searchLimit caps the norm of the Lemma 12 search for the unmatched
	// node y. For a correct algorithm with running time r a witness exists
	// with |y| ≤ r + 2.
	searchLimit int
	// paranoia, when ≥ 0, re-verifies every intermediate object (templates,
	// pickers, compatibility) on windows of that radius.
	paranoia int
	trace    func(format string, args ...any)

	mu           sync.Mutex
	realisations map[*template.Template]*template.Extension
	deferred     error
}

// Option configures an Adversary.
type Option func(*Adversary)

// WithParanoia enables re-verification of every intermediate construction
// on windows of the given radius. Expensive; intended for tests.
func WithParanoia(radius int) Option {
	return func(a *Adversary) { a.paranoia = radius }
}

// WithTrace installs a progress logger.
func WithTrace(fn func(format string, args ...any)) Option {
	return func(a *Adversary) { a.trace = fn }
}

// New constructs an adversary for algorithm alg on k-edge-coloured
// instances. Theorem 5 requires k ≥ 3; use LemmaFour for k = 2.
func New(alg mm.Algorithm, k int, opts ...Option) (*Adversary, error) {
	if k < 3 {
		return nil, fmt.Errorf("core: Theorem 5 requires k ≥ 3, got %d (see LemmaFour for k ≤ 2)", k)
	}
	if group.Color(k) > group.MaxColor {
		return nil, fmt.Errorf("core: k = %d exceeds the supported maximum %d", k, group.MaxColor)
	}
	a := &Adversary{
		alg:          alg,
		k:            k,
		d:            k - 1,
		searchLimit:  alg.RunningTime(k) + 2,
		paranoia:     -1,
		realisations: make(map[*template.Template]*template.Extension),
	}
	for _, opt := range opts {
		opt(a)
	}
	return a, nil
}

// IncorrectnessError reports that the algorithm under test is not a correct
// maximal-matching algorithm. Evidence, when non-nil, is a concrete
// (M1)–(M3) violation on a specific colour system.
type IncorrectnessError struct {
	Algorithm string
	Stage     string
	Evidence  *mm.ViolationError
	// System is the colour system on which the evidence was found (nil if
	// the failure was detected indirectly).
	System colsys.System
	Detail string
}

// Error implements the error interface.
func (e *IncorrectnessError) Error() string {
	msg := fmt.Sprintf("core: algorithm %q is not a maximal-matching algorithm (stage %s): %s",
		e.Algorithm, e.Stage, e.Detail)
	if e.Evidence != nil {
		msg += ": " + e.Evidence.Error()
	}
	return msg
}

// Pair is an h-critical pair (§3.7): two h-compatible h-templates such that
// A leaves the root of T's realisation unmatched relative to T (property
// C3) while matching every node of S's realisation (property C4).
type Pair struct {
	H int
	S *template.Template // the "perfectly matched" side
	T *template.Template // the "root unmatched" side

	// Construction provenance (informational; zero values at the base case):
	Chi   group.Color // χ = A(T_{h−1}, τ_{h−1}, e) used at this step
	Y     group.Word  // the Lemma 12 witness node
	FromK bool        // whether Y lay in K1 (else L1)
}

// Result is the outcome of the full Theorem 5 construction.
type Result struct {
	K, D  int
	Pairs []*Pair // levels h = 1 … d

	// U = S_d and V = T_d: d-regular k-colour systems with U[d] = V[d] on
	// which the algorithm answers differently at the root.
	U, V       *template.Template
	OutU, OutV mm.Output
}

// Run executes the full construction: base case (§3.8), then inductive
// steps (§3.9) up to level d, and finally extracts U, V and the outputs at
// the root. It returns an *IncorrectnessError if the algorithm is caught
// violating (M1)–(M3) along the way.
func (a *Adversary) Run() (*Result, error) {
	pair, err := a.BaseCase()
	if err != nil {
		return nil, err
	}
	pairs := []*Pair{pair}
	for pair.H < a.d {
		pair, err = a.Inductive(pair)
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, pair)
	}
	res := &Result{
		K: a.k, D: a.d, Pairs: pairs,
		U: pair.S, V: pair.T,
		OutU: a.EvalTemplate(pair.S, group.Identity()),
		OutV: a.EvalTemplate(pair.T, group.Identity()),
	}
	if err := a.flush(); err != nil {
		return nil, err
	}
	a.tracef("level %d reached: A(U,e) = %v, A(V,e) = %v", a.d, res.OutU, res.OutV)
	return res, nil
}

// EvalTemplate returns A(T, τ, t): the algorithm's output at any node of
// the realisation's equivalence class p⁻¹(t) (§3.5, Corollary 2). The node
// t itself always lies in that class, so A(T, τ, t) = A(real(T, τ), t).
func (a *Adversary) EvalTemplate(t *template.Template, at group.Word) mm.Output {
	return a.alg.Eval(a.Realisation(t), at)
}

// Realisation returns the memoised realisation real(T, τ) of a template.
func (a *Adversary) Realisation(t *template.Template) *template.Extension {
	a.mu.Lock()
	defer a.mu.Unlock()
	re, ok := a.realisations[t]
	if !ok {
		re = template.Realise(t)
		a.realisations[t] = re
	}
	return re
}

func (a *Adversary) tracef(format string, args ...any) {
	if a.trace != nil {
		a.trace(format, args...)
	}
}

// note records an incorrectness error discovered inside a lazily evaluated
// construction (e.g. a picker consulted during a later level's membership
// walk). The first recorded error wins and is surfaced at the next step
// boundary.
func (a *Adversary) note(err error) {
	a.mu.Lock()
	if a.deferred == nil {
		a.deferred = err
	}
	a.mu.Unlock()
}

// flush returns the first deferred error, if any.
func (a *Adversary) flush() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.deferred
}

// incorrect builds an IncorrectnessError, attempting to locate concrete
// (M1)–(M3) evidence on the given system around the given node.
func (a *Adversary) incorrect(stage string, sys colsys.System, near group.Word, detail string) error {
	e := &IncorrectnessError{
		Algorithm: a.alg.Name(),
		Stage:     stage,
		System:    sys,
		Detail:    detail,
	}
	if sys != nil {
		eval := func(w group.Word) mm.Output { return a.alg.Eval(sys, w) }
		if err := mm.CheckNode(eval, sys, near); err != nil {
			var v *mm.ViolationError
			if errors.As(err, &v) {
				e.Evidence = v
			}
		}
	}
	return e
}

// --- Zero-templates and Lemma 10 (§3.6) ------------------------------------

// ZeroTemplate returns the 0-template (Z, ĉ) with Z = {e} and forbidden
// colour c at the single node. Its realisation is the (k−1)-regular
// infinite tree over the colours [k] − c.
func (a *Adversary) ZeroTemplate(c group.Color) (*template.Template, error) {
	if !c.Valid(a.k) {
		return nil, fmt.Errorf("core: zero-template colour %v outside 1…%d", c, a.k)
	}
	z, err := colsys.NewFinite(a.k, nil)
	if err != nil {
		return nil, err
	}
	return template.New(z, 0, func(group.Word) group.Color { return c }), nil
}

// Lemma10 finds distinct colours c1, c2, c3 with A(Z, ĉ1, e) = c2 and
// A(Z, ĉ3, e) ≠ c2, together with c4 = A(Z, ĉ3, e) (§3.6 / §3.8).
func (a *Adversary) Lemma10() (c1, c2, c3, c4 group.Color, err error) {
	// h(c) = A(Z, ĉ, e). By Lemma 9, h(c) ∈ [k]; by (M1) on the
	// realisation (whose root is incident to every colour except c),
	// h(c) ≠ c: h is a fixed-point-free function [k] → [k].
	h := make([]group.Color, a.k+1)
	eval := func(c group.Color) (group.Color, error) {
		if h[c] != group.None {
			return h[c], nil
		}
		zt, zerr := a.ZeroTemplate(c)
		if zerr != nil {
			return group.None, zerr
		}
		out := a.EvalTemplate(zt, group.Identity())
		if !out.IsMatched() {
			return group.None, a.incorrect("lemma10", a.Realisation(zt), group.Identity(),
				fmt.Sprintf("A(Z, %v̂, e) = ⊥, contradicting Lemma 9", c))
		}
		if out.Color == c || !out.Color.Valid(a.k) {
			return group.None, a.incorrect("lemma10", a.Realisation(zt), group.Identity(),
				fmt.Sprintf("A(Z, %v̂, e) = %v violates (M1): colour not incident", c, out))
		}
		h[c] = out.Color
		return out.Color, nil
	}

	h1, err := eval(1)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	hh1, err := eval(h1)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if hh1 != 1 {
		// First case: c1 = h(1), c2 = h(h(1)), c3 = 1.
		c1, c2, c3 = h1, hh1, 1
	} else {
		// Second case: pick any c ∉ {1, h(1)} (k ≥ 3 guarantees one).
		var c group.Color
		for x := group.Color(1); int(x) <= a.k; x++ {
			if x != 1 && x != h1 {
				c = x
				break
			}
		}
		hc, herr := eval(c)
		if herr != nil {
			return 0, 0, 0, 0, herr
		}
		if hc == h1 {
			c1, c2, c3 = h1, 1, c
		} else {
			c1, c2, c3 = 1, h1, c
		}
	}
	c4, err = eval(c3)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if c1 == c2 || c2 == c3 || c1 == c3 || c4 == c2 {
		// Cannot happen for a deterministic algorithm satisfying the
		// properties checked above; guard against inconsistent Evals.
		return 0, 0, 0, 0, a.incorrect("lemma10", nil, nil,
			fmt.Sprintf("inconsistent zero-template outputs: c1=%v c2=%v c3=%v c4=%v", c1, c2, c3, c4))
	}
	a.tracef("Lemma 10: c1=%v c2=%v c3=%v c4=%v", c1, c2, c3, c4)
	return c1, c2, c3, c4, nil
}

// --- Base case (§3.8) -------------------------------------------------------

// BaseCase constructs a 1-critical pair (S1, σ1), (T1, τ1) following §3.8.
func (a *Adversary) BaseCase() (*Pair, error) {
	c1, c2, c3, _, err := a.Lemma10()
	if err != nil {
		return nil, err
	}

	// K = L = X = {e, c2} with κ ≡ c1 on both nodes, λ ≡ c3 on both nodes,
	// ξ(e) = c1 and ξ(c2) = c3.
	base, err := colsys.NewFinite(a.k, []group.Word{{c2}})
	if err != nil {
		return nil, err
	}
	kappa := template.New(base, 1, func(group.Word) group.Color { return c1 })
	lambda := template.New(base, 1, func(group.Word) group.Color { return c3 })
	xi := template.New(base, 1, func(w group.Word) group.Color {
		if w.IsIdentity() {
			return c1
		}
		return c3
	})

	// (K, κ, p) = ext(Z, ĉ1, P) and (L, λ, p) = ext(Z, ĉ3, P) with
	// P(e) = {c2}, so by Corollary 3: A(K, κ, ·) ≡ c2 and A(L, λ, ·) ≡ c4.
	var pair *Pair
	if out := a.EvalTemplate(xi, group.Identity()); out != mm.Matched(c2) {
		// Case (i): S1 = (K, κ), T1 = (X, ξ).
		pair = &Pair{H: 1, S: kappa, T: xi}
		a.tracef("base case (i): A(X, ξ, e) = %v ≠ %v", out, c2)
	} else {
		// Case (ii): S1 = (c̄2 X, c̄2 ξ), T1 = (c̄2 L, c̄2 λ).
		u := group.Word{c2}
		pair = &Pair{H: 1, S: xi.Translate(u), T: lambda.Translate(u)}
		a.tracef("base case (ii): A(X, ξ, e) = %v", out)
	}

	if a.paranoia >= 0 {
		if err := a.VerifyPair(pair, a.paranoia); err != nil {
			return nil, err
		}
	}
	return pair, nil
}

// --- Inductive step (§3.9) --------------------------------------------------

// stepParts are the intermediates of one §3.9 inductive step.
type stepParts struct {
	stage         string
	h             int
	sh, th        *template.Template
	p, q          template.Picker
	kExt, lExt    *template.Extension
	kappa, lambda *template.Template
	xTpl          *template.Template
	chi           group.Color
}

// buildStep constructs the §3.9 intermediates: the pickers P and Q, the
// extensions K and L, and the glued template X = K1 ∪ L1.
func (a *Adversary) buildStep(prev *Pair) (*stepParts, error) {
	h := prev.H
	stage := fmt.Sprintf("inductive(h=%d)", h)
	sh, th := prev.S, prev.T

	// χ = A(T_h, τ_h, e) ∈ F(T_h, τ_h, e): by (C3) the output is not an
	// incident colour, by Lemma 9 it is not ⊥, and by (M1) on the
	// realisation it is then a free colour.
	chiOut := a.EvalTemplate(th, group.Identity())
	if !chiOut.IsMatched() {
		return nil, a.incorrect(stage, a.Realisation(th), group.Identity(),
			"A(T_h, τ_h, e) = ⊥, contradicting Lemma 9")
	}
	chi := chiOut.Color
	if !a.isFree(th, group.Identity(), chi) {
		return nil, a.incorrect(stage, a.Realisation(th), group.Identity(),
			fmt.Sprintf("χ = %v is not a free colour of (T_h, τ_h) at e", chi))
	}

	// Q: a 1-colour picker for (T_h, τ_h). Q(t) = {A(T_h, τ_h, t)} when
	// that output is free at t; otherwise the smallest free colour.
	q := template.NewPickerFunc(1, func(t group.Word) []group.Color {
		out := a.EvalTemplate(th, t)
		if !out.IsMatched() {
			// Lemma 9 says this cannot happen for a correct algorithm.
			// Record the violation (surfaced at the next step boundary)
			// and fall back to a free colour so the walk can continue.
			a.note(a.incorrect(stage, a.Realisation(th), t,
				fmt.Sprintf("A(T_h, τ_h, %v) = ⊥, contradicting Lemma 9", t)))
			return th.FreeColors(t)[:1]
		}
		if a.isFree(th, t, out.Color) {
			return []group.Color{out.Color}
		}
		return th.FreeColors(t)[:1]
	})

	// P: a 1-colour picker for (S_h, σ_h). For |s| ≤ h−1 the two templates
	// coincide (C1, C2), so P(s) = Q(s); deeper nodes pick the smallest
	// free colour.
	p := template.NewPickerFunc(1, func(s group.Word) []group.Color {
		if s.Norm() <= h-1 {
			return q.Pick(s)
		}
		return sh.FreeColors(s)[:1]
	})

	// K = ext(S_h, σ_h, P) and L = ext(T_h, τ_h, Q), as (h+1)-templates.
	kExt := template.Extend(sh, p)
	lExt := template.Extend(th, q)
	kappa := kExt.AsTemplate()
	lambda := lExt.AsTemplate()

	// X = K1 ∪ L1 with K1 = prune(K, χ) and L1 = χ·prune(χ̄L, χ), i.e. the
	// nodes of K whose head is not χ together with the χ-branch of L.
	chiWord := group.Word{chi}
	k1 := colsys.Prune(kExt, chi)
	l1 := colsys.Translate(colsys.Prune(colsys.Translate(lExt, chiWord), chi), chiWord)
	xSys, err := colsys.Union(k1, l1)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", stage, err)
	}
	xTpl := template.New(xSys, h+1, func(w group.Word) group.Color {
		if w.Head() == chi {
			return lambda.Forbidden(w)
		}
		return kappa.Forbidden(w)
	})

	return &stepParts{
		stage: stage, h: h, sh: sh, th: th, p: p, q: q,
		kExt: kExt, lExt: lExt, kappa: kappa, lambda: lambda,
		xTpl: xTpl, chi: chi,
	}, nil
}

// Inductive constructs an (h+1)-critical pair from an h-critical pair,
// 1 ≤ h < d, following §3.9.
func (a *Adversary) Inductive(prev *Pair) (*Pair, error) {
	if prev.H >= a.d {
		return nil, fmt.Errorf("core: inductive step requires h < d = %d, got h = %d", a.d, prev.H)
	}
	if err := a.flush(); err != nil {
		return nil, err
	}
	parts, err := a.buildStep(prev)
	if err != nil {
		return nil, err
	}
	h, stage, chi := parts.h, parts.stage, parts.chi

	if a.paranoia >= 0 {
		if err := a.verifyInductiveIntermediates(parts); err != nil {
			return nil, err
		}
	}

	// Lemma 12: search for y ∈ X with A(X, ξ, y) ∉ C(X, y), in shortlex
	// order. For a correct algorithm with running time r a witness exists
	// among the endpoints of "near" matched edges, all of norm ≤ r + 2.
	y, found := a.findUnmatched(parts.xTpl)
	if err := a.flush(); err != nil {
		return nil, err
	}
	if !found {
		return nil, a.incorrect(stage, a.Realisation(parts.xTpl), group.Identity(),
			fmt.Sprintf("no unmatched node found in X within norm %d, contradicting Lemma 12", a.searchLimit))
	}
	fromK := y.Head() != chi // e has Head None ≠ χ, and e ∈ K1

	// (S_{h+1}, σ_{h+1}) and (T_{h+1}, τ_{h+1}): translate so y becomes e.
	var next *Pair
	if fromK {
		next = &Pair{H: h + 1, S: parts.kappa.Translate(y), T: parts.xTpl.Translate(y), Chi: chi, Y: y, FromK: true}
	} else {
		next = &Pair{H: h + 1, S: parts.lambda.Translate(y), T: parts.xTpl.Translate(y), Chi: chi, Y: y, FromK: false}
	}
	a.tracef("inductive h=%d→%d: χ=%v, y=%v (side %s)", h, h+1, chi, y, map[bool]string{true: "K1", false: "L1"}[fromK])

	if a.paranoia >= 0 {
		if err := a.VerifyPair(next, a.paranoia); err != nil {
			return nil, err
		}
	}
	return next, nil
}

// isFree reports whether c ∈ F(T, τ, t).
func (a *Adversary) isFree(t *template.Template, at group.Word, c group.Color) bool {
	if !c.Valid(a.k) || c == t.Forbidden(at) {
		return false
	}
	return !colsys.HasColor(t.System(), at, c)
}

// findUnmatched searches X in shortlex order for a node whose output under
// A (relative to the template (X, ξ)) is not an incident colour.
func (a *Adversary) findUnmatched(xTpl *template.Template) (group.Word, bool) {
	var y group.Word
	found := false
	colsys.Walk(xTpl.System(), a.searchLimit, func(w group.Word) bool {
		out := a.EvalTemplate(xTpl, w)
		if !out.IsMatched() || !colsys.HasColor(xTpl.System(), w, out.Color) {
			y = w
			found = true
			return false
		}
		return true
	})
	return y, found
}

// verifyInductiveIntermediates re-checks the §3.9 objects on a window:
// pickers are valid and agree where required, K, L, X are (h+1)-templates,
// K and L are h-compatible, {e, χ} is an edge of both K and L, and
// Corollary 3 holds (extensions preserve the algorithm's outputs).
func (a *Adversary) verifyInductiveIntermediates(parts *stepParts) error {
	stage, chi := parts.stage, parts.chi
	radius := a.paranoia
	if err := template.CheckPicker(parts.th, parts.q, radius); err != nil {
		return fmt.Errorf("core: %s: picker Q invalid: %w", stage, err)
	}
	if err := template.CheckPicker(parts.sh, parts.p, radius); err != nil {
		return fmt.Errorf("core: %s: picker P invalid: %w", stage, err)
	}
	for _, tpl := range []*template.Template{parts.kappa, parts.lambda, parts.xTpl} {
		if err := template.Check(tpl, radius); err != nil {
			return fmt.Errorf("core: %s: intermediate template invalid: %w", stage, err)
		}
	}
	// Observation (b): K and L are h-compatible.
	hh := parts.kappa.H() - 1
	if !colsys.EqualUpTo(parts.kappa.System(), parts.lambda.System(), hh) {
		return fmt.Errorf("core: %s: K[h] ≠ L[h]", stage)
	}
	// Observation (c): {e, χ} ∈ E(K) ∩ E(L).
	if !colsys.HasColor(parts.kappa.System(), group.Identity(), chi) ||
		!colsys.HasColor(parts.lambda.System(), group.Identity(), chi) {
		return fmt.Errorf("core: %s: χ = %v is not an edge at e of both K and L", stage, chi)
	}
	// Corollary 3: A(K, κ, x) = A(S_h, σ_h, p(x)) — a template and its
	// extensions have the same realisations, so outputs project through.
	var corErr error
	colsys.Walk(parts.kExt, radius, func(x group.Word) bool {
		proj, ok := parts.kExt.Project(x)
		if !ok {
			corErr = fmt.Errorf("core: %s: %v ∈ K has no projection", stage, x)
			return false
		}
		if got, want := a.EvalTemplate(parts.kappa, x), a.EvalTemplate(parts.sh, proj); got != want {
			corErr = fmt.Errorf("core: %s: Corollary 3 fails: A(K,κ,%v) = %v ≠ A(S,σ,%v) = %v",
				stage, x, got, proj, want)
			return false
		}
		return true
	})
	return corErr
}

// --- Verification -----------------------------------------------------------

// VerifyPair checks the h-critical-pair properties (C1)–(C4) of §3.7 on a
// window: S[h] = T[h]; σ[h−1] = τ[h−1]; A(T, τ, e) ∉ C(T, e); and
// A(S, σ, s) ∈ C(S, s) for every s ∈ S with norm ≤ radius. It also checks
// that both sides are valid h-templates up to the radius.
func (a *Adversary) VerifyPair(pair *Pair, radius int) error {
	h := pair.H
	s, t := pair.S, pair.T
	if err := template.Check(s, radius); err != nil {
		return fmt.Errorf("core: level %d: S is not an %d-template: %w", h, h, err)
	}
	if err := template.Check(t, radius); err != nil {
		return fmt.Errorf("core: level %d: T is not an %d-template: %w", h, h, err)
	}
	// (C1).
	if !colsys.EqualUpTo(s.System(), t.System(), h) {
		return fmt.Errorf("core: level %d: S[%d] ≠ T[%d] (C1)", h, h, h)
	}
	// (C2).
	for _, w := range colsys.Nodes(s.System(), h-1) {
		if s.Forbidden(w) != t.Forbidden(w) {
			return fmt.Errorf("core: level %d: σ(%v) = %v ≠ τ(%v) = %v (C2)",
				h, w, s.Forbidden(w), w, t.Forbidden(w))
		}
	}
	// (C3).
	if out := a.EvalTemplate(t, group.Identity()); out.IsMatched() &&
		colsys.HasColor(t.System(), group.Identity(), out.Color) {
		return fmt.Errorf("core: level %d: A(T, τ, e) = %v ∈ C(T, e) (C3)", h, out)
	}
	// (C4).
	var c4err error
	colsys.Walk(s.System(), radius, func(w group.Word) bool {
		out := a.EvalTemplate(s, w)
		if !out.IsMatched() || !colsys.HasColor(s.System(), w, out.Color) {
			c4err = fmt.Errorf("core: level %d: A(S, σ, %v) = %v ∉ C(S, %v) (C4)", h, w, out, w)
			return false
		}
		return true
	})
	return c4err
}

// Verify checks the Theorem 5 conclusion carried by a Result: U and V are
// d-regular k-colour systems agreeing on the radius-d ball of the root,
// with A(U, e) ≠ ⊥ and A(V, e) = ⊥.
func (r *Result) Verify(a *Adversary) error {
	u, v := r.U.System(), r.V.System()
	if !colsys.IsRegular(u, r.D, r.D) {
		return fmt.Errorf("core: U is not %d-regular", r.D)
	}
	if !colsys.IsRegular(v, r.D, r.D) {
		return fmt.Errorf("core: V is not %d-regular", r.D)
	}
	if !colsys.EqualUpTo(u, v, r.D) {
		return fmt.Errorf("core: U[%d] ≠ V[%d]", r.D, r.D)
	}
	if !r.OutU.IsMatched() {
		return fmt.Errorf("core: A(U, e) = ⊥, want matched")
	}
	if r.OutV.IsMatched() {
		return fmt.Errorf("core: A(V, e) = %v, want ⊥", r.OutV)
	}
	// The outputs must be reproducible.
	if got := a.EvalTemplate(r.U, group.Identity()); got != r.OutU {
		return fmt.Errorf("core: A(U, e) changed between evaluations: %v vs %v", got, r.OutU)
	}
	if got := a.EvalTemplate(r.V, group.Identity()); got != r.OutV {
		return fmt.Errorf("core: A(V, e) changed between evaluations: %v vs %v", got, r.OutV)
	}
	return nil
}
