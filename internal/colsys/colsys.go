// Package colsys implements colour systems (Hirvonen & Suomela, PODC 2012,
// §2.2): prefix-closed subsets V ⊆ G_k. A colour system V induces the
// edge-coloured tree Γ_k(V) with node set V and edge set
// E(V) = {{pred(v), v} : v ∈ V − e}; every k-edge-coloured tree arises this
// way up to isomorphism.
//
// Because the paper's constructions (realisations of templates, d-regular
// systems) are infinite trees, a colour system here is an abstract membership
// oracle — the System interface — and everything else (incident colours,
// degrees, balls, enumeration) is derived by probing membership. The package
// provides finite systems with explicit node sets as well as the paper's
// lazy combinators: translation ūV (Lemma 3), restriction V[h], prune(V, c),
// and union.
package colsys

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/group"
)

// System is a colour system V ⊆ G_k: a non-empty, prefix-closed set of
// reduced words over the colours 1…K().
//
// Contains must be called with reduced words only; colours outside 1…K()
// make the word a non-member. Implementations must be safe for concurrent
// use by multiple goroutines, and must be comparable values (pointer types
// recommended) so that algorithms can memoise per system.
type System interface {
	// K returns the number of colours k of the ambient group G_k.
	K() int
	// Contains reports whether the reduced word w is an element of V.
	Contains(w group.Word) bool
}

// Colors returns C(V, v) = {c ∈ [k] : vc ∈ V} = (v̄V)[1] − e, the set of
// edge colours incident to v in Γ_k(V), in increasing order. The caller is
// responsible for v ∈ V; for v ∉ V the result is meaningless.
func Colors(v System, w group.Word) []group.Color {
	var out []group.Color
	for c := group.Color(1); int(c) <= v.K(); c++ {
		if v.Contains(w.Append(c)) {
			out = append(out, c)
		}
	}
	return out
}

// HasColor reports whether c ∈ C(V, v), i.e. whether v has an incident edge
// of colour c in Γ_k(V).
func HasColor(v System, w group.Word, c group.Color) bool {
	return c != group.None && v.Contains(w.Append(c))
}

// Degree returns deg(V, v) = |C(V, v)|.
func Degree(v System, w group.Word) int {
	deg := 0
	for c := group.Color(1); int(c) <= v.K(); c++ {
		if v.Contains(w.Append(c)) {
			deg++
		}
	}
	return deg
}

// Walk enumerates the members of V with norm ≤ maxNorm in shortlex order,
// calling fn for each; if fn returns false the walk stops early. Walk
// exploits prefix closure: children of non-members are never probed.
func Walk(v System, maxNorm int, fn func(w group.Word) bool) {
	if maxNorm < 0 || !v.Contains(group.Identity()) {
		return
	}
	if !fn(group.Identity()) {
		return
	}
	frontier := []group.Word{group.Identity()}
	for r := 1; r <= maxNorm; r++ {
		var next []group.Word
		for _, w := range frontier {
			for c := group.Color(1); int(c) <= v.K(); c++ {
				if c == w.Tail() {
					continue
				}
				child := w.Append(c)
				if !v.Contains(child) {
					continue
				}
				if !fn(child) {
					return
				}
				next = append(next, child)
			}
		}
		frontier = next
	}
}

// Nodes returns the members of V with norm ≤ maxNorm in shortlex order.
func Nodes(v System, maxNorm int) []group.Word {
	var out []group.Word
	Walk(v, maxNorm, func(w group.Word) bool {
		out = append(out, w)
		return true
	})
	return out
}

// EqualUpTo reports whether U[radius] = V[radius], i.e. whether the two
// systems agree on all words of norm ≤ radius. Both systems must share the
// same number of colours, otherwise the result is false.
func EqualUpTo(u, v System, radius int) bool {
	if u.K() != v.K() {
		return false
	}
	equal := true
	// Walking the union of both trees catches members of either side.
	Walk(&union{a: u, b: v, k: u.K()}, radius, func(w group.Word) bool {
		if u.Contains(w) != v.Contains(w) {
			equal = false
			return false
		}
		return true
	})
	return equal
}

// IsRegular reports whether every member of V with norm ≤ maxNorm has
// degree exactly d. (For an infinite system this verifies d-regularity on a
// norm-bounded window; degrees at the window boundary are still exact
// because Contains answers at any norm.)
func IsRegular(v System, d, maxNorm int) bool {
	regular := true
	Walk(v, maxNorm, func(w group.Word) bool {
		if Degree(v, w) != d {
			regular = false
			return false
		}
		return true
	})
	return regular
}

// CheckValid verifies the colour-system axioms on the window of norm
// ≤ maxNorm: e ∈ V, every member is a reduced word over 1…k, and V is
// prefix-closed (v ∈ V − e implies pred(v) ∈ V). It scans the full ball of
// Γ_k, so keep k and maxNorm small.
func CheckValid(v System, maxNorm int) error {
	if !v.Contains(group.Identity()) {
		return fmt.Errorf("colsys: e ∉ V")
	}
	for _, w := range group.Ball(v.K(), maxNorm) {
		if w.IsIdentity() || !v.Contains(w) {
			continue
		}
		if !v.Contains(w.Pred()) {
			return fmt.Errorf("colsys: not prefix-closed: %v ∈ V but pred %v ∉ V", w, w.Pred())
		}
	}
	return nil
}

// Finite is a colour system with an explicitly enumerated node set.
type Finite struct {
	k     int
	nodes map[string]struct{}
}

var _ System = (*Finite)(nil)

// NewFinite builds a finite colour system over k colours from the given
// words. It validates that all words are reduced with colours in 1…k, that
// the set contains e (it is added implicitly), and that the set is
// prefix-closed.
func NewFinite(k int, words []group.Word) (*Finite, error) {
	if k < 1 {
		return nil, fmt.Errorf("colsys: k = %d, need k ≥ 1", k)
	}
	f := &Finite{k: k, nodes: make(map[string]struct{}, len(words)+1)}
	f.nodes[""] = struct{}{} // e
	for _, w := range words {
		if !w.IsReduced(k) {
			return nil, fmt.Errorf("colsys: word %v is not a reduced word over %d colours", w, k)
		}
		f.nodes[w.Key()] = struct{}{}
	}
	for key := range f.nodes {
		w := group.FromKey(key)
		if w.IsIdentity() {
			continue
		}
		if _, ok := f.nodes[w.Pred().Key()]; !ok {
			return nil, fmt.Errorf("colsys: not prefix-closed: %v present, pred %v missing", w, w.Pred())
		}
	}
	return f, nil
}

// ParseFinite builds a finite colour system from a comma-separated list of
// words in the notation of group.Parse, e.g. "e, 1, 2, 2·1, 3, 3·1, 3·2".
func ParseFinite(k int, list string) (*Finite, error) {
	var words []group.Word
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		w, err := group.Parse(part)
		if err != nil {
			return nil, err
		}
		words = append(words, w)
	}
	return NewFinite(k, words)
}

// K returns the number of colours.
func (f *Finite) K() int { return f.k }

// Contains reports membership.
func (f *Finite) Contains(w group.Word) bool {
	_, ok := f.nodes[w.Key()]
	return ok
}

// Len returns |V|.
func (f *Finite) Len() int { return len(f.nodes) }

// Words returns the node set in shortlex order.
func (f *Finite) Words() []group.Word {
	out := make([]group.Word, 0, len(f.nodes))
	for key := range f.nodes {
		out = append(out, group.FromKey(key))
	}
	sort.Slice(out, func(i, j int) bool { return group.Less(out[i], out[j]) })
	return out
}

// String renders the node set in shortlex order, e.g. "{e, 1, 2, 2·1}".
func (f *Finite) String() string {
	words := f.Words()
	parts := make([]string, len(words))
	for i, w := range words {
		parts[i] = w.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Full returns the full colour system V = G_k, whose tree Γ_k(V) is the
// entire Cayley graph Γ_k: the infinite k-regular k-edge-coloured tree.
func Full(k int) System { return full(k) }

type full int

func (f full) K() int { return int(f) }

func (f full) Contains(w group.Word) bool { return w.IsReduced(int(f)) }

// Translate returns ūV = {ūv : v ∈ V}, which is again a colour system when
// u ∈ V, and x ↦ ūx is a colour-preserving isomorphism from Γ_k(V) to
// Γ_k(ūV) (Lemma 3). The result is lazy: membership delegates to V.
func Translate(v System, u group.Word) System {
	if u.IsIdentity() {
		return v
	}
	if t, ok := v.(*translated); ok {
		// ū(t̄V) = (t·u)‾V: collapse nested translations.
		return Translate(t.inner, group.Mul(t.u, u))
	}
	return &translated{inner: v, u: u.Clone()}
}

type translated struct {
	inner System
	u     group.Word
}

func (t *translated) K() int { return t.inner.K() }

func (t *translated) Contains(w group.Word) bool {
	return t.inner.Contains(group.Mul(t.u, w))
}

// Restrict returns V[h] = {v ∈ V : |v| ≤ h}, which is again a colour system.
func Restrict(v System, h int) System { return &restricted{inner: v, h: h} }

type restricted struct {
	inner System
	h     int
}

func (r *restricted) K() int { return r.inner.K() }

func (r *restricted) Contains(w group.Word) bool {
	return w.Norm() <= r.h && r.inner.Contains(w)
}

// Prune returns prune(V, c) = {v ∈ V − e : head(v) ≠ c} + e: the system
// with the branch of colour c at the root removed (§2.2). If V is d-regular
// then every non-root node of the result has degree d and the root has
// degree d − 1.
func Prune(v System, c group.Color) System { return &pruned{inner: v, c: c} }

type pruned struct {
	inner System
	c     group.Color
}

func (p *pruned) K() int { return p.inner.K() }

func (p *pruned) Contains(w group.Word) bool {
	if w.IsIdentity() {
		return true
	}
	return w.Head() != p.c && p.inner.Contains(w)
}

// Union returns A ∪ B. Both systems must have the same number of colours;
// the union of two colour systems is again a colour system (both are
// prefix-closed and contain e).
func Union(a, b System) (System, error) {
	if a.K() != b.K() {
		return nil, fmt.Errorf("colsys: union of systems over %d and %d colours", a.K(), b.K())
	}
	return &union{a: a, b: b, k: a.K()}, nil
}

type union struct {
	a, b System
	k    int
}

func (u *union) K() int { return u.k }

func (u *union) Contains(w group.Word) bool {
	return u.a.Contains(w) || u.b.Contains(w)
}

// Ball materialises (v̄V)[h] — the radius-h view of V from v ∈ V, which is
// itself a colour system (§2.3) — as a finite system. It returns an error
// if v ∉ V.
func Ball(v System, at group.Word, h int) (*Finite, error) {
	if !v.Contains(at) {
		return nil, fmt.Errorf("colsys: ball centre %v ∉ V", at)
	}
	translatedSys := Translate(v, at)
	words := Nodes(translatedSys, h)
	return NewFinite(v.K(), words)
}
