// Package view formalises local views (§2.3 of Hirvonen & Suomela, PODC
// 2012): the radius-h information (v̄V)[h] available to a node after h−1
// communication rounds.
//
// Because colour systems are rigid — every node of Γ_k(V) is addressed by
// the unique reduced colour word of its path from the root — a view is
// simply a finite, prefix-closed word set, and two views are isomorphic
// exactly when the sets are equal. That makes canonical forms trivial
// (sorted word lists) and locality arguments executable: the
// CheckIndistinguishable verifier turns "equal views force equal outputs"
// — the engine behind Theorem 5 — into a reusable assertion.
//
// EnumerateBalls generates every radius-h view that can occur at a node of
// a d-regular k-colour system: the node set of the neighbourhood graphs of
// Linial (1992) that Remark 2 of the paper alludes to.
package view

import (
	"fmt"
	"strings"

	"repro/internal/colsys"
	"repro/internal/group"
	"repro/internal/mm"
)

// Canonical returns a canonical string form of the view (at̄V)[radius]:
// the shortlex-sorted member list. Two views are indistinguishable to a
// distributed algorithm iff their canonical forms are equal.
func Canonical(v colsys.System, at group.Word, radius int) (string, error) {
	ball, err := colsys.Ball(v, at, radius)
	if err != nil {
		return "", fmt.Errorf("view: %w", err)
	}
	words := ball.Words()
	parts := make([]string, len(words))
	for i, w := range words {
		parts[i] = w.String()
	}
	return strings.Join(parts, ","), nil
}

// equal reports whether two nodes have identical radius-h views.
func equal(a colsys.System, atA group.Word, b colsys.System, atB group.Word, radius int) (bool, error) {
	ballA, err := colsys.Ball(a, atA, radius)
	if err != nil {
		return false, fmt.Errorf("view: %w", err)
	}
	ballB, err := colsys.Ball(b, atB, radius)
	if err != nil {
		return false, fmt.Errorf("view: %w", err)
	}
	return colsys.EqualUpTo(ballA, ballB, radius), nil
}

// CheckIndistinguishable verifies the locality contract of §2.3 on a pair
// of nodes: if the radius-(r+1) views coincide (r = alg.RunningTime), the
// algorithm must output the same value at both. It returns an error when
// the contract is broken — i.e. when the algorithm uses information beyond
// its declared running time.
func CheckIndistinguishable(alg mm.Algorithm, a colsys.System, atA group.Word,
	b colsys.System, atB group.Word) error {
	if a.K() != b.K() {
		return fmt.Errorf("view: systems over %d and %d colours", a.K(), b.K())
	}
	r := alg.RunningTime(a.K())
	same, err := equal(a, atA, b, atB, r+1)
	if err != nil {
		return err
	}
	if !same {
		return nil // distinguishable: no constraint
	}
	outA := alg.Eval(a, atA)
	outB := alg.Eval(b, atB)
	if outA != outB {
		return fmt.Errorf("view: equal radius-%d views but outputs %v ≠ %v (algorithm %q exceeds its running time %d)",
			r+1, outA, outB, alg.Name(), r)
	}
	return nil
}

// EnumerateBalls generates every radius-h ball of d-regular k-colour
// systems, each materialised as a finite colour system, in deterministic
// order: the root has exactly d incident colours and every interior node
// continues with d−1 fresh colours. These are the nodes of Linial's
// h-neighbourhood graph (Remark 2). The count grows as
// C(k,d)·(C(k−1,d−1))^(d·((d−1)^(h−1)−1)/(d−2))-ish — keep parameters tiny.
func EnumerateBalls(k, d, h int) ([]*colsys.Finite, error) {
	if d < 1 || d > k {
		return nil, fmt.Errorf("view: need 1 ≤ d ≤ k, got d=%d k=%d", d, k)
	}
	builders := [][]group.Word{nil} // each builder: accumulated word set
	frontiers := [][]group.Word{{group.Identity()}}

	for depth := 0; depth < h; depth++ {
		var nextBuilders [][]group.Word
		var nextFrontiers [][]group.Word
		for i, words := range builders {
			expansions := expandFrontier(k, d, frontiers[i], depth == 0)
			for _, exp := range expansions {
				grown := append(append([]group.Word(nil), words...), exp...)
				nextBuilders = append(nextBuilders, grown)
				nextFrontiers = append(nextFrontiers, exp)
			}
		}
		builders = nextBuilders
		frontiers = nextFrontiers
	}

	out := make([]*colsys.Finite, 0, len(builders))
	for _, words := range builders {
		f, err := colsys.NewFinite(k, words)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// expandFrontier returns every way to extend all frontier nodes by one
// level: the root picks d colours, deeper nodes pick d−1 colours other
// than their entering colour. Each alternative is the combined child list
// of the whole frontier.
func expandFrontier(k, d int, frontier []group.Word, isRoot bool) [][]group.Word {
	alternatives := [][]group.Word{nil}
	for _, node := range frontier {
		need := d - 1
		if isRoot {
			need = d
		}
		var palette []group.Color
		for c := group.Color(1); int(c) <= k; c++ {
			if c != node.Tail() {
				palette = append(palette, c)
			}
		}
		sets := chooseColors(palette, need)
		var grown [][]group.Word
		for _, alt := range alternatives {
			for _, set := range sets {
				children := append([]group.Word(nil), alt...)
				for _, c := range set {
					children = append(children, node.Append(c))
				}
				grown = append(grown, children)
			}
		}
		alternatives = grown
	}
	return alternatives
}

// chooseColors enumerates all size-n subsets of the palette in order.
func chooseColors(palette []group.Color, n int) [][]group.Color {
	if n == 0 {
		return [][]group.Color{nil}
	}
	if len(palette) < n {
		return nil
	}
	var out [][]group.Color
	// Include palette[0].
	for _, rest := range chooseColors(palette[1:], n-1) {
		out = append(out, append([]group.Color{palette[0]}, rest...))
	}
	// Exclude palette[0].
	out = append(out, chooseColors(palette[1:], n)...)
	return out
}
