package dist

import (
	"repro/internal/logstar"
)

// Step is one round of Linial-style polynomial colour reduction on the
// line graph: colours 1…Q are identified with polynomials of degree ≤ S
// over F_P (P^(S+1) ≥ Q, so the encoding is injective), every edge picks an
// evaluation point x at which its polynomial differs from all ≤ d adjacent
// edges' polynomials (possible because P ≥ d·S+1: two distinct polynomials
// agree on at most S points), and the pair (x, f(x)) — encoded as
// x·P + f(x) + 1 — is the new colour, drawn from a palette of NewQ = P²
// colours.
type Step struct {
	Q    int // palette size before the step
	P    int // prime modulus of the polynomial family
	S    int // degree bound of the polynomials
	NewQ int // palette size after the step (= P²)
}

// ReductionSchedule returns the deterministic sequence of reduction steps
// from a palette of q colours down to the fixed point, for conflict degree
// d (an edge of a graph with maximum degree Δ has at most d = 2(Δ−1)
// adjacent edges). Every node derives the same schedule locally from
// (q, d); the length is O(log* q) and the fixed-point palette is O(d²).
// The result must not be modified: ReducedGreedyMachine hands one computed
// schedule to every machine of a source instead of recomputing it per
// node, which is faithful to the model exactly because every node's local
// derivation would yield the same read-only value.
func ReductionSchedule(q, d int) []Step {
	var sched []Step
	for {
		st, ok := bestStep(q, d)
		if !ok {
			return sched
		}
		sched = append(sched, st)
		q = st.NewQ
	}
}

// bestStep picks the degree bound s minimising the post-step palette P²,
// subject to P ≥ d·s+1 (conflict-free evaluation points exist) and
// P^(s+1) ≥ q (the polynomial encoding is injective). It reports false when
// no step shrinks the palette — the fixed point.
func bestStep(q, d int) (Step, bool) {
	best := Step{}
	found := false
	maxS := logstar.Log2Ceil(q) + 1
	for s := 1; s <= maxS; s++ {
		lo := d*s + 1
		if r := logstar.RootCeil(q, s+1); r > lo {
			lo = r
		}
		p := logstar.NextPrime(lo)
		if nq := p * p; nq < q && (!found || nq < best.NewQ) {
			best = Step{Q: q, P: p, S: s, NewQ: nq}
			found = true
		}
	}
	return best, found
}

// TotalRounds returns the exact round budget of ReducedGreedyMachine on
// k-edge-coloured instances of maximum degree ≤ delta: the O(log* k)
// reduction steps, then one round per colour class while recolouring the
// fixed-point palette down to 2Δ−1, then greedy's final-palette−1 rounds.
// For small k (no reduction possible) this degenerates to plain greedy's
// k−1.
func TotalRounds(k, delta int) int {
	if delta < 1 {
		delta = 1
	}
	sched := ReductionSchedule(k, 2*(delta-1))
	q := k
	if len(sched) > 0 {
		q = sched[len(sched)-1].NewQ
	}
	rounds := len(sched)
	if target := 2*delta - 1; q > target {
		rounds += q - target
		q = target
	}
	if q > 1 {
		rounds += q - 1
	}
	return rounds
}

// polyEval evaluates the polynomial of colour c at x over F_p: the base-p
// digits of c−1 are the coefficients of a degree-≤s polynomial.
func polyEval(c, s, p, x int) int {
	v := c - 1
	acc := 0
	pow := 1
	for i := 0; i <= s; i++ {
		acc = (acc + (v%p)*pow) % p
		v /= p
		pow = (pow * x) % p
	}
	return acc
}

// stepColor computes an edge's colour after one reduction step: the least
// evaluation point x at which the edge's polynomial differs from every
// blocked (adjacent) colour's polynomial, paired with the value there.
// Both endpoints compute it from the same blocked set, so they agree. It
// reports false only when the conflict degree exceeds the schedule's d —
// i.e. the graph violates the Δ bound the schedule was built for.
func stepColor(st Step, c int, blocked []int) (int, bool) {
	for x := 0; x < st.P; x++ {
		fx := polyEval(c, st.S, st.P, x)
		ok := true
		for _, b := range blocked {
			if polyEval(b, st.S, st.P, x) == fx {
				ok = false
				break
			}
		}
		if ok {
			return x*st.P + fx + 1, true
		}
	}
	return 0, false
}

// freeColor returns the least colour in 1…limit missing from blocked, which
// exists whenever len(blocked) < limit. Both endpoints of an edge compute
// it from the same blocked set, so they agree.
func freeColor(limit int, blocked []int) (int, bool) {
	for c := 1; c <= limit; c++ {
		used := false
		for _, b := range blocked {
			if b == c {
				used = true
				break
			}
		}
		if !used {
			return c, true
		}
	}
	return 0, false
}
