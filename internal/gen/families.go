package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/group"
)

// checkDensity refuses an edge density outside [0, 1]: a negative density
// silently builds an empty graph and one above 1 builds the same graph as 1.
func checkDensity(p Params) error {
	if d := p.Float("density"); d < 0 || d > 1 {
		return fmt.Errorf("parameter %q must lie in [0, 1], got %v", "density", d)
	}
	return nil
}

func matchingUnion() Scenario {
	return Scenario{
		Name:   "matching-union",
		Doc:    "union of k partial random matchings (§1.2 random instances)",
		Params: Params{"n": 1024, "k": 6, "density": 0.7},
		check:  checkDensity,
		gen: func(p Params, rng *rand.Rand) (*Instance, error) {
			n, k := p.Int("n"), p.Int("k")
			if n < 2 || k < 1 {
				return nil, fmt.Errorf("need n ≥ 2 and k ≥ 1, got n=%d k=%d", n, k)
			}
			return &Instance{G: graph.RandomMatchingUnion(n, k, p.Float("density"), rng)}, nil
		},
	}
}

func boundedDegree() Scenario {
	return Scenario{
		Name: "bounded-degree",
		Doc:  "uniform random edges under a degree cap Δ, colours from the full palette (§1.3, k ≫ Δ)",
		// attempts = 0 means the conventional 5n edge draws.
		Params: Params{"n": 1024, "k": 256, "delta": 3, "attempts": 0},
		check: func(p Params) error {
			if a := p.Float("attempts"); a < 0 {
				return fmt.Errorf("parameter %q must be ≥ 0, got %v", "attempts", a)
			}
			return nil
		},
		gen: func(p Params, rng *rand.Rand) (*Instance, error) {
			n, k, delta := p.Int("n"), p.Int("k"), p.Int("delta")
			if n < 2 || k < 1 || delta < 1 {
				return nil, fmt.Errorf("need n ≥ 2, k ≥ 1, delta ≥ 1, got n=%d k=%d delta=%d", n, k, delta)
			}
			attempts := p.Int("attempts")
			if attempts == 0 {
				attempts = 5 * n
			}
			return &Instance{G: graph.RandomBoundedDegree(n, k, delta, attempts, rng)}, nil
		},
	}
}

func regular() Scenario {
	return Scenario{
		Name:   "regular",
		Doc:    "k-regular permutation-union: every colour class a random perfect matching",
		Params: Params{"n": 1024, "k": 4},
		gen: func(p Params, rng *rand.Rand) (*Instance, error) {
			n, k := p.Int("n"), p.Int("k")
			if n%2 != 0 || n < 2 || k < 1 {
				return nil, fmt.Errorf("need even n ≥ 2 and k ≥ 1, got n=%d k=%d", n, k)
			}
			g, err := graph.RandomRegular(n, k, rng)
			if err != nil {
				return nil, err
			}
			return &Instance{G: g}, nil
		},
	}
}

func pathScenario() Scenario {
	return Scenario{
		Name:   "path",
		Doc:    "path on n nodes, edge colours cycling 1…k",
		Params: Params{"n": 1024, "k": 4},
		gen: func(p Params, _ *rand.Rand) (*Instance, error) {
			n, k := p.Int("n"), p.Int("k")
			if n < 2 || k < 1 || (k < 2 && n > 2) {
				return nil, fmt.Errorf("need n ≥ 2 and k ≥ 2 (k ≥ 1 for n = 2), got n=%d k=%d", n, k)
			}
			b := graph.NewCSRBuilder(n, k)
			for i := 0; i+1 < n; i++ {
				if err := b.AddEdge(i, i+1, group.Color(i%k+1)); err != nil {
					return nil, err
				}
			}
			return &Instance{G: b.Build()}, nil
		},
	}
}

func cycleScenario() Scenario {
	return Scenario{
		Name:   "cycle",
		Doc:    "cycle on n nodes, colours alternating 1, 2 (odd n closes with colour 3)",
		Params: Params{"n": 1024, "k": 3},
		gen: func(p Params, _ *rand.Rand) (*Instance, error) {
			n, k := p.Int("n"), p.Int("k")
			need := 2
			if n%2 != 0 {
				need = 3
			}
			if n < 3 || k < need {
				return nil, fmt.Errorf("need n ≥ 3 and k ≥ %d for this n, got n=%d k=%d", need, n, k)
			}
			b := graph.NewCSRBuilder(n, k)
			for i := 0; i < n; i++ {
				c := group.Color(i%2 + 1)
				if i == n-1 && n%2 != 0 {
					c = 3
				}
				if err := b.AddEdge(i, (i+1)%n, c); err != nil {
					return nil, err
				}
			}
			return &Instance{G: b.Build()}, nil
		},
	}
}

func tree() Scenario {
	return Scenario{
		Name:   "tree",
		Doc:    "random recursive tree; each edge takes the smallest colour free at both endpoints",
		Params: Params{"n": 1024, "k": 8},
		gen: func(p Params, rng *rand.Rand) (*Instance, error) {
			n, k := p.Int("n"), p.Int("k")
			if n < 2 || k < 1 {
				return nil, fmt.Errorf("need n ≥ 2 and k ≥ 1, got n=%d k=%d", n, k)
			}
			b := graph.NewCSRBuilder(n, k)
			for v := 1; v < n; v++ {
				parent := rng.Intn(v)
				// The child is fresh, so only the parent can be saturated;
				// a saturated parent (degree ≥ k) leaves v isolated, which
				// keeps the graph a forest rather than failing the build.
				for c := group.Color(1); int(c) <= k; c++ {
					if b.ColorFree(parent, c) {
						if err := b.AddEdge(parent, v, c); err != nil {
							return nil, err
						}
						break
					}
				}
			}
			return &Instance{G: b.Build()}, nil
		},
	}
}

func caterpillar() Scenario {
	return Scenario{
		Name:   "caterpillar",
		Doc:    "§1.2 worst-case spine (colours k…1) with pendant legs keeping every greedy round busy",
		Params: Params{"k": 6, "legs": 1},
		gen: func(p Params, _ *rand.Rand) (*Instance, error) {
			k, legs := p.Int("k"), p.Int("legs")
			if k < 2 || legs < 0 {
				return nil, fmt.Errorf("need k ≥ 2 and legs ≥ 0, got k=%d legs=%d", k, legs)
			}
			// Spine: nodes 0…k, edge i−(i+1) coloured k−i, exactly the
			// long component of NewWorstCase. Legs attach deterministically
			// with the LARGEST colours free at their spine node: low-colour
			// legs would hand spine nodes a class-1 match at time 0 and
			// collapse the cascade, while high-colour legs keep a node
			// waiting on class k, so greedy still needs the full k−1
			// rounds (a test pins this). No rng: every build is identical.
			spine := k + 1
			spineDeg := func(s int) int {
				if s == 0 || s == k {
					return 1
				}
				return 2
			}
			n := spine
			for s := 0; s < spine; s++ {
				if m := k - spineDeg(s); m > 0 {
					if m > legs {
						m = legs
					}
					n += m
				}
			}
			b := graph.NewCSRBuilder(n, k)
			for i := 0; i < k; i++ {
				if err := b.AddEdge(i, i+1, group.Color(k-i)); err != nil {
					return nil, err
				}
			}
			leg := spine
			for s := 0; s < spine; s++ {
				placed := 0
				for c := group.Color(k); c >= 1 && placed < legs; c-- {
					if !b.ColorFree(s, c) {
						continue
					}
					if err := b.AddEdge(s, leg, c); err != nil {
						return nil, err
					}
					leg++
					placed++
				}
			}
			return &Instance{G: b.Build()}, nil
		},
	}
}

func worstCase() Scenario {
	return Scenario{
		Name:   "worstcase",
		Doc:    "the two-path §1.2 lower-bound instance (NewWorstCase)",
		Params: Params{"k": 6},
		gen: func(p Params, _ *rand.Rand) (*Instance, error) {
			wc, err := graph.NewWorstCase(p.Int("k"))
			if err != nil {
				return nil, err
			}
			return &Instance{G: wc.G}, nil
		},
	}
}

func doubleCover() Scenario {
	return Scenario{
		Name:   "double-cover",
		Doc:    "bipartite double cover of a matching-union base; labels carry the sides",
		Params: Params{"n": 512, "k": 6, "density": 0.7},
		check:  checkDensity,
		gen: func(p Params, rng *rand.Rand) (*Instance, error) {
			n, k := p.Int("n"), p.Int("k")
			if n < 2 || k < 1 {
				return nil, fmt.Errorf("need n ≥ 2 and k ≥ 1, got n=%d k=%d", n, k)
			}
			base := graph.RandomMatchingUnion(n, k, p.Float("density"), rng)
			// Double cover: node v splits into (v, white) = v and
			// (v, black) = n+v; each base edge {u, v, c} becomes the two
			// cross edges (u,white)−(v,black) and (v,white)−(u,black). The
			// colouring stays proper (each side of a split node sees the
			// same colours v did) and the result is bipartite by
			// construction, so the labels are a valid §1.1 input.
			b := graph.NewCSRBuilder(2*n, k)
			b.Grow(2 * base.NumEdges())
			for u := 0; u < n; u++ {
				for _, h := range base.Incident(u) {
					if u > h.Peer {
						continue // each undirected base edge once
					}
					if err := b.AddEdge(u, n+h.Peer, h.Color); err != nil {
						return nil, err
					}
					if err := b.AddEdge(h.Peer, n+u, h.Color); err != nil {
						return nil, err
					}
				}
			}
			g := b.Build()
			labels := make([]int, 2*n)
			for v := n; v < 2*n; v++ {
				labels[v] = 1 // dist.SideBlack; whites are the zero value
			}
			return &Instance{G: g, Labels: labels}, nil
		},
	}
}
