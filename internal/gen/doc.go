// Package gen is the scenario generator subsystem: a registry of named,
// parameterised, deterministically seeded graph families, all constructed
// CSR-natively through graph.CSRBuilder, so instance construction keeps
// pace with the allocation-free execution engines instead of dominating
// benchmark setup.
//
// # Scenario DSL
//
// A scenario is addressed by a spec string
//
//	name[:param=value,param=value,...]
//
// for example
//
//	matching-union:n=65536,k=6,density=0.7
//	bounded-degree:n=4096,k=1024,delta=3
//	caterpillar:k=8,legs=2
//
// Parse resolves the name against the registry and merges the overrides
// onto the scenario's defaults (unknown parameters are errors, listing the
// valid ones; so are non-finite values, integral parameters past the int
// range, and values outside the family's range such as density ∉ [0, 1]).
// Build then instantiates the scenario from a seed:
//
//	inst, sc, err := gen.BuildSpec("regular:n=1024,k=6", 42)
//
// Every scenario derives its own rng stream from (name, seed), so the same
// seed can drive a whole suite of scenarios without correlating them, and
// the same (spec, seed) pair names the same instance forever — tests pin
// byte-identical CSR arrays across rebuilds. Instances carry optional
// per-node labels (the double-cover family returns the bipartition sides
// in dist's encoding: dist.SideBlack, white being 0).
//
// # Grid DSL
//
// ParseGrid extends the spec syntax from scalars to value sets, expanding
// one spec into a whole parameter cross product for sweep drivers:
//
//	matching-union:n=4096..65536,k=16..1024      ranges double by default
//	bounded-degree:n=1024..65536..x4,delta=2|3   x<mult>, +<step>, a|b|c lists
//
// Expansion is deterministic (sorted parameter names, first name slowest)
// and every cell comes back as a complete Params whose String() round-
// trips through Parse. SubSeed is the companion seed derivation: it mixes
// a base seed with a chain of string tags through the same splitmix
// mixing, giving every sweep cell an uncorrelated, order-independent,
// value-addressed rng stream. internal/sweep and cmd/mmsweep build on
// both.
//
// # Families
//
//   - matching-union — union of k partial random matchings (§1.2 random
//     instances); max degree ≤ k, never degenerate for greedy at
//     density < 1.
//   - bounded-degree — uniform random edges under a degree cap Δ with
//     colours from the full palette: the k ≫ Δ regime of §1.3.
//   - regular — k-regular via the permutation-union construction: every
//     colour class is a perfect matching drawn as a random permutation
//     paired off two by two.
//   - path / cycle — deterministic colour-cycled paths and cycles.
//   - tree — random recursive tree, each edge greedily given the smallest
//     colour free at both endpoints.
//   - caterpillar — the §1.2 worst-case spine (colours k, k−1, …, 1) with
//     pendant legs on every spine node: a lower-bound family where greedy
//     is forced through all k−1 rounds while the legs keep every round
//     busy.
//   - worstcase — the two-path §1.2 instance itself (NewWorstCase).
//   - double-cover — the bipartite double cover of a matching-union base:
//     2n nodes, labels carrying the sides, the natural input for the §1.1
//     bipartite algorithm.
//
// cmd/mmrun (-scenario, its only instance source), internal/sweep and
// the top-level BenchmarkGen* benchmarks all drive this registry.
package gen
