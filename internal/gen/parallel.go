package gen

import (
	"fmt"
	"strconv"
)

// ClassSeeds derives one independent rng-stream seed per colour class for
// the sharded instance constructors: class c of a (scenario, seed) build
// draws from SubSeed(seed, name, "class", c). The derivation is value-
// addressed like every other stream in this package — it depends on the
// scenario name and the class number, never on worker count or iteration
// order — so sharded construction is deterministic and byte-identical
// across any degree of parallelism.
func ClassSeeds(name string, seed int64, k int) []int64 {
	if k < 0 {
		k = 0
	}
	seeds := make([]int64, k)
	for c := 1; c <= k; c++ {
		seeds[c-1] = SubSeed(seed, name, "class", strconv.Itoa(c))
	}
	return seeds
}

// BlockSeeds derives one independent rng-stream seed per draw block for
// the sharded bounded-degree construction: block i of a (scenario, seed)
// build draws from SubSeed(seed, name, "block", i). Value-addressed like
// ClassSeeds — independent of worker count and iteration order.
func BlockSeeds(name string, seed int64, blocks int) []int64 {
	if blocks < 0 {
		blocks = 0
	}
	seeds := make([]int64, blocks)
	for i := range seeds {
		seeds[i] = SubSeed(seed, name, "block", strconv.Itoa(i))
	}
	return seeds
}

// Sharded reports whether the scenario has a sharded construction path
// (matching-union and regular shard by colour class, bounded-degree by
// draw block).
func (s Scenario) Sharded() bool { return s.genSharded != nil }

// BuildParallel instantiates the scenario with the instance construction
// itself sharded across `workers` goroutines: the per-shard edge
// generation runs concurrently (colour classes on ClassSeeds streams, or
// draw blocks on BlockSeeds streams for bounded-degree), the shards merge
// in canonical order, and the CSR degree-count/fill pass runs in parallel
// over node ranges. Families without a sharded path fall back to the
// sequential Build.
//
// The output is deterministic in (name, params, seed) and INDEPENDENT of
// workers — BuildParallel(seed, p, 1) and BuildParallel(seed, p, 16) are
// byte-identical. It is, however, a different instance than the sequential
// Build names for the same seed on sharded families: Build threads one rng
// stream through all colour classes (the legacy derivation, pinned by the
// graph package's oracle tests) while BuildParallel gives every class its
// own stream — the only shape that can generate concurrently. Sweeps
// record which construction produced a row, and the two namings never mix.
func (s Scenario) BuildParallel(seed int64, overrides Params, workers int) (*Instance, error) {
	if s.genSharded == nil {
		return s.Build(seed, overrides)
	}
	p, err := s.resolve(overrides)
	if err != nil {
		return nil, fmt.Errorf("gen: %s: %w", s.Name, err)
	}
	if workers < 1 {
		workers = 1
	}
	inst, err := s.genSharded(p, seed, workers)
	if err != nil {
		return nil, fmt.Errorf("gen: %s: %w", s.Name, err)
	}
	return inst, nil
}
