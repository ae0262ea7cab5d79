package graph

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/group"
)

// This file is the parallel construction path: BuildParallel shards the
// CSRBuilder's degree-count/fill pass and fromCSR's sort/validate/mate
// passes over node ranges, and ShardedMatchingUnion/ShardedRegular shard
// the per-colour-class edge generation of the two random families across
// workers. Every function here is deterministic in the worker count: the
// same inputs produce byte-identical CSR arrays whether built with one
// worker or sixteen (parallel_test.go pins this at n=65536), because each
// colour class draws from its own private rng stream and the merge applies
// classes in colour order.

// splitByHalves partitions the node range [0, n) into at most `workers`
// contiguous ranges of roughly equal total degree (measured in halves via
// the offsets array, len n+1). The returned boundaries b satisfy
// b[0] = 0 ≤ b[1] ≤ … ≤ b[len-1] = n; empty ranges are possible on skewed
// degree distributions and harmless.
func splitByHalves(offsets []int, workers int) []int {
	n := len(offsets) - 1
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	bounds := make([]int, workers+1)
	bounds[workers] = n
	total := offsets[n]
	v := 0
	for w := 1; w < workers; w++ {
		target := total * w / workers
		for v < n && offsets[v] < target {
			v++
		}
		bounds[w] = v
	}
	return bounds
}

// BuildParallel is Build with the fill pass and the sort/validate/mate
// passes of fromCSR sharded over node ranges across `workers` goroutines
// (≤ 1 falls back to the sequential Build). Each worker owns a contiguous
// node range balanced by degree sum: it scans the full edge list and
// scatters only the halves that land in its range, so no two workers write
// the same cache line and the halves order per node matches the sequential
// fill exactly. The output is byte-identical to Build for any worker
// count; the builder remains usable afterwards.
func (b *CSRBuilder) BuildParallel(workers int) (*Graph, error) {
	if workers <= 1 {
		return b.Build()
	}
	offsets := make([]int, b.n+1)
	for v := 0; v < b.n; v++ {
		offsets[v+1] = offsets[v] + int(b.degs[v])
	}
	halves := make([]Half, offsets[b.n])
	bounds := splitByHalves(offsets, workers)
	var wg sync.WaitGroup
	for w := 0; w+1 < len(bounds); w++ {
		lo, hi := bounds[w], bounds[w+1]
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// cursor[v-lo] is the next free slot in v's range; a private
			// slice per worker keeps the scatter write-disjoint.
			cursor := make([]int, hi-lo)
			for v := lo; v < hi; v++ {
				cursor[v-lo] = offsets[v]
			}
			for _, e := range b.edges {
				if u := int(e.u); u >= lo && u < hi {
					halves[cursor[u-lo]] = Half{Peer: int(e.v), Color: e.c}
					cursor[u-lo]++
				}
				if v := int(e.v); v >= lo && v < hi {
					halves[cursor[v-lo]] = Half{Peer: int(e.u), Color: e.c}
					cursor[v-lo]++
				}
			}
		}()
	}
	wg.Wait()
	return fromCSRParallel(b.k, offsets, halves, bounds)
}

// fromCSRParallel is fromCSR with the per-node sort/validate pass and the
// mate-resolution pass each sharded over the given node-range bounds (two
// passes because mates need every peer's range already sorted). The checks,
// orderings and error messages match fromCSR's; when ranges fail
// concurrently the lowest range's error wins, so failures are deterministic
// too.
func fromCSRParallel(k int, offsets []int, halves []Half, bounds []int) (*Graph, error) {
	n := len(offsets) - 1
	if offsets[0] != 0 || offsets[n] != len(halves) {
		return nil, fmt.Errorf("graph: CSR offsets [%d…%d] do not span %d halves",
			offsets[0], offsets[n], len(halves))
	}
	colors := make([]group.Color, len(halves))
	errs := make([]error, len(bounds)-1)
	var wg sync.WaitGroup
	for w := 0; w+1 < len(bounds); w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = sortValidateRange(k, offsets, halves, colors, bounds[w], bounds[w+1])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	mates := make([]int, len(halves))
	for w := 0; w+1 < len(bounds); w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = matesRange(offsets, halves, mates, bounds[w], bounds[w+1])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Graph{
		n: n, k: k,
		flat: flatAdj{offsets: offsets, halves: halves, colors: colors, mates: mates},
	}, nil
}

// sortValidateRange runs fromCSR's per-node sort and validation over the
// node range [lo, hi), filling the colors slab for those nodes.
func sortValidateRange(k int, offsets []int, halves []Half, colors []group.Color, lo, hi int) error {
	n := len(offsets) - 1
	for v := lo; v < hi; v++ {
		if offsets[v+1] < offsets[v] {
			return fmt.Errorf("graph: CSR offsets not monotone at node %d", v)
		}
		rlo, rhi := offsets[v], offsets[v+1]
		sortHalvesByColor(halves[rlo:rhi])
		var prev group.Color
		for i := rlo; i < rhi; i++ {
			h := halves[i]
			if !h.Color.Valid(k) {
				return fmt.Errorf("graph: node %d has colour %v outside 1…%d", v, h.Color, k)
			}
			if i > rlo && h.Color == prev {
				return fmt.Errorf("graph: colour %v used twice at node %d", h.Color, v)
			}
			if h.Peer == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if h.Peer < 0 || h.Peer >= n {
				return fmt.Errorf("graph: node %d has peer %d out of range [0, %d)", v, h.Peer, n)
			}
			prev = h.Color
			colors[i] = h.Color
		}
	}
	return nil
}

// matesRange resolves the mate index of every half in the node range
// [lo, hi) by binary search in the (already sorted) peer ranges.
func matesRange(offsets []int, halves []Half, mates []int, lo, hi int) error {
	for v := lo; v < hi; v++ {
		for i := offsets[v]; i < offsets[v+1]; i++ {
			h := halves[i]
			plo, phi := offsets[h.Peer], offsets[h.Peer+1]
			x, y := plo, phi
			for x < y {
				mid := (x + y) / 2
				if halves[mid].Color < h.Color {
					x = mid + 1
				} else {
					y = mid
				}
			}
			if x == phi || halves[x].Color != h.Color || halves[x].Peer != v {
				return fmt.Errorf("graph: edge {%d, %d} colour %v not symmetric", v, h.Peer, h.Color)
			}
			mates[i] = x
		}
	}
	return nil
}

// forEachClass runs f for every colour class 1…k across at most `workers`
// goroutines, classes drained from a shared counter so skewed class costs
// balance out.
func forEachClass(k, workers int, f func(c int)) {
	if workers > k {
		workers = k
	}
	if workers <= 1 {
		for c := 1; c <= k; c++ {
			f(c)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1))
				if c > k {
					return
				}
				f(c)
			}
		}()
	}
	wg.Wait()
}

// ShardedMatchingUnion is the sharded-construction counterpart of
// RandomMatchingUnion: colour class c draws its permutation and density
// coin flips from its own private rng stream classSeeds[c-1] (the caller —
// internal/gen — derives these with gen.SubSeed), so all k candidate
// pairings generate concurrently across `workers` goroutines. The merge
// then applies classes strictly in colour order with the same
// skip-on-conflict semantics as the sequential construction, and the CSR
// assembly runs through BuildParallel. Output depends only on (n, k,
// density, classSeeds) — never on the worker count — which the
// determinism tests pin byte-identical against a plain sequential
// CSRBuilder loop at n=65536.
//
// Note the instance named by a seed differs from RandomMatchingUnion's
// (which threads ONE stream through all classes and therefore cannot be
// sharded): the two families of streams are distinct, both deterministic.
func ShardedMatchingUnion(n, k int, density float64, classSeeds []int64, workers int) (*Graph, error) {
	if n < 2 || k < 1 {
		return nil, fmt.Errorf("graph: ShardedMatchingUnion needs n ≥ 2 and k ≥ 1, got n=%d k=%d", n, k)
	}
	if len(classSeeds) != k {
		return nil, fmt.Errorf("graph: ShardedMatchingUnion needs %d class seeds, got %d", k, len(classSeeds))
	}
	pairs := make([][]int32, k+1)
	forEachClass(k, workers, func(c int) {
		rng := rand.New(rand.NewSource(classSeeds[c-1]))
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
		var out []int32
		for i := 0; i+1 < n; i += 2 {
			if rng.Float64() > density {
				continue
			}
			out = append(out, int32(p[i]), int32(p[i+1]))
		}
		pairs[c] = out
	})
	b := NewCSRBuilder(n, k)
	total := 0
	for c := 1; c <= k; c++ {
		total += len(pairs[c]) / 2
	}
	b.Grow(total)
	for c := 1; c <= k; c++ {
		ps := pairs[c]
		for i := 0; i+1 < len(ps); i += 2 {
			// Parallel edges are skipped exactly as in the sequential
			// construction; the colour is free by the matching structure.
			b.TryAddEdge(int(ps[i]), int(ps[i+1]), group.Color(c))
		}
	}
	return b.BuildParallel(workers)
}

// boundedDegreeBlockDraws is the fixed block size of the sharded
// bounded-degree construction: attempts split into blocks of this many
// draws, each block on its own rng stream. The size is part of the
// instance naming — changing it renames every sharded bounded-degree
// instance — so it is a constant, not a tuning knob.
const boundedDegreeBlockDraws = 4096

// BoundedDegreeBlocks is the number of draw blocks the sharded
// bounded-degree construction uses for a given attempt budget; the caller
// derives one block seed per block.
func BoundedDegreeBlocks(attempts int) int {
	if attempts <= 0 {
		return 0
	}
	return (attempts + boundedDegreeBlockDraws - 1) / boundedDegreeBlockDraws
}

// ShardedBoundedDegree is the sharded counterpart of RandomBoundedDegree.
// The sequential construction cannot shard as-is: it draws a colour only
// AFTER an attempt passes the degree check, so every draw's position in the
// single rng stream depends on all prior acceptances. The sharded family
// decouples generation from acceptance with a block-reservation scheme:
// attempts split into fixed blocks of boundedDegreeBlockDraws draws, block
// i draws all of its (u, v, colour) triples UNCONDITIONALLY from its own
// private stream blockSeeds[i] — generation is then state-free and runs
// concurrently — and a sequential in-order merge applies the degree and
// colouring checks with the same skip semantics as the sequential loop.
// Output depends only on (n, k, delta, attempts, blockSeeds), never on the
// worker count; as with the other Sharded* families it names a different
// instance than RandomBoundedDegree for the same seed, which sweeps record
// via the builder tag.
func ShardedBoundedDegree(n, k, delta, attempts int, blockSeeds []int64, workers int) (*Graph, error) {
	if n < 2 || k < 1 || delta < 1 {
		return nil, fmt.Errorf("graph: ShardedBoundedDegree needs n ≥ 2, k ≥ 1, delta ≥ 1, got n=%d k=%d delta=%d", n, k, delta)
	}
	blocks := BoundedDegreeBlocks(attempts)
	if len(blockSeeds) != blocks {
		return nil, fmt.Errorf("graph: ShardedBoundedDegree needs %d block seeds for %d attempts, got %d",
			blocks, attempts, len(blockSeeds))
	}
	type triple struct {
		u, v int32
		c    group.Color
	}
	drawn := make([][]triple, blocks)
	forEachClass(blocks, workers, func(bi int) {
		lo := (bi - 1) * boundedDegreeBlockDraws
		draws := attempts - lo
		if draws > boundedDegreeBlockDraws {
			draws = boundedDegreeBlockDraws
		}
		rng := rand.New(rand.NewSource(blockSeeds[bi-1]))
		ts := make([]triple, draws)
		for i := range ts {
			ts[i] = triple{
				u: int32(rng.Intn(n)),
				v: int32(rng.Intn(n)),
				c: group.Color(1 + rng.Intn(k)),
			}
		}
		drawn[bi-1] = ts
	})
	b := NewCSRBuilder(n, k)
	if hint := n * delta / 2; hint < attempts {
		b.Grow(hint)
	} else {
		b.Grow(attempts)
	}
	for _, ts := range drawn {
		for _, t := range ts {
			u, v := int(t.u), int(t.v)
			if u == v || b.Degree(u) >= delta || b.Degree(v) >= delta {
				continue
			}
			b.TryAddEdge(u, v, t.c)
		}
	}
	return b.BuildParallel(workers)
}

// ShardedRegular is the sharded counterpart of RandomRegular: each colour
// class is a random perfect matching drawn from its private stream, first
// attempts generated concurrently, with conflict resampling (a class whose
// pairing collides with an earlier class redraws from ITS OWN stream) done
// during the in-order merge — so resampling never perturbs other classes
// and the result is worker-count independent. See ShardedMatchingUnion for
// the determinism contract.
func ShardedRegular(n, k int, classSeeds []int64, workers int) (*Graph, error) {
	if n%2 != 0 || n < 2 || k < 1 {
		return nil, fmt.Errorf("graph: ShardedRegular needs even n ≥ 2 and k ≥ 1, got n=%d k=%d", n, k)
	}
	if len(classSeeds) != k {
		return nil, fmt.Errorf("graph: ShardedRegular needs %d class seeds, got %d", k, len(classSeeds))
	}
	rngs := make([]*rand.Rand, k+1)
	perms := make([][]int, k+1)
	forEachClass(k, workers, func(c int) {
		rngs[c] = rand.New(rand.NewSource(classSeeds[c-1]))
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		rngs[c].Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
		perms[c] = p
	})
	b := NewCSRBuilder(n, k)
	b.Grow(n * k / 2)
	for c := 1; c <= k; c++ {
		p := perms[c]
		placed := false
		for attempt := 0; attempt < 50 && !placed; attempt++ {
			if attempt > 0 {
				// Resample from class c's own stream only.
				for i := range p {
					p[i] = i
				}
				rngs[c].Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
			}
			ok := true
			for i := 0; i+1 < n; i += 2 {
				if b.HasEdge(p[i], p[i+1]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for i := 0; i+1 < n; i += 2 {
				if err := b.AddEdge(p[i], p[i+1], group.Color(c)); err != nil {
					return nil, err
				}
			}
			placed = true
		}
		if !placed {
			return nil, fmt.Errorf("graph: could not place colour class %v without parallel edges", group.Color(c))
		}
	}
	return b.BuildParallel(workers)
}
