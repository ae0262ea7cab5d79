package graph

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/group"
)

// classSeeds gives each colour class a distinct deterministic stream for
// the sharded constructors; the production derivation lives in internal/gen
// (gen.SubSeed), these tests only need per-class independence.
func classSeeds(k int, base int64) []int64 {
	seeds := make([]int64, k)
	for i := range seeds {
		seeds[i] = base + int64(i)*0x9e3779b9
	}
	return seeds
}

// sequentialMatchingUnion is the plain sequential CSRBuilder reference the
// acceptance criterion pins the parallel path against: classes applied in
// colour order, each drawing from its own stream, built with the
// sequential Build.
func sequentialMatchingUnion(t *testing.T, n, k int, density float64, seeds []int64) *Graph {
	t.Helper()
	b := NewCSRBuilder(n, k)
	p := make([]int, n)
	for c := 1; c <= k; c++ {
		rng := rand.New(rand.NewSource(seeds[c-1]))
		for i := range p {
			p[i] = i
		}
		rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
		for i := 0; i+1 < n; i += 2 {
			if rng.Float64() > density {
				continue
			}
			b.TryAddEdge(p[i], p[i+1], group.Color(c))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sequentialRegular is the matching reference for ShardedRegular. It
// returns nil when a colour class cannot be placed within the 50-attempt
// budget (small shapes can legitimately wedge), which the sharded path
// must then reproduce as an error.
func sequentialRegular(t *testing.T, n, k int, seeds []int64) *Graph {
	t.Helper()
	b := NewCSRBuilder(n, k)
	p := make([]int, n)
	for c := 1; c <= k; c++ {
		rng := rand.New(rand.NewSource(seeds[c-1]))
		placed := false
		for attempt := 0; attempt < 50 && !placed; attempt++ {
			for i := range p {
				p[i] = i
			}
			rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
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
					t.Fatal(err)
				}
			}
			placed = true
		}
		if !placed {
			return nil
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestShardedMatchingUnionPinned is the acceptance pin: at n=65536 the
// parallel builder produces CSR arrays byte-identical to the sequential
// CSRBuilder, for one worker and for many.
func TestShardedMatchingUnionPinned(t *testing.T) {
	n, k := 65536, 8
	if testing.Short() {
		n = 4096
	}
	seeds := classSeeds(k, 42)
	want := sequentialMatchingUnion(t, n, k, 0.7, seeds)
	for _, workers := range []int{1, 4, 16} {
		got, err := ShardedMatchingUnion(n, k, 0.7, seeds, workers)
		if err != nil {
			t.Fatal(err)
		}
		sameCSR(t, "sharded matching-union", got, want)
	}
}

// TestShardedRegularPinned: same pin for the k-regular permutation union at
// n=65536.
func TestShardedRegularPinned(t *testing.T) {
	n, k := 65536, 4
	if testing.Short() {
		n = 4096
	}
	seeds := classSeeds(k, 7)
	want := sequentialRegular(t, n, k, seeds)
	if want == nil {
		t.Fatal("reference wedged at a size where conflicts are negligible")
	}
	for _, workers := range []int{1, 4, 16} {
		got, err := ShardedRegular(n, k, seeds, workers)
		if err != nil {
			t.Fatal(err)
		}
		sameCSR(t, "sharded regular", got, want)
	}
}

// TestShardedRegularResampling drives the conflict-resampling path hard: at
// n=16, k=6 colour classes collide routinely, so classes redraw from their
// own streams during the merge — and the output must still be independent
// of the worker count.
func TestShardedRegularResampling(t *testing.T) {
	built := 0
	for seed := int64(0); seed < 20; seed++ {
		seeds := classSeeds(6, 100+seed)
		want := sequentialRegular(t, 16, 6, seeds)
		for _, workers := range []int{1, 2, 8} {
			got, err := ShardedRegular(16, 6, seeds, workers)
			if want == nil {
				// The reference wedged within its attempt budget; the
				// sharded path must fail identically, for every worker
				// count.
				if err == nil {
					t.Fatalf("seed %d workers %d: sharded built what the reference could not", seed, workers)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			sameCSR(t, "resampled regular", got, want)
		}
		if want == nil {
			continue
		}
		built++
		if want.MaxDegree() != 6 {
			t.Fatalf("seed %d: reference not 6-regular", seed)
		}
	}
	if built < 10 {
		t.Fatalf("only %d/20 seeds built; shape too tight to exercise resampling", built)
	}
}

// TestShardedRegularImpossible: a shape with no simple k-regular
// realisation fails cleanly instead of panicking or looping.
// sequentialBoundedDegree is the one-worker reference for the sharded
// bounded-degree construction: blocks drawn and merged strictly in order,
// on the sequential Build.
func sequentialBoundedDegree(t *testing.T, n, k, delta, attempts int, seeds []int64) *Graph {
	t.Helper()
	b := NewCSRBuilder(n, k)
	for bi, draws := 0, 0; draws < attempts; bi++ {
		rng := rand.New(rand.NewSource(seeds[bi]))
		for i := 0; i < boundedDegreeBlockDraws && draws < attempts; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			c := group.Color(1 + rng.Intn(k))
			draws++
			if u == v || b.Degree(u) >= delta || b.Degree(v) >= delta {
				continue
			}
			b.TryAddEdge(u, v, c)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestShardedBoundedDegreePinned: the block-reservation construction is
// byte-identical to its sequential reference for any worker count, at a
// size spanning several draw blocks and at a small size where the degree
// cap rejects most attempts (the merge's state dependence at its worst).
func TestShardedBoundedDegreePinned(t *testing.T) {
	cases := []struct{ n, k, delta, attempts int }{
		{8192, 64, 3, 5 * 8192}, // 10 blocks
		{32, 8, 2, 5000},        // saturated: nearly every draw rejected
		{100, 16, 4, 100},       // single partial block
	}
	if testing.Short() {
		cases = cases[1:]
	}
	for _, tc := range cases {
		seeds := classSeeds(BoundedDegreeBlocks(tc.attempts), int64(tc.n))
		want := sequentialBoundedDegree(t, tc.n, tc.k, tc.delta, tc.attempts, seeds)
		for _, workers := range []int{1, 4, 16} {
			got, err := ShardedBoundedDegree(tc.n, tc.k, tc.delta, tc.attempts, seeds, workers)
			if err != nil {
				t.Fatal(err)
			}
			sameCSR(t, "sharded bounded-degree", got, want)
		}
	}
}

func TestShardedRegularImpossible(t *testing.T) {
	if _, err := ShardedRegular(2, 3, classSeeds(3, 1), 4); err == nil {
		t.Fatal("n=2, k=3 accepted (needs parallel edges)")
	}
}

// TestShardedArgumentErrors covers the argument validation of both sharded
// constructors.
func TestShardedArgumentErrors(t *testing.T) {
	if _, err := ShardedMatchingUnion(1, 2, 0.5, classSeeds(2, 1), 2); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := ShardedMatchingUnion(8, 2, 0.5, classSeeds(3, 1), 2); err == nil {
		t.Error("wrong class-seed count accepted")
	}
	if _, err := ShardedRegular(7, 2, classSeeds(2, 1), 2); err == nil {
		t.Error("odd n accepted")
	}
	if _, err := ShardedRegular(8, 2, classSeeds(1, 1), 2); err == nil {
		t.Error("wrong class-seed count accepted")
	}
	if _, err := ShardedBoundedDegree(1, 2, 3, 100, classSeeds(1, 1), 2); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := ShardedBoundedDegree(8, 2, 3, 100, classSeeds(2, 1), 2); err == nil {
		t.Error("wrong block-seed count accepted")
	}
}

// TestBuildParallelMatchesBuild: for an arbitrary builder population, the
// sharded fill + sort + mate passes produce the same graph as the
// sequential Build, across worker counts (including workers exceeding n).
func TestBuildParallelMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewCSRBuilder(300, 9)
	for i := 0; i < 2000; i++ {
		b.TryAddEdge(rng.Intn(300), rng.Intn(300), group.Color(1+rng.Intn(9)))
	}
	want, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 1000} {
		got, err := b.BuildParallel(workers)
		if err != nil {
			t.Fatal(err)
		}
		sameCSR(t, "BuildParallel", got, want)
	}
	// The builder stays reusable after parallel builds, like after Build.
	b.Reset(4, 2)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g, err := b.BuildParallel(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.NumEdges() != 1 {
		t.Fatalf("post-reset build wrong: n=%d m=%d", g.N(), g.NumEdges())
	}
}

// TestSplitByHalves: boundaries are monotone, span [0, n], and roughly
// balance the halves.
func TestSplitByHalves(t *testing.T) {
	offsets := []int{0, 10, 10, 12, 30, 31, 40}
	bounds := splitByHalves(offsets, 3)
	if bounds[0] != 0 || bounds[len(bounds)-1] != 6 {
		t.Fatalf("bounds %v do not span the node range", bounds)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			t.Fatalf("bounds %v not monotone", bounds)
		}
	}
	if got := splitByHalves([]int{0, 1}, 8); len(got) != 2 {
		t.Fatalf("1-node split = %v, want single range", got)
	}
}

// TestFromCSRParallelRejectsBrokenInput mirrors TestFromCSRRejectsBrokenInput
// on the parallel validation path: the same malformed inputs fail with the
// same error text as the sequential fromCSR.
func TestFromCSRParallelRejectsBrokenInput(t *testing.T) {
	check := func(name string, k int, offsets []int, halves []Half) {
		t.Helper()
		seqOffsets := append([]int(nil), offsets...)
		seqHalves := append([]Half(nil), halves...)
		_, seqErr := fromCSR(k, seqOffsets, seqHalves)
		if seqErr == nil {
			t.Fatalf("%s: sequential fromCSR accepted broken input", name)
		}
		bounds := splitByHalves(offsets, 2)
		_, parErr := fromCSRParallel(k, offsets, halves, bounds)
		if parErr == nil {
			t.Fatalf("%s: parallel fromCSR accepted broken input", name)
		}
		if !strings.Contains(parErr.Error(), "graph:") {
			t.Errorf("%s: unhelpful error %v", name, parErr)
		}
	}
	// Asymmetric edge: 0 points at 1 but 1 has no halves.
	check("asymmetric", 2, []int{0, 1, 1}, []Half{{Peer: 1, Color: 1}})
	// Colour out of palette.
	check("bad colour", 1, []int{0, 1, 2},
		[]Half{{Peer: 1, Color: 5}, {Peer: 0, Color: 5}})
	// Self-loop.
	check("self-loop", 2, []int{0, 1, 2},
		[]Half{{Peer: 0, Color: 1}, {Peer: 1, Color: 1}})
}
