package sweep

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/mm"
	"repro/internal/runtime"
)

// decodeInstance turns arbitrary bytes into a properly edge-coloured graph:
// data[0] picks n (2…33), data[1] the palette k (1…16), bit 0 of data[2]
// asks for a bipartite instance (every edge joins an even and an odd node,
// labelled by parity), and each following byte triple (a, b, c) proposes
// the edge {a mod n, b mod n} with colour 1 + c mod k. Proposals that break
// simplicity or the proper colouring are skipped by the CSR builder, so
// every input decodes to a valid instance. It returns nil for inputs too
// short to name one.
func decodeInstance(data []byte) (*graph.Graph, []int) {
	if len(data) < 3 {
		return nil, nil
	}
	n, k := 2+int(data[0])%32, 1+int(data[1])%16
	bipartite := data[2]&1 == 1
	b := graph.NewCSRBuilder(n, k)
	for p := data[3:]; len(p) >= 3; p = p[3:] {
		u, v := int(p[0])%n, int(p[1])%n
		if bipartite && u%2 == v%2 {
			v ^= 1
		}
		b.TryAddEdge(u, v, group.Color(1+int(p[2])%k))
	}
	g := b.Build()
	if !bipartite {
		return g, nil
	}
	labels := make([]int, n)
	for v := range labels {
		labels[v] = v % 2
	}
	return g, labels
}

// checkOracles runs every registered algorithm on the instance at one, two
// and three engine workers and holds each run against witnesses that share
// no code with the engine: graph.CheckMatching (the output is a maximal
// matching), graph.SequentialGreedy (greedy's output is the paper's
// sequential greedy in colour order), and the algorithm's dist.Contract via
// check (round and message budgets, including greedy's k−1 rounds and the
// reduction's TotalRounds). The runs must also agree with one another.
func checkOracles(t *testing.T, g *graph.Graph, labels []int) {
	t.Helper()
	want := graph.SequentialGreedy(g, nil)
	for _, a := range algos() {
		if a.NeedsLabels && labels == nil {
			continue
		}
		var first []mm.Output
		var firstStats *runtime.Stats
		for _, workers := range []int{1, 2, 3} {
			outs, st, err := runtime.RunWorkersN(g, labels, a.Source(g), a.MaxRounds(g), workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", a.Name, workers, err)
			}
			if err := graph.CheckMatching(g, outs); err != nil {
				t.Fatalf("%s workers=%d: not a maximal matching: %v", a.Name, workers, err)
			}
			if a.Name == "greedy" && !slices.Equal(outs, want) {
				t.Fatalf("greedy workers=%d: output %v differs from sequential greedy %v", workers, outs, want)
			}
			if vs := check(a.Contract(g), len(g.Halves()), st); len(vs) != 0 {
				t.Fatalf("%s workers=%d: contract violations: %v", a.Name, workers, vs)
			}
			if first == nil {
				first, firstStats = outs, st
				continue
			}
			if !slices.Equal(outs, first) || st.Rounds != firstStats.Rounds ||
				!slices.Equal(st.PerRound(), firstStats.PerRound()) {
				t.Fatalf("%s: workers=%d disagrees with workers=1", a.Name, workers)
			}
		}
	}
}

// TestDifferentialOracles is the property-test half of the oracle check:
// a few hundred pseudo-random byte strings, decoded into instances of every
// shape the decoder reaches (bipartite or not, sparse to saturated).
func TestDifferentialOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		data := make([]byte, 3+3*rng.Intn(80))
		rng.Read(data)
		g, labels := decodeInstance(data)
		checkOracles(t, g, labels)
	}
}

// FuzzDifferentialOracles is the fuzz-target half: arbitrary bytes decode
// to a valid instance (invalid edges skipped), and every algorithm must
// pass every oracle on it.
func FuzzDifferentialOracles(f *testing.F) {
	f.Add([]byte{6, 3, 0, 0, 1, 0, 1, 2, 1, 2, 3, 2})
	f.Add([]byte{9, 15, 1, 0, 1, 200, 2, 3, 7, 4, 5, 9, 6, 7, 1})
	f.Add([]byte{31, 7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, labels := decodeInstance(data)
		if g == nil {
			return
		}
		checkOracles(t, g, labels)
	})
}
