package graph

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/group"
)

// FuzzCSRBuilder decodes arbitrary bytes into a builder shape and a stream
// of edge triples: byte 0 gives n ∈ [0, 64]; byte 1 gives k ∈ [1, 16],
// or k = 2^30 when its high bit is set, so the palette dwarfs the edge
// count and both the colour hash set and Build's comparison sort run; and
// each following 3-byte group is one (u, v, c) with u, v ∈ [−1, n] and
// c ∈ [0, k+1] (c ∈ [0, 255] at k = 2^30), so out-of-range endpoints and
// colours occur alongside valid ones. The triples go to AddEdge on one
// builder and TryAddEdge on another. Neither may panic, both must accept
// exactly the same edges, Build must not fail, and the graph must pass
// Validate and report exactly the accepted edges and degrees. The
// accepted edges are then replayed, endpoints swapped, on a third builder
// twice: in colour order, which Build scatters as they arrive, and in a
// permutation drawn from the input bytes, which Build sorts first. Both
// must give the same CSR arrays. Finally the triples go through
// BuildWith's pooled builder twice, with a larger build of the same bytes
// at n = 64, k = 16 in between, and both pooled builds must give those
// arrays too. The seed corpus lives in testdata/fuzz/FuzzCSRBuilder.
func FuzzCSRBuilder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, k := int(data[0])%65, 1+int(data[1])%16
		if data[1] >= 0x80 {
			k = 1 << 30
		}
		strict, lenient := NewCSRBuilder(n, k), NewCSRBuilder(n, k)
		var accepted []Edge
		degs := make([]int, n)
		for i := 2; i+2 < len(data); i += 3 {
			u, v := int(data[i])%(n+2)-1, int(data[i+1])%(n+2)-1
			c := group.Color(int(data[i+2]) % (k + 2))
			err := strict.AddEdge(u, v, c)
			if ok := lenient.TryAddEdge(u, v, c); ok != (err == nil) {
				t.Fatalf("edge {%d, %d} colour %v: AddEdge err=%v, TryAddEdge=%v", u, v, c, err, ok)
			}
			if err != nil {
				continue
			}
			if u > v {
				u, v = v, u
			}
			accepted = append(accepted, Edge{U: u, V: v, Color: c})
			degs[u]++
			degs[v]++
		}
		sort.Slice(accepted, func(a, b int) bool {
			if accepted[a].U != accepted[b].U {
				return accepted[a].U < accepted[b].U
			}
			return accepted[a].V < accepted[b].V
		})

		g := strict.Build()
		if err := g.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		twin := lenient.Build()
		sameCSR(t, "AddEdge vs TryAddEdge", g, twin)
		if got := g.Edges(); len(got) != len(accepted) || (len(got) > 0 && !reflect.DeepEqual(got, accepted)) {
			t.Fatalf("Edges() = %v, accepted %v", got, accepted)
		}
		for v, d := range degs {
			if g.Degree(v) != d {
				t.Fatalf("Degree(%d) = %d, accepted %d incidences", v, g.Degree(v), d)
			}
		}

		replay := NewCSRBuilder(n, k)
		rebuild := func(name string, edges []Edge) {
			replay.Reset(n, k)
			for _, e := range edges {
				if err := replay.AddEdge(e.V, e.U, e.Color); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			h := replay.Build()
			sameCSR(t, name, h, g)
		}
		sort.SliceStable(accepted, func(a, b int) bool { return accepted[a].Color < accepted[b].Color })
		rebuild("replay in colour order", accepted)
		for i := len(accepted) - 1; i > 0; i-- {
			j := int(data[i%len(data)]) % (i + 1)
			accepted[i], accepted[j] = accepted[j], accepted[i]
		}
		rebuild("replay permuted", accepted)

		pooled := func(n, k int) *Graph {
			h, err := BuildWith(n, k, func(b *CSRBuilder) error {
				for i := 2; i+2 < len(data); i += 3 {
					b.TryAddEdge(int(data[i])%(n+2)-1, int(data[i+1])%(n+2)-1, group.Color(int(data[i+2])%(k+2)))
				}
				return nil
			})
			if err != nil {
				t.Fatalf("BuildWith: %v", err)
			}
			return h
		}
		sameCSR(t, "first pooled build", pooled(n, k), g)
		pooled(64, 16)
		sameCSR(t, "pooled build after another", pooled(n, k), g)
	})
}
