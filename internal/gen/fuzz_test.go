package gen_test

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
)

// FuzzParseGrid drives arbitrary spec strings through ParseGrid. It must
// never panic, and every grid point it accepts must round-trip: rendered
// back into spec syntax the point parses to exactly itself, and its
// instance ID parses back to (name, point, seed). A value whose rendering
// does not parse back to itself (NaN never equals itself) fails here. The
// registry's defaults must be unchanged afterwards. The seed corpus lives
// in testdata/fuzz/FuzzParseGrid.
func FuzzParseGrid(f *testing.F) {
	for _, spec := range []string{
		"matching-union:n=4096..65536,k=2|6,density=0.5..0.9..+0.2",
		"bounded-degree:n=1024,k=256..1024..x4,delta=3,attempts=0",
		"path:n=8..64",
		"caterpillar:k=2|3|4,legs=0..2..+1",
		"worstcase",
	} {
		f.Add(spec, int64(1))
	}
	defaults := map[string]gen.Params{}
	for _, s := range gen.All() {
		defaults[s.Name] = s.Params
	}
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		s, points, err := gen.ParseGrid(spec)
		if err != nil {
			return
		}
		for _, p := range points {
			_, again, err := gen.ParseGrid(s.Name + ":" + p.String())
			if err != nil {
				t.Fatalf("%q: point %s does not reparse: %v", spec, p, err)
			}
			if len(again) != 1 || !reflect.DeepEqual(again[0], p) {
				t.Fatalf("%q: point %s reparses as %v", spec, p, again)
			}
			name, q, gotSeed, err := gen.ParseInstanceID(gen.InstanceID(s.Name, p, seed))
			if err != nil {
				t.Fatalf("%q: instance ID of %s: %v", spec, p, err)
			}
			if name != s.Name || gotSeed != seed || !reflect.DeepEqual(q, p) {
				t.Fatalf("%q: instance ID of %s@%d parses as %s:%s@%d", spec, p, seed, name, q, gotSeed)
			}
		}
		if got, _ := gen.Lookup(s.Name); !reflect.DeepEqual(got.Params, defaults[s.Name]) {
			t.Fatalf("%q: defaults of %s changed to %v", spec, s.Name, got.Params)
		}
	})
}

// FuzzParseInstanceID drives arbitrary strings through ParseInstanceID. It
// must never panic, and an ID it accepts, re-rendered by InstanceID, must
// parse back to the same scenario, parameter rendering and seed: the
// address a cache key is derived from names one instance however it was
// spelled. The seed corpus lives in testdata/fuzz/FuzzParseInstanceID.
func FuzzParseInstanceID(f *testing.F) {
	f.Fuzz(func(t *testing.T, id string) {
		scenario, p, seed, err := gen.ParseInstanceID(id)
		if err != nil {
			return
		}
		again := gen.InstanceID(scenario, p, seed)
		scenario2, p2, seed2, err := gen.ParseInstanceID(again)
		if err != nil {
			t.Fatalf("%q re-renders as %q, which does not parse: %v", id, again, err)
		}
		if scenario2 != scenario || p2.String() != p.String() || seed2 != seed {
			t.Fatalf("%q parses as %s:%s@%d, its rendering %q as %s:%s@%d",
				id, scenario, p, seed, again, scenario2, p2, seed2)
		}
	})
}

// FuzzEdgeListID decodes bytes into an edge list (three signed bytes per
// {u, v, colour} triple) and pins the content address's invariances: the
// ID does not change when the edges are permuted or their endpoints
// swapped, and hashing leaves the caller's slice untouched. The seed
// corpus lives in testdata/fuzz/FuzzEdgeListID.
func FuzzEdgeListID(f *testing.F) {
	f.Fuzz(func(t *testing.T, n, k int, data []byte, shuffle int64) {
		edges := make([][3]int, len(data)/3)
		for i := range edges {
			for j := range edges[i] {
				edges[i][j] = int(int8(data[3*i+j]))
			}
		}
		orig := slices.Clone(edges)
		id := gen.EdgeListID(n, k, edges)
		if !slices.Equal(edges, orig) {
			t.Fatal("EdgeListID modified its input")
		}
		if !gen.IsGraphID(id) || len(id) != len(gen.GraphIDPrefix)+32 || strings.Trim(id[len(gen.GraphIDPrefix):], "0123456789abcdef") != "" {
			t.Fatalf("ID %q is not the prefix and 32 hex digits", id)
		}
		rng := rand.New(rand.NewSource(shuffle))
		moved := make([][3]int, len(edges))
		for i, j := range rng.Perm(len(edges)) {
			e := edges[j]
			if rng.Intn(2) == 1 {
				e[0], e[1] = e[1], e[0]
			}
			moved[i] = e
		}
		if got := gen.EdgeListID(n, k, moved); got != id {
			t.Fatalf("permuted, endpoint-swapped edges %v hash to %s, the originals %v to %s", moved, got, edges, id)
		}
	})
}
