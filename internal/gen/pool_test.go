package gen

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// instanceDiff describes the first difference between two instances' CSR
// arrays (per-node ranges, halves, mates) and labels, or returns "" when
// they are byte-identical.
func instanceDiff(a, b *Instance) string {
	if a.G.N() != b.G.N() || a.G.K() != b.G.K() || a.G.MaxDegree() != b.G.MaxDegree() {
		return "shapes differ"
	}
	for v := 0; v < a.G.N(); v++ {
		alo, ahi := a.G.HalfRange(v)
		blo, bhi := b.G.HalfRange(v)
		if alo != blo || ahi != bhi {
			return fmt.Sprintf("node %d range (%d,%d) vs (%d,%d)", v, alo, ahi, blo, bhi)
		}
	}
	if !slices.Equal(a.G.Halves(), b.G.Halves()) {
		return "halves differ"
	}
	if !slices.Equal(a.G.Mates(), b.G.Mates()) {
		return "mates differ"
	}
	if !slices.Equal(a.Labels, b.Labels) {
		return "labels differ"
	}
	return ""
}

// TestPooledBuildsLeakNoState builds every family's small instance A,
// then a larger instance B of another family with more nodes and colours,
// then A again, on several goroutines at once (CI runs it under -race).
// Build takes its rng and the family its builder from pools that B has
// just used, so both A builds must equal A generated from a fresh
// rand.New(rand.NewSource(…)) byte for byte, labels included.
func TestPooledBuildsLeakNoState(t *testing.T) {
	const seed = 7
	type build struct {
		name      string
		s         Scenario
		overrides Params
		want      *Instance
	}
	var small []build
	for _, s := range registry {
		o := Params{}
		if _, ok := s.Params["n"]; ok {
			o["n"] = 48
		}
		p, err := s.resolve(o)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.gen(p, rand.New(rand.NewSource(streamSeed(s.Name, seed))))
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		small = append(small, build{name: s.Name + ":" + p.String(), s: s, overrides: o, want: want})
	}
	// big returns B for a small family: matching-union at n=3000, k=24, or
	// bounded-degree at n=4000, k=1024, Δ=9 when the small one is
	// matching-union itself.
	big := func(small string) (Scenario, Params) {
		if small == "matching-union" {
			s, _ := Lookup("bounded-degree")
			return s, Params{"n": 4000, "k": 1024, "delta": 9}
		}
		s, _ := Lookup("matching-union")
		return s, Params{"n": 3000, "k": 24, "density": 0.9}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, a := range small {
				for pass := 1; pass <= 2; pass++ {
					got, err := a.s.Build(seed, a.overrides)
					if err != nil {
						t.Errorf("%s: %v", a.name, err)
						return
					}
					if d := instanceDiff(got, a.want); d != "" {
						t.Errorf("goroutine %d, %s build %d: %s", w, a.name, pass, d)
					}
					if pass == 1 {
						b, o := big(a.s.Name)
						if _, err := b.Build(int64(w), o); err != nil {
							t.Errorf("B after %s: %v", a.name, err)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
