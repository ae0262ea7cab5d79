package gen_test

import (
	"reflect"
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
