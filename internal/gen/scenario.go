package gen

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/graph"
)

// Params is a scenario's named numeric parameters, stored uniformly as
// float64. A parameter whose default is integral (n, k, delta, …) only
// accepts integral overrides — merging rejects fractional values rather
// than silently truncating them.
type Params map[string]float64

// Int returns the parameter as an int (0 when absent).
func (p Params) Int(name string) int { return int(p[name]) }

// Float returns the parameter as a float64 (0 when absent).
func (p Params) Float(name string) float64 { return p[name] }

// clone returns an independent copy of the parameters.
func (p Params) clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// merged returns a copy of the defaults with overrides applied. It is the
// one place every override passes (Parse, ParseGrid and Build), so it
// refuses what no family can build: a parameter the scenario does not
// declare (the error names the valid ones), a non-finite value, and, for a
// parameter whose default is integral, a fractional value or one outside
// the int range. Every error names the parameter.
func (p Params) merged(overrides Params) (Params, error) {
	out := p.clone()
	for k, v := range overrides {
		d, ok := p[k]
		if !ok {
			return nil, fmt.Errorf("gen: unknown parameter %q (valid: %s)", k, p.keys())
		}
		if !finite(v) {
			return nil, fmt.Errorf("gen: parameter %q must be finite, got %v", k, v)
		}
		// A parameter whose default is integral is an integral parameter
		// (n, k, delta, …); silently truncating 1000.9 to 1000 would build
		// a different instance than the spec asked for, and converting a
		// value past the int range wraps it.
		if d == math.Trunc(d) {
			if v != math.Trunc(v) {
				return nil, fmt.Errorf("gen: parameter %q must be an integer, got %v", k, v)
			}
			if v < math.MinInt || v >= -float64(math.MinInt) {
				return nil, fmt.Errorf("gen: parameter %q is outside the int range, got %v", k, v)
			}
		}
		out[k] = v
	}
	return out, nil
}

func (p Params) keys() string {
	names := make([]string, 0, len(p))
	for k := range p {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// String renders the parameters in spec syntax (sorted, so deterministic).
func (p Params) String() string {
	names := make([]string, 0, len(p))
	for k := range p {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = fmt.Sprintf("%s=%v", k, p[k])
	}
	return strings.Join(parts, ",")
}

// Instance is one built scenario: the graph plus optional per-node input
// labels (nil unless the family defines them — double-cover returns the
// bipartition in dist's encoding: dist.SideBlack, white being 0).
type Instance struct {
	G      *graph.Graph
	Labels []int
}

// Scenario is one registered graph family. Params holds the defaults;
// Build instantiates the family from a seed after merging overrides.
type Scenario struct {
	Name   string
	Doc    string
	Params Params
	// check, if non-nil, refuses merged parameters outside the family's
	// range (density in [0, 1], attempts ≥ 0, …) at parse time.
	check func(p Params) error
	gen   func(p Params, rng *rand.Rand) (*Instance, error)
}

// resolve merges overrides onto the defaults and applies the family's
// range check.
func (s Scenario) resolve(overrides Params) (Params, error) {
	p, err := s.Params.merged(overrides)
	if err != nil {
		return nil, err
	}
	if s.check != nil {
		if err := s.check(p); err != nil {
			return nil, fmt.Errorf("gen: %w", err)
		}
	}
	return p, nil
}

// rngPool recycles Build's generators: each holds a 4.9 KB math/rand
// source, which a small instance would otherwise allocate more bytes for
// than for its graph.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// Build instantiates the scenario: overrides (may be nil) are merged onto
// the defaults and the family is generated from a deterministic rng stream
// derived from (scenario name, seed) — distinct scenarios driven by the
// same seed stay uncorrelated, and the same (name, params, seed) triple
// names the same instance forever. The generator comes from a pool;
// Seed resets its whole state, so the stream is exactly that of a fresh
// rand.New(rand.NewSource(…)).
func (s Scenario) Build(seed int64, overrides Params) (*Instance, error) {
	p, err := s.resolve(overrides)
	if err != nil {
		return nil, fmt.Errorf("gen: %s: %w", s.Name, err)
	}
	rng := rngPool.Get().(*rand.Rand)
	rng.Seed(streamSeed(s.Name, seed))
	inst, err := s.gen(p, rng)
	rngPool.Put(rng)
	if err != nil {
		return nil, fmt.Errorf("gen: %s: %w", s.Name, err)
	}
	return inst, nil
}

// streamSeed derives the scenario's rng seed: the name hash is mixed with
// the user seed through a splitmix64 round so that nearby seeds and
// related names still give unrelated streams.
func streamSeed(name string, seed int64) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	z := h.Sum64() ^ uint64(seed)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// registry holds every scenario, built once at package initialisation:
// Lookup runs once per sweep cell and per served request, so it reads this
// table rather than rebuilding nine scenarios and their Params maps per
// call. Its Params maps are shared and read-only; merged copies them, and
// All hands out independent copies.
var registry = []Scenario{
	matchingUnion(), boundedDegree(), regular(), pathScenario(),
	cycleScenario(), tree(), caterpillar(), worstCase(), doubleCover(),
}

func init() {
	seen := map[string]bool{}
	for _, s := range registry {
		if seen[s.Name] {
			panic(fmt.Sprintf("gen: scenario %q registered twice", s.Name))
		}
		seen[s.Name] = true
	}
}

// All returns every registered scenario in a stable order. The result is
// the caller's own: mutating a returned Scenario or its Params does not
// change the registry.
func All() []Scenario {
	all := make([]Scenario, len(registry))
	for i, s := range registry {
		s.Params = s.Params.clone()
		all[i] = s
	}
	return all
}

// Names lists the registered scenario names in registry order.
func Names() []string {
	names := make([]string, len(registry))
	for i, s := range registry {
		names[i] = s.Name
	}
	return names
}

// Lookup returns the scenario with the given name. It allocates nothing:
// the Scenario shares its Params with the registry, so they are read-only —
// Build and Parse merge overrides into a copy, and a caller that wants to
// edit defaults must copy them (or take them from All) first.
func Lookup(name string) (Scenario, bool) {
	for i := range registry {
		if registry[i].Name == name {
			return registry[i], true
		}
	}
	return Scenario{}, false
}

// Parse resolves a spec string "name[:param=value,…]" against the registry.
// The returned Params hold only the overrides; Build merges them.
func Parse(spec string) (Scenario, Params, error) {
	name, rest, hasParams := strings.Cut(spec, ":")
	s, ok := Lookup(name)
	if !ok {
		return Scenario{}, nil, fmt.Errorf("gen: unknown scenario %q (valid: %s)",
			name, strings.Join(Names(), ", "))
	}
	overrides := Params{}
	if hasParams && rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return Scenario{}, nil, fmt.Errorf("gen: malformed parameter %q in %q (want key=value)", kv, spec)
			}
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Scenario{}, nil, fmt.Errorf("gen: parameter %s in %q: %w", key, spec, err)
			}
			overrides[key] = f
		}
	}
	// Reject unknown keys and out-of-range values at parse time so the
	// error points at the spec.
	if _, err := s.resolve(overrides); err != nil {
		return Scenario{}, nil, fmt.Errorf("%w (spec %q)", err, spec)
	}
	return s, overrides, nil
}

// BuildSpec parses a spec and builds it from the seed in one call — the
// entry point the cmd and example layers use.
func BuildSpec(spec string, seed int64) (*Instance, Scenario, error) {
	s, overrides, err := Parse(spec)
	if err != nil {
		return nil, Scenario{}, err
	}
	inst, err := s.Build(seed, overrides)
	if err != nil {
		return nil, Scenario{}, err
	}
	return inst, s, nil
}
