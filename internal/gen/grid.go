package gen

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// maxGridCells bounds the cross-product expansion of one grid spec: a typo
// like n=1..1000000..+1 should fail loudly, not allocate a million cells.
const maxGridCells = 1 << 16

// ParseGrid resolves a grid spec against the registry and expands it into
// the full parameter cross product. The syntax extends the scalar
// name[:param=value,…] DSL of Parse: each parameter accepts a value *set*,
//
//	v             a single value
//	lo..hi        a geometric range, doubling from lo while ≤ hi
//	lo..hi..x4    a geometric range with an explicit multiplier
//	lo..hi..+256  an arithmetic range with an explicit step
//	a|b|c         an explicit list
//
// so for example
//
//	matching-union:n=4096..65536,k=2|6,density=0.5..0.9..+0.2
//
// names 5 × 2 × 3 = 30 cells. The expansion is deterministic: parameters
// vary in sorted name order with the first name slowest, and every returned
// Params is the scenario's defaults with the cell's overrides merged — each
// entry is a complete, self-describing instance description whose String()
// round-trips through Parse. Range endpoints follow the same integrality
// rule as Parse: a parameter with an integral default only accepts integral
// values.
func ParseGrid(spec string) (Scenario, []Params, error) {
	name, rest, hasParams := strings.Cut(spec, ":")
	s, ok := Lookup(name)
	if !ok {
		return Scenario{}, nil, fmt.Errorf("gen: unknown scenario %q (valid: %s)",
			name, strings.Join(Names(), ", "))
	}
	names := []string{}
	values := map[string][]float64{}
	if hasParams && rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return Scenario{}, nil, fmt.Errorf("gen: malformed parameter %q in %q (want key=values)", kv, spec)
			}
			if _, dup := values[key]; dup {
				return Scenario{}, nil, fmt.Errorf("gen: parameter %q given twice in %q", key, spec)
			}
			vs, err := parseValues(val)
			if err != nil {
				return Scenario{}, nil, fmt.Errorf("gen: parameter %s in %q: %w", key, spec, err)
			}
			names = append(names, key)
			values[key] = vs
		}
	}
	sort.Strings(names)

	// Cross product, first sorted parameter slowest. Every cell is merged
	// onto the defaults immediately so unknown names, integrality and range
	// violations surface here, pointing at the spec.
	cells := []Params{{}}
	for _, key := range names {
		vs := values[key]
		if len(cells)*len(vs) > maxGridCells {
			return Scenario{}, nil, fmt.Errorf("gen: grid %q expands to more than %d cells", spec, maxGridCells)
		}
		next := make([]Params, 0, len(cells)*len(vs))
		for _, cell := range cells {
			for _, v := range vs {
				p := make(Params, len(cell)+1)
				for k, pv := range cell {
					p[k] = pv
				}
				p[key] = v
				next = append(next, p)
			}
		}
		cells = next
	}
	full := make([]Params, len(cells))
	for i, cell := range cells {
		p, err := s.resolve(cell)
		if err != nil {
			return Scenario{}, nil, fmt.Errorf("gen: %s: %w (spec %q)", s.Name, err, spec)
		}
		full[i] = p
	}
	return s, full, nil
}

// parseValues expands one parameter's value set (see ParseGrid's grammar).
func parseValues(val string) ([]float64, error) {
	if strings.Contains(val, "|") {
		var out []float64
		for _, part := range strings.Split(val, "|") {
			f, err := strconv.ParseFloat(part, 64)
			if err != nil {
				return nil, err
			}
			out = append(out, f)
		}
		return out, nil
	}
	lo, rest, isRange := strings.Cut(val, "..")
	if !isRange {
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, err
		}
		return []float64{f}, nil
	}
	hi, step, hasStep := strings.Cut(rest, "..")
	loF, err := strconv.ParseFloat(lo, 64)
	if err != nil {
		return nil, err
	}
	hiF, err := strconv.ParseFloat(hi, 64)
	if err != nil {
		return nil, err
	}
	// A NaN endpoint would expand to no values at all, and an infinite one
	// to a run of infinities; Params.merged refuses single non-finite
	// values, but an empty range never reaches it.
	if !finite(loF) || !finite(hiF) {
		return nil, fmt.Errorf("range %s..%s needs finite endpoints", lo, hi)
	}
	if hiF < loF {
		return nil, fmt.Errorf("range %s..%s is empty", lo, hi)
	}
	mult, add := 2.0, 0.0
	if hasStep {
		switch {
		case strings.HasPrefix(step, "x"):
			mult, err = strconv.ParseFloat(step[1:], 64)
			if err != nil {
				return nil, err
			}
			if mult <= 1 || !finite(mult) {
				return nil, fmt.Errorf("multiplier %q must exceed 1 and be finite", step)
			}
		case strings.HasPrefix(step, "+"):
			mult = 0
			add, err = strconv.ParseFloat(step[1:], 64)
			if err != nil {
				return nil, err
			}
			if add <= 0 || !finite(add) {
				return nil, fmt.Errorf("step %q must be positive and finite", step)
			}
		default:
			return nil, fmt.Errorf("malformed step %q (want x<mult> or +<step>)", step)
		}
	}
	if mult > 0 && loF == 0 {
		return nil, fmt.Errorf("geometric range %q cannot start at 0", val)
	}
	var out []float64
	// The epsilon admits hi itself when float arithmetic lands a hair
	// above it (0.5..0.9..+0.2 must include 0.9).
	eps := math.Abs(hiF) * 1e-9
	for i, v := 0, loF; v <= hiF+eps; i++ {
		if math.Abs(v-hiF) <= eps {
			v = hiF // snap float arithmetic onto the endpoint
		}
		out = append(out, snapDecimal(v))
		if len(out) > maxGridCells {
			return nil, fmt.Errorf("range %q expands to more than %d values", val, maxGridCells)
		}
		if mult > 0 {
			v *= mult
		} else {
			// Index-based, not accumulated: repeated v += 0.1 drifts off
			// the values the spec names.
			v = loF + float64(i+1)*add
		}
	}
	return out, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// snapDecimal rounds float artefacts (0.1 + 2×0.1 = 0.30000000000000004)
// to nine decimal places, so range cells carry exactly the values the spec
// names — the canonical params string, and hence the value-addressed cell
// seed, must match the equivalent explicit list. Magnitudes past 1e6 are
// left alone: integral inputs are exact there anyway, and the round-trip
// through the 1e9 scale would itself lose precision.
func snapDecimal(v float64) float64 {
	if math.Abs(v) > 1e6 {
		return v
	}
	return math.Round(v*1e9) / 1e9
}

// SubSeed derives a deterministic child seed from a base seed and a list of
// string tags, through the same name-hash/splitmix mixing that keeps
// scenario rng streams uncorrelated. Sweep drivers use it to give every
// (scenario, params, repetition) cell its own stream: nearby bases and
// related tags still produce unrelated seeds, and the derivation depends
// only on values — never on iteration order — so re-running a sweep
// reproduces every instance exactly.
func SubSeed(base int64, tags ...string) int64 {
	seed := base
	for _, tag := range tags {
		seed = streamSeed(tag, seed)
	}
	return seed
}
