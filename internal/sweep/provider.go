package sweep

import (
	"errors"
	"fmt"

	"repro/internal/gen"
)

// InstanceSpec names one instance the sweep driver needs built: the
// scenario (a registered family name, or a content-addressed submitted-
// graph ID), the full merged parameter set and the derived instance seed.
// It is the value that crosses the InstanceProvider seam — everything an
// implementation needs to construct, look up, or cache the instance, and
// nothing about how the driver will run it.
type InstanceSpec struct {
	// Scenario is the family name ("regular", …) or a provider-scoped
	// instance address (a gen.GraphIDPrefix ID for submitted graphs).
	Scenario string
	// Params is the complete parameter set, already merged onto the
	// family's defaults; Params.String() is the canonical rendering the
	// cell IDs and cache keys use.
	Params gen.Params
	// Seed is the value-addressed instance seed (gen.SubSeed derived).
	// Providers of fixed instances (submitted graphs) ignore it — the
	// instance exists independent of any seed — but it still participates
	// in the spec's identity so rows and cache keys stay uniform.
	Seed int64
}

// ID is the spec's canonical content address, gen.InstanceID. It is the
// instance-cache key, and it agrees with the JSONL rows the sweep emits —
// a row's (scenario, params, seed) fields reassemble to exactly this
// string.
func (s InstanceSpec) ID() string {
	return gen.InstanceID(s.Scenario, s.Params, s.Seed)
}

// ErrUnknownInstance reports that a provider does not know the spec's
// scenario or instance address. Chained providers (Providers) treat it as
// "not mine, try the next one"; any other error aborts the chain.
var ErrUnknownInstance = errors.New("unknown instance")

// InstanceProvider is the seam between the sweep driver and instance
// construction. The driver asks for instances by value-addressed spec and
// never cares whether the answer was generated from the scenario registry,
// looked up in a store of client-submitted graphs, or returned from a
// content-addressed cache — which is what lets the same sweep, contract
// and bounds-check machinery serve batch CLIs and network requests alike.
//
// Implementations must be deterministic (the same spec always names the
// same instance, bit for bit) and safe for concurrent use; the returned
// instance may be shared between concurrent cells and callers, so it must
// be treated as read-only. A graph.Graph is immutable once built, so
// every instance is safe for concurrent engine reads as-built.
type InstanceProvider interface {
	Instance(spec InstanceSpec) (*gen.Instance, error)
}

// RegistryProvider resolves specs against the gen scenario registry — the
// default provider, and the behaviour every sweep had before the seam
// existed. Unknown scenario names return ErrUnknownInstance.
type RegistryProvider struct{}

// Instance implements InstanceProvider.
func (RegistryProvider) Instance(spec InstanceSpec) (*gen.Instance, error) {
	s, ok := gen.Lookup(spec.Scenario)
	if !ok {
		return nil, fmt.Errorf("%w: %q is not a registered scenario", ErrUnknownInstance, spec.Scenario)
	}
	return s.Build(spec.Seed, spec.Params)
}

// Providers chains providers: each is asked in order, ErrUnknownInstance
// passes to the next, and any other answer (instance or hard error) is
// final. A serving stack composes a submitted-graph store in front of the
// registry this way.
func Providers(ps ...InstanceProvider) InstanceProvider {
	return chainProvider(ps)
}

type chainProvider []InstanceProvider

// Instance implements InstanceProvider.
func (c chainProvider) Instance(spec InstanceSpec) (*gen.Instance, error) {
	err := fmt.Errorf("%w: empty provider chain", ErrUnknownInstance)
	for _, p := range c {
		inst, e := p.Instance(spec)
		if e == nil {
			return inst, nil
		}
		err = e
		if !errors.Is(e, ErrUnknownInstance) {
			break
		}
	}
	return nil, err
}

// provider returns the configured InstanceProvider, defaulting to the
// scenario registry.
func (cfg Config) provider() InstanceProvider {
	if cfg.Provider != nil {
		return cfg.Provider
	}
	return RegistryProvider{}
}
