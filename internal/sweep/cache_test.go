package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
)

// countingProvider counts how many instances it actually builds.
type countingProvider struct {
	inner  InstanceProvider
	builds atomic.Int64
}

func (c *countingProvider) Instance(spec InstanceSpec) (*gen.Instance, error) {
	c.builds.Add(1)
	return c.inner.Instance(spec)
}

// TestCachingProviderSharesInstancesAcrossAlgos pins the service-shaped
// win: algorithms sweeping the same (params, rep) share one built instance
// — the cache turns per-cell construction into per-instance construction.
func TestCachingProviderSharesInstancesAcrossAlgos(t *testing.T) {
	counter := &countingProvider{inner: RegistryProvider{}}
	cache := NewCachingProvider(counter, 0)
	cfg := Config{
		Grids:    []string{"regular:n=32,k=3"},
		Algos:    []string{"greedy", "proposal", "reduced"},
		Reps:     2,
		Seed:     4,
		Provider: cache,
	}
	var first bytes.Buffer
	if _, err := Stream(context.Background(), cfg, NewJSONLSink(&first)); err != nil {
		t.Fatalf("Stream: %v", err)
	}
	// 6 cells, 2 distinct instances (one per rep; algos share).
	if got := counter.builds.Load(); got != 2 {
		t.Fatalf("built %d instances for 6 cells over 2 reps, want 2", got)
	}
	st := cache.Stats()
	if st.Misses != 2 || st.Hits != 4 {
		t.Fatalf("stats %+v, want 2 misses / 4 hits", st)
	}

	// A repeated identical sweep is all hits and byte-identical.
	var second bytes.Buffer
	if _, err := Stream(context.Background(), cfg, NewJSONLSink(&second)); err != nil {
		t.Fatalf("second Stream: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("cached rerun is not byte-identical")
	}
	if got := counter.builds.Load(); got != 2 {
		t.Fatalf("rerun rebuilt instances: %d builds total, want still 2", got)
	}
	st = cache.Stats()
	if st.Misses != 2 || st.Hits != 10 {
		t.Fatalf("stats after rerun %+v, want 2 misses / 10 hits", st)
	}
}

// TestCachingProviderEviction pins the LRU bound: capacity 1 alternating
// between two specs rebuilds every time, and the occupancy never exceeds
// the cap.
func TestCachingProviderEviction(t *testing.T) {
	counter := &countingProvider{inner: RegistryProvider{}}
	cache := NewCachingProvider(counter, 1)
	a := InstanceSpec{Scenario: "path", Params: gen.Params{"n": 8, "k": 2}, Seed: 1}
	b := InstanceSpec{Scenario: "path", Params: gen.Params{"n": 16, "k": 2}, Seed: 1}
	for i := 0; i < 3; i++ {
		for _, s := range []InstanceSpec{a, b} {
			if _, err := cache.Instance(s); err != nil {
				t.Fatalf("Instance: %v", err)
			}
		}
	}
	if st := cache.Stats(); st.Entries != 1 {
		t.Fatalf("cache holds %d entries past its cap of 1", st.Entries)
	}
	if got := counter.builds.Load(); got != 6 {
		t.Fatalf("alternating past a cap of 1 built %d times, want 6", got)
	}
	// And a hit keeps its entry: repeated a-a-a builds once more, then hits.
	for i := 0; i < 3; i++ {
		if _, err := cache.Instance(a); err != nil {
			t.Fatalf("Instance: %v", err)
		}
	}
	if got := counter.builds.Load(); got != 7 {
		t.Fatalf("hot key rebuilt: %d builds, want 7", got)
	}
}

// flakyProvider fails its first build per key, then delegates.
type flakyProvider struct {
	inner  InstanceProvider
	mu     sync.Mutex
	failed map[string]bool
}

func (f *flakyProvider) Instance(spec InstanceSpec) (*gen.Instance, error) {
	f.mu.Lock()
	first := !f.failed[spec.ID()]
	f.failed[spec.ID()] = true
	f.mu.Unlock()
	if first {
		return nil, errors.New("transient build failure")
	}
	return f.inner.Instance(spec)
}

// TestCachingProviderDoesNotCacheFailures pins that a transient build error
// does not poison the key: the next request rebuilds and succeeds.
func TestCachingProviderDoesNotCacheFailures(t *testing.T) {
	cache := NewCachingProvider(&flakyProvider{inner: RegistryProvider{}, failed: map[string]bool{}}, 0)
	spec := InstanceSpec{Scenario: "regular", Params: gen.Params{"n": 16, "k": 3}, Seed: 2}
	if _, err := cache.Instance(spec); err == nil {
		t.Fatal("first build should fail")
	}
	inst, err := cache.Instance(spec)
	if err != nil || inst == nil {
		t.Fatalf("failure was cached: %v", err)
	}
	if st := cache.Stats(); st.Entries != 1 {
		t.Fatalf("want the recovered instance cached, have %d entries", st.Entries)
	}
}

// TestCachingProviderSingleFlight pins that a herd of concurrent requests
// for one cold key builds exactly once and every caller gets that build.
func TestCachingProviderSingleFlight(t *testing.T) {
	counter := &countingProvider{inner: RegistryProvider{}}
	cache := NewCachingProvider(counter, 0)
	spec := InstanceSpec{Scenario: "regular", Params: gen.Params{"n": 256, "k": 4}, Seed: 3}
	const herd = 16
	insts := make([]*gen.Instance, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inst, err := cache.Instance(spec)
			if err != nil {
				panic(fmt.Sprintf("Instance: %v", err))
			}
			insts[i] = inst
		}(i)
	}
	wg.Wait()
	if got := counter.builds.Load(); got != 1 {
		t.Fatalf("herd of %d built %d times, want 1", herd, got)
	}
	for i := 1; i < herd; i++ {
		if insts[i] != insts[0] {
			t.Fatal("herd callers got different instance pointers")
		}
	}
}
