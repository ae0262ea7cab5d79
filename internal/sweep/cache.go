package sweep

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/gen"
)

// DefaultCacheEntries is the instance-cache capacity when NewCachingProvider
// is given a non-positive limit.
const DefaultCacheEntries = 64

// CacheStats is a point-in-time snapshot of a CachingProvider's counters.
type CacheStats struct {
	// Hits counts Instance calls answered from the cache (including calls
	// that joined an in-flight build of the same spec); Misses counts the
	// calls that had to build.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Entries is the number of instances currently held.
	Entries int `json:"entries"`
}

// CachingProvider memoises an InstanceProvider behind a content-addressed
// LRU: instances are keyed by InstanceSpec.ID(), so any two callers naming
// the same (scenario, params, seed) share one built CSR blob —
// repeated requests on hot graphs skip construction entirely. Lookups are
// single-flight: concurrent requests for the same missing key build once
// and share the result, so a thundering herd on a cold million-node
// instance costs one construction, not one per caller.
//
// Cached instances are shared and therefore read-only; that is exactly the
// contract InstanceProvider already imposes. Build failures are not cached
// — a transient error does not poison the key. The cache itself is safe
// for concurrent use.
type CachingProvider struct {
	inner InstanceProvider
	max   int

	mu      sync.Mutex
	entries map[string]*cacheEntry
	lru     *list.List // front = most recently used; values are keys

	hits, misses atomic.Int64
}

type cacheEntry struct {
	once sync.Once
	inst *gen.Instance
	err  error
	elem *list.Element
}

// NewCachingProvider wraps inner in a content-addressed LRU holding at most
// maxEntries instances (DefaultCacheEntries when ≤ 0).
func NewCachingProvider(inner InstanceProvider, maxEntries int) *CachingProvider {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	return &CachingProvider{
		inner:   inner,
		max:     maxEntries,
		entries: map[string]*cacheEntry{},
		lru:     list.New(),
	}
}

// Instance implements InstanceProvider.
func (c *CachingProvider) Instance(spec InstanceSpec) (*gen.Instance, error) {
	key := spec.ID()
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.lru.MoveToFront(e.elem)
		c.hits.Add(1)
	} else {
		e = &cacheEntry{}
		e.elem = c.lru.PushFront(key)
		c.entries[key] = e
		c.misses.Add(1)
		for len(c.entries) > c.max {
			oldest := c.lru.Back()
			c.lru.Remove(oldest)
			delete(c.entries, oldest.Value.(string))
		}
	}
	c.mu.Unlock()

	// The build runs outside the cache lock: a slow cold build must not
	// block hits on other keys. Joiners block here on the same entry.
	e.once.Do(func() { e.inst, e.err = c.inner.Instance(spec) })
	if e.err != nil {
		c.mu.Lock()
		// Drop the failed entry (if it is still ours — a concurrent
		// eviction plus re-insert may have replaced it).
		if cur, ok := c.entries[key]; ok && cur == e {
			c.lru.Remove(e.elem)
			delete(c.entries, key)
		}
		c.mu.Unlock()
		return nil, e.err
	}
	return e.inst, nil
}

// Stats snapshots the hit/miss counters and current occupancy.
func (c *CachingProvider) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n}
}
