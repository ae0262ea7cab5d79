package bench

import (
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sweep"
)

// sampleEvery is the greedy-cell sampling period of the sequential-greedy
// oracle check: one cell in 97, chosen by a hash of the instance ID.
const sampleEvery = 97

// checker holds every row a run produces against the paper's invariants:
//   - greedy halts within k−1 rounds;
//   - the reduction halts within dist.TotalRounds(k, Δ);
//   - no row records a contract violation;
//   - on sampled greedy cells, the matching has the size sequential greedy
//     in colour order gives on the same instance.
//
// Failed ops (errors, bad statuses, torn streams) are counted here too, so
// one value decides whether the run was correct. Safe for concurrent use.
type checker struct {
	mu       sync.Mutex
	failures []string
	nfail    int
	samples  []sample
}

// sample is one greedy row awaiting the oracle check.
type sample struct {
	instance string // gen.InstanceID of the cell
	id       string // the row's cell ID, for messages
	matched  int
}

// fail records one breach; the first few are kept for the report.
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nfail++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// row checks one emitted row; instance is its gen.InstanceID.
func (c *checker) row(r *sweep.Result, instance string) {
	if r.Skip != "" {
		return
	}
	if len(r.Violations) > 0 {
		c.fail("%s: %d contract violations (first: %v)", r.ID(), len(r.Violations), r.Violations[0])
	}
	switch r.Algo {
	case "greedy":
		if r.Rounds > max(r.K-1, 0) {
			c.fail("%s: greedy ran %d rounds, more than k-1 = %d", r.ID(), r.Rounds, r.K-1)
		}
		// The instance ID carries the seed, so every pass samples afresh.
		h := fnv.New32a()
		h.Write([]byte(instance))
		if h.Sum32()%sampleEvery == 0 {
			c.mu.Lock()
			c.samples = append(c.samples, sample{instance: instance, id: r.ID(), matched: r.Matched})
			c.mu.Unlock()
		}
	case "reduced":
		if budget := dist.TotalRounds(r.K, r.MaxDegree); r.Rounds > budget {
			c.fail("%s: reduced ran %d rounds, more than TotalRounds(%d, %d) = %d", r.ID(), r.Rounds, r.K, r.MaxDegree, budget)
		}
	}
}

// verifySamples rebuilds every sampled instance through p and compares the
// row's matching size with graph.SequentialGreedy. It runs after the
// measured window, so the oracle costs no measured time.
func (c *checker) verifySamples(p sweep.InstanceProvider) {
	c.mu.Lock()
	samples := c.samples
	c.samples = nil
	c.mu.Unlock()
	for _, s := range samples {
		scenario, params, seed, err := gen.ParseInstanceID(s.instance)
		if err != nil {
			c.fail("%s: %v", s.id, err)
			continue
		}
		inst, err := p.Instance(sweep.InstanceSpec{Scenario: scenario, Params: params, Seed: seed})
		if err != nil {
			c.fail("%s: rebuilding for the oracle: %v", s.id, err)
			continue
		}
		want := 0
		for _, o := range graph.SequentialGreedy(inst.G, nil) {
			if o.IsMatched() {
				want++
			}
		}
		if want /= 2; want != s.matched {
			c.fail("%s: matched %d edges, sequential greedy matches %d", s.id, s.matched, want)
		}
	}
}

// instanceID is the gen.InstanceID of the instance a row ran on.
func instanceID(r *sweep.Result) string {
	return fmt.Sprintf("%s:%s@%d", r.Scenario, r.Params, r.Seed)
}
