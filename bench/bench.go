// Package bench is the repository's benchmark: four workloads that each
// stress a different layer of the build → rounds → sweep → serve stack,
// measured from outside through the layers' public seams. cmd/mmbench is
// its command; README.md lists the workloads, the metrics and the rules.
package bench

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	goruntime "runtime"
	"strings"

	"repro/internal/sweep"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median. With 5, build-heavy's set-up spread across ten runs reached
// 10%, as each set-up draws its own instances.
const setupRepeats = 9

// Workload is one set of inputs the benchmark runs. Exactly one of batch
// and serve is set. BENCHMARK.json and README.md say why each was chosen.
type Workload struct {
	Name  string
	batch *batchSpec
	serve *serveSpec
}

// Workloads returns the benchmark's workloads. Worker counts follow the
// host's CPU count, never a fixed number.
func Workloads() []Workload {
	nproc := goruntime.NumCPU()
	return []Workload{
		{
			// Greedy halts at round 0 on regular instances, so no round runs
			// and building the instance is most of the cell (README.md has
			// the measured shares).
			Name: "build-heavy",
			batch: &batchSpec{
				// k=3: the regular family resamples a colour class that
				// collides with earlier ones and gives up after 50 tries; at
				// k=3 that failure has probability ~1e-10 per instance, at
				// k=8 it hits most instances of this size.
				grids: []string{"regular:n=131072,k=3"}, algos: []string{"greedy"},
				reps: 8, cellWorkers: nproc, engineWorkers: 1,
			},
		},
		{
			// k >> Δ: the engine's round loop is nearly all of the cell.
			Name: "rounds-heavy",
			batch: &batchSpec{
				grids: []string{"bounded-degree:n=16384,k=1024,delta=3"}, algos: []string{"greedy", "reduced"},
				reps: 1, cellWorkers: 1, engineWorkers: nproc, checkBounds: true,
			},
		},
		{
			// Tiny cells: per-cell fixed costs dominate.
			Name: "sweep-cells",
			batch: &batchSpec{
				grids: smokeGrids(), algos: []string{"greedy", "reduced", "proposal"},
				reps: 20, cellWorkers: nproc, engineWorkers: 1, checkBounds: true,
			},
		},
		{
			// The only workload through HTTP, the cache and the store.
			Name:  "serve-mixed",
			serve: defaultServeSpec(nproc),
		},
	}
}

// smokeGrids is sweep.DefaultGrids with the regular family at k=3: the
// default k=4 fails to place a colour class on roughly one n=128 instance
// in ten thousand, and a run sweeps tens of thousands of them.
func smokeGrids() []string {
	grids := sweep.DefaultGrids()
	for i, g := range grids {
		if strings.HasPrefix(g, "regular:") {
			grids[i] = g + ",k=3"
		}
	}
	return grids
}

// tiny shrinks a workload's inputs for the smoke test; every code path
// stays the same.
func (w Workload) tiny() Workload {
	if w.batch != nil {
		b := *w.batch
		switch w.Name {
		case "build-heavy":
			b.grids, b.reps = []string{"regular:n=4096,k=3"}, 4
		case "rounds-heavy":
			b.grids, b.reps = []string{"bounded-degree:n=512,k=64,delta=3"}, 1
		default:
			b.reps = 2
		}
		w.batch = &b
		return w
	}
	s := *w.serve
	s.rate, s.poolSpec, s.graphN = 100, "matching-union:n=256,k=6", 64
	w.serve = &s
	return w
}

// Lookup returns the workload named name.
func Lookup(name string) (Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Options selects one run.
type Options struct {
	Workload string
	Seed     int64
	// Seconds is how long the run measures.
	Seconds float64
	// Trace selects the traced run, which reports the per-layer metrics
	// instead of the end-to-end ones.
	Trace bool
	// Dir receives scratch files and traces.
	Dir string
	// Tiny shrinks the inputs (see Workload.tiny); digests are not pinned
	// for tiny runs.
	Tiny bool
}

// Report is everything one run measured: the Result line plus the context
// needed to read it.
type Report struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Host     Host    `json:"host"`
	// Digest is the SHA-256 of the workload's pinned output: pass 0's JSONL
	// for a batch workload, the fixed-rate response bodies by slot for
	// serve-mixed.
	Digest string `json:"digest"`
	// PeakRSSMB is the process's peak resident set (ru_maxrss).
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Steal is the share of the host's CPU time the hypervisor took while
	// the run measured.
	Steal float64 `json:"steal"`
	// Samples counts what the metrics were computed from.
	Samples map[string]int `json:"samples"`
	// Unresolved names the metrics this run's own validity checks reject:
	// serve-mixed's latencies when the load generator ran late. -compare
	// gives any pair with such a run the verdict unresolved.
	Unresolved []string `json:"unresolved,omitempty"`
	Findings   []string `json:"findings,omitempty"`
	Failures   []string `json:"failures,omitempty"`
	Result     Result   `json:"result"`

	metrics *metricSet
}

// noteSteal records the stolen share between two snapshots and flags a
// run that lost more than maxSteal of the host's CPU.
func (rep *Report) noteSteal(u0, u1 usage) {
	rep.Steal = newWindow(0, 0, u0, u1).steal
	if rep.Steal > maxSteal {
		rep.Findings = append(rep.Findings, fmt.Sprintf(
			"host: the hypervisor took %.1f%% of the CPU time while this run measured; the end-to-end numbers leave out the windows it took most from", 100*rep.Steal))
	}
}

//go:embed pins.json
var pinsJSON []byte

// pins are the output digests of every workload at one seed.
type pins struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return p, fmt.Errorf("bench: pins.json: %w", err)
	}
	return p, nil
}

// Run executes one run of one workload. The error reports a run that could
// not finish; a finished run with failed checks reports them in the Result.
func Run(ctx context.Context, o Options) (*Report, error) {
	w, ok := Lookup(o.Workload)
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q", o.Workload)
	}
	if o.Seconds <= 0 {
		return nil, fmt.Errorf("bench: -seconds must be positive")
	}
	if o.Tiny {
		w = w.tiny()
	}
	p, err := loadPins()
	if err != nil {
		return nil, err
	}
	defs := EndToEnd
	if o.Trace {
		defs = PerLayer
	}
	rep := &Report{
		Workload: w.Name, Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace,
		Host: ThisHost(), Samples: map[string]int{}, metrics: newMetricSet(defs),
	}
	chk := &checker{}
	if w.batch != nil {
		err = runBatch(ctx, w, o, rep, chk)
	} else {
		err = runServe(ctx, w, o, rep, chk)
	}
	if err != nil {
		return nil, err
	}
	if err := rep.metrics.complete(defs); err != nil {
		return nil, err
	}
	if want, ok := p.Digests[w.Name]; ok && o.Seed == p.Seed && !o.Tiny && rep.Digest != want {
		chk.fail("output digest %s differs from the pinned %s", rep.Digest, want)
	}
	rep.Result.Metrics = rep.metrics.vals
	rep.Result.Correct = chk.nfail == 0 && rep.Result.Failed == 0
	rep.Failures = chk.failures
	return rep, nil
}
