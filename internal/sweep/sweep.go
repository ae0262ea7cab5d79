package sweep

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// Config describes one sweep.
type Config struct {
	// Grids are grid specs in the gen.ParseGrid range DSL, e.g.
	// "matching-union:n=4096..65536,k=16..1024". Each expands to its
	// parameter cross product.
	Grids []string
	// Algos are algorithm names from the Algos registry. Empty means
	// greedy only.
	Algos []string
	// Reps is the number of seeded repetitions per (family, params, algo)
	// cell; 0 means 1.
	Reps int
	// Seed is the base seed every cell seed is derived from (via
	// gen.SubSeed, so cells are mutually uncorrelated and order-independent).
	Seed int64
	// CellWorkers bounds how many cells run concurrently (0 = GOMAXPROCS).
	CellWorkers int
	// EngineWorkers is the per-cell engine worker count passed to
	// runtime.RunWorkersN (≤ 1 runs the round loop on the cell's own
	// goroutine). Statistics are worker-count-independent, so this never
	// changes the results — only the wall clock.
	EngineWorkers int
	// CheckBounds holds every execution's traffic against its algorithm's
	// dist.Contract and records violations in the results.
	CheckBounds bool
	// ReorderWindow bounds how many completed cells Stream may buffer
	// ahead of the emission frontier (0 = twice the cell workers, at least 4). It is the
	// streaming driver's entire per-cell memory ceiling.
	ReorderWindow int
	// Done is the number of cells at the start of the run's range (the
	// Shard slice when Shard is set) whose rows are already on disk;
	// Stream skips them without building or running anything and appends
	// the rest. Resume verifies the file and sets it.
	Done int
	// Shard, when non-nil, restricts the run to one contiguous slice of
	// the canonical cell order: shard Index of Count, the range computed
	// by gen.SplitCells over the expanded grid. The Count shards of a
	// Config partition its cells exactly, each emitting its rows in
	// canonical order, so concatenating the shard outputs in index order
	// reproduces the single-process file byte for byte (shard.Merge
	// verifies exactly that). Done counts within the shard's range.
	Shard *ShardSpec
	// Instances names fixed, provider-resolved instances to sweep in
	// addition to (or instead of) the generated Grids: each ref crosses
	// with Algos × Reps exactly like a one-cell grid, in canonical order
	// after all grid cells. The serving layer routes client-submitted
	// graphs through here. Refs beyond the registry need a Provider that
	// resolves their IDs.
	Instances []InstanceRef
	// Provider supplies built instances to the cells; nil means the gen
	// scenario registry (RegistryProvider), which resolves generated
	// families only. A serving stack injects a caching provider chained
	// over a submitted-graph store and the registry.
	Provider InstanceProvider
	// Metrics, when non-nil, receives the run's telemetry: per-cell
	// build/run/emit timings, rows/violations counters, reorder-window
	// gauges (see NewMetrics). Purely observational — it never changes
	// results, seeds, or emission order, and nil costs a branch per hook.
	Metrics *Metrics
	// Tracer, when non-nil, logs per-cell spans ("resolve", "run", "emit",
	// each tagged with the cell ID) as JSONL events. Observational only,
	// like Metrics.
	Tracer *obs.Tracer
}

// InstanceRef names one fixed instance in Config.Instances: the provider-
// scoped address (for submitted graphs, the gen.EdgeListID content hash)
// plus the descriptive parameters its rows record. Params must be non-empty
// — rows need identity fields for the resume machinery — and for submitted
// graphs they carry the instance's observable shape (n, k).
type InstanceRef struct {
	ID     string
	Params gen.Params
}

// ShardSpec names one shard of a sharded sweep: shard Index of Count.
type ShardSpec struct {
	Index, Count int
}

// String renders the spec in the "i/N" syntax mmsweep's -shard flag takes.
func (s ShardSpec) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// validate checks the spec addresses a real shard.
func (s ShardSpec) validate() error {
	if s.Count < 1 || s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("sweep: invalid shard %s (want 0 ≤ index < count)", s)
	}
	return nil
}

// CellInfo names one cell of the canonical order: its ID and the instance
// seed this Config derives for it.
type CellInfo struct {
	ID   string
	Seed int64
}

// CellPlan returns the identity of every cell of cfg's run in canonical
// order — the Shard slice when Shard is set, Done ignored: the row order
// the run's output file must hold, with the per-cell seeds, which is what
// ScanPlan verifies a file against.
func CellPlan(cfg Config) ([]CellInfo, error) {
	cells, err := runCells(cfg)
	if err != nil {
		return nil, err
	}
	plan := make([]CellInfo, len(cells))
	for i, c := range cells {
		plan[i] = CellInfo{ID: c.id(), Seed: cellSeed(cfg, c)}
	}
	return plan, nil
}

// Result is one cell's outcome — one JSONL row.
type Result struct {
	Scenario string `json:"scenario"`
	// Params is the cell's complete parameter set in canonical (sorted)
	// spec syntax; Scenario + ":" + Params re-parses to this cell.
	Params string `json:"params"`
	Algo   string `json:"algo"`
	// Rep is the repetition index, Seed the derived instance seed actually
	// passed to gen (shared by every algorithm on this cell's instance).
	Rep  int   `json:"rep"`
	Seed int64 `json:"seed"`
	// Skip is the reason the cell did not run (e.g. an algorithm needing
	// labels on an unlabelled family); all other fields are zero.
	Skip string `json:"skip,omitempty"`

	N         int `json:"n"`
	Edges     int `json:"edges"`
	MaxDegree int `json:"max_degree"`
	K         int `json:"k"`

	Rounds   int `json:"rounds"`
	Messages int `json:"messages"`
	Bytes    int `json:"bytes"`
	// Matched is the matching size in edges.
	Matched int `json:"matched"`
	// PerRound is the histogram of [messages, bytes] per round, in round
	// order — the raw data the bounds checker evaluated.
	PerRound [][2]int `json:"per_round,omitempty"`
	// Violations are the contract breaches found by Check; only populated
	// when Config.CheckBounds is set, and empty on a conforming run.
	Violations []Violation `json:"violations,omitempty"`
}

// ID names the cell, for error messages and logs.
func (r *Result) ID() string { return cellID(r.Scenario, r.Params, r.Algo, r.Rep) }

// cellID is the canonical cell identity every row, cell and plan entry is
// named by.
func cellID(scenario, params, algo string, rep int) string {
	return fmt.Sprintf("%s:%s/%s/rep%d", scenario, params, algo, rep)
}

// cell is one unit of work in the expanded grid. It names its instance by
// scenario string and canonical params — never by a resolved gen.Scenario —
// so the same driver machinery runs registry families and provider-resolved
// submitted graphs alike.
type cell struct {
	scenario string
	params   gen.Params
	algo     Algo
	rep      int
}

// id is the cell's canonical identity — identical to the Result.ID of its
// row, which is how ScanPlan matches existing JSONL rows back to cells.
func (c cell) id() string { return cellID(c.scenario, c.params.String(), c.algo.Name, c.rep) }

// Expand resolves a Config into its cell list without running anything:
// grids expand through gen.ParseGrid, and the cells are ordered grid by
// grid, parameter cross product in DSL order, algorithm by algorithm,
// repetition by repetition — the exact order Stream emits rows in.
func Expand(cfg Config) (int, error) {
	cells, err := expand(cfg)
	return len(cells), err
}

// runCells expands cfg and returns the cells of its run: the contiguous
// slice gen.SplitCells assigns to Shard when it is set, else all of them.
// The slice is a pure function of (cell count, shard count), so every
// shard of a Config computes the same partition independently.
func runCells(cfg Config) ([]cell, error) {
	cells, err := expand(cfg)
	if err != nil || cfg.Shard == nil {
		return cells, err
	}
	if err := cfg.Shard.validate(); err != nil {
		return nil, err
	}
	r := gen.SplitCells(len(cells), cfg.Shard.Count)[cfg.Shard.Index]
	return cells[r.Lo:r.Hi], nil
}

func expand(cfg Config) ([]cell, error) {
	algoNames := cfg.Algos
	if len(algoNames) == 0 {
		algoNames = []string{"greedy"}
	}
	algos := make([]Algo, len(algoNames))
	for i, name := range algoNames {
		a, ok := AlgoByName(name)
		if !ok {
			return nil, fmt.Errorf("sweep: unknown algorithm %q (valid: %v)", name, AlgoNames())
		}
		algos[i] = a
	}
	reps := cfg.Reps
	if reps < 1 {
		reps = 1
	}
	var cells []cell
	for _, spec := range cfg.Grids {
		sc, grid, err := gen.ParseGrid(spec)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		for _, params := range grid {
			for _, a := range algos {
				for rep := 0; rep < reps; rep++ {
					cells = append(cells, cell{scenario: sc.Name, params: params, algo: a, rep: rep})
				}
			}
		}
	}
	for _, ref := range cfg.Instances {
		if ref.ID == "" {
			return nil, fmt.Errorf("sweep: instance ref with empty ID")
		}
		if len(ref.Params) == 0 {
			// Rows must carry identity fields (scenario AND params) for the
			// resume machinery to reconstruct their cells.
			return nil, fmt.Errorf("sweep: instance %s has no params (rows need identity fields — record at least the shape, e.g. n and k)", ref.ID)
		}
		for _, a := range algos {
			for rep := 0; rep < reps; rep++ {
				cells = append(cells, cell{scenario: ref.ID, params: ref.Params, algo: a, rep: rep})
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("sweep: empty sweep (no grids or instances)")
	}
	return cells, nil
}

// cellSeed derives the cell's instance seed. It depends on the cell's
// values, not its position: every algorithm sees the same instance for a
// given (family, params, rep), and reordering or extending the grid never
// reshuffles instances.
func cellSeed(cfg Config, c cell) int64 {
	return gen.SubSeed(cfg.Seed, c.scenario, c.params.String(), strconv.Itoa(c.rep))
}

// runCell builds and executes one cell. The instance comes through the
// configured InstanceProvider — generated, looked up in a store, or served
// from a cache — and may be shared with concurrent cells, so it is strictly
// read-only here.
func runCell(cfg Config, c cell) (Result, error) {
	res := Result{
		Scenario: c.scenario,
		Params:   c.params.String(),
		Algo:     c.algo.Name,
		Rep:      c.rep,
		Seed:     cellSeed(cfg, c),
	}
	spec := InstanceSpec{Scenario: c.scenario, Params: c.params, Seed: res.Seed}
	var sp obs.Span
	if cfg.Tracer != nil {
		sp = cfg.Tracer.Start("resolve", "cell", res.ID())
	}
	t0 := time.Now()
	inst, err := cfg.provider().Instance(spec)
	cfg.Metrics.observeBuild(time.Since(t0))
	if cfg.Tracer != nil {
		sp.End()
	}
	if err != nil {
		return res, fmt.Errorf("sweep: %s: %w", res.ID(), err)
	}
	g := inst.G
	if c.algo.NeedsLabels && inst.Labels == nil {
		res.Skip = "needs a labelled instance"
		return res, nil
	}
	res.N, res.Edges, res.MaxDegree, res.K = g.N(), g.NumEdges(), g.MaxDegree(), g.K()

	src := c.algo.Source(g)
	maxRounds := c.algo.MaxRounds(g)
	if cfg.Tracer != nil {
		sp = cfg.Tracer.Start("run", "cell", res.ID())
	}
	t0 = time.Now()
	outs, st, err := runtime.RunWorkersN(g, inst.Labels, src, maxRounds, cfg.EngineWorkers)
	cfg.Metrics.observeRun(time.Since(t0))
	if cfg.Tracer != nil {
		sp.End()
	}
	if err != nil {
		return res, fmt.Errorf("sweep: %s: %w", res.ID(), err)
	}
	if err := graph.CheckMatching(g, outs); err != nil {
		return res, fmt.Errorf("sweep: %s: invalid output: %w", res.ID(), err)
	}

	res.Rounds = st.Rounds
	res.Messages = st.Messages
	for _, o := range outs {
		if o.IsMatched() {
			res.Matched++
		}
	}
	res.Matched /= 2 // two endpoints per matched edge
	if st.Rounds > 0 {
		// A row that ran no round keeps a nil PerRound, as its decoded
		// JSONL (per_round omitted) has.
		res.PerRound = make([][2]int, st.Rounds)
	}
	for _, t := range st.Traffic {
		res.PerRound[t.Round-1] = [2]int{t.Messages, t.Bytes}
		res.Bytes += t.Bytes
	}
	if cfg.CheckBounds {
		res.Violations = Check(c.algo.Contract(g), len(g.Halves()), st)
	}
	return res, nil
}

// DefaultGrids is the smoke grid covering every registered scenario family
// at a small size: families with an n parameter get n=128 (64 per side for
// double-cover), the k-sized families (caterpillar, worstcase) run at their
// defaults. TestAllFamiliesConform and the CI sweep drive it; it is also
// what cmd/mmsweep -grid all expands to.
func DefaultGrids() []string {
	var specs []string
	for _, s := range gen.All() {
		spec := s.Name
		if _, ok := s.Params["n"]; ok {
			n := 128
			if s.Name == "double-cover" {
				n = 64
			}
			spec += ":n=" + strconv.Itoa(n)
		}
		specs = append(specs, spec)
	}
	return specs
}
