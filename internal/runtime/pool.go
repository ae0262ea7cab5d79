package runtime

// Pool is the Source, backed by a fixed arena of concrete machines:
// NewPool(n) hands the engine all n machines — and the same boxed
// []Machine — in one call, so repeated runs perform no per-machine
// allocation and no per-run boxing.
//
// Machines are zero values of M optionally fixed up by setup (construction
// parameters like the reduced machine's Δ); Init must fully reset a
// machine, which every dist machine guarantees. A Pool serves one engine
// run at a time: the engine drives machines from several goroutines, but the
// NewPool call itself always happens before workers start.
type Pool[M any, PM interface {
	*M
	Machine
}] struct {
	arena []M
	boxed []Machine
	setup func(*M)
}

// NewPool returns a Pool pre-sized for n-node runs. setup, if non-nil, is
// applied to every arena machine (including those added when a later run
// needs a bigger arena).
func NewPool[M any, PM interface {
	*M
	Machine
}](n int, setup func(*M)) *Pool[M, PM] {
	p := &Pool[M, PM]{setup: setup}
	p.grow(n)
	return p
}

// grow extends the arena to n machines. Existing machines are copied into
// the new arena — their accumulated scratch capacity and caches (the whole
// point of pooling) survive growth — and only the added tail is set up.
func (p *Pool[M, PM]) grow(n int) {
	if n <= len(p.arena) {
		return
	}
	arena := make([]M, n)
	old := len(p.arena)
	copy(arena, p.arena)
	boxed := make([]Machine, n)
	for i := range arena {
		if i >= old && p.setup != nil {
			p.setup(&arena[i])
		}
		boxed[i] = PM(&arena[i])
	}
	p.arena, p.boxed = arena, boxed
}

// NewPool implements Source: machines for nodes 0…n−1, growing the arena
// when a run is bigger than any before. The returned slice is owned by the
// pool and reused across calls.
func (p *Pool[M, PM]) NewPool(n int) []Machine {
	p.grow(n)
	return p.boxed[:n]
}
