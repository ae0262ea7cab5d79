package runtime

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/mm"
)

// RunWorkersN executes the protocol on a fixed pool of workers with a round
// barrier: live nodes are tracked in a shared bitset frontier, workers claim
// word chunks of it from an atomic cursor, and messages live in a dense
// per-directed-edge slab, so the round loop performs no allocations. labels
// supplies per-node input (§1.1's "2-coloured graphs" provide the
// bipartition this way); it may be nil, otherwise it must have one entry per
// node. A single worker runs the round loop on the calling goroutine.
// Machines that implement Sleeper leave the frontier for the idle rounds
// they announce, and rounds in which every live node sleeps are skipped
// (see sleep.go); a message sent to a sleeping node fails the run.
//
// The result is independent of the worker count and of the chunk-claim
// schedule: the two phase barriers per round make every interleaving
// equivalent to the one-worker schedule (see steal.go and runtime/doc.go
// for the determinism argument).
func RunWorkersN(g *graph.Graph, labels []int, src Source, maxRounds, workers int) ([]mm.Output, *Stats, error) {
	if err := checkLabels(g, labels); err != nil {
		return nil, nil, err
	}
	n := g.N()
	if n == 0 {
		return []mm.Output{}, &Stats{HaltTimes: []int{}}, nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	halves := g.Halves()
	mates := g.Mates()
	st := workersStatePool.Get().(*workersState)
	defer workersStatePool.Put(st)
	st.fit(n, workers, g.MaxDegree())

	// Machines are requested and initialised in node order before any
	// worker starts, so stateful sources behave identically at every worker
	// count. The source owns the slice, so the engine boxes nothing per run.
	machines := src.NewPool(n)
	haltTimes := make([]int, n)
	var alive int64
	// scanLo/scanHi bound the frontier's nonzero words. Liveness only
	// shrinks (machines never un-halt), so each round's receive phase can
	// re-derive the bound from the words it wrote and the next round scans
	// only that window — a clustered tail stops paying for the whole array.
	words := frontierWords(n)
	scanLo, scanHi := words, 0
	// cur is round 1's frontier; fit zeroed the pooled words, so setting
	// only the live bits here cannot inherit liveness from a previous run.
	// sleepy records whether any live node implements Sleeper; runs without
	// one never ask a machine to sleep, so their wakeup heap stays empty.
	cur, next := st.cur, st.next
	sleepy := false
	for v := 0; v < n; v++ {
		m := machines[v]
		m.Init(NodeInfo{K: g.K(), Colors: g.IncidentColors(v), Label: labelOf(labels, v)})
		if m.Halted() {
			continue
		}
		alive++
		if sl, ok := m.(Sleeper); ok {
			sleepy = true
			if s := sl.Sleep(); s > 0 {
				st.sleeps[0] = append(st.sleeps[0], wakeup{min(s, maxRounds) + 1, v})
				continue
			}
		}
		frontierSet(cur, v)
		if v>>6 < scanLo {
			scanLo = v >> 6
		}
		scanHi = v>>6 + 1
	}
	chunkWords := chunkWordsFor(words, workers)

	// slab[i] is the message in flight towards Halves()[i]'s owner: the
	// peer writes it into slot Mates()[j] of its own half j during the
	// send phase, and the owner receives it in place and re-nils it during
	// the receive phase, so each node's incoming messages sit contiguously
	// in its own half range, in port order. The two phases are
	// barrier-separated, and each slot has exactly one writer and one
	// reader, so no slot is ever touched concurrently. A run whose nodes
	// all halt at time 0 (greedy on a k-regular instance) executes no
	// round, so it skips sizing and clearing the slab and offsets: a
	// pooled state that only serves such runs never holds them.
	var slab []Message
	var offsets []int
	if alive > 0 {
		st.fitEdges(n, len(halves))
		slab, offsets = st.slab, st.offsets
		for v := 0; v < n; v++ {
			_, offsets[v+1] = g.HalfRange(v)
		}
	}
	// st.round is the round the workers run next. Initialisation ends
	// "round 0" like any other, in which every word of cur is fresh: the
	// nodes that slept at Init may be all the live ones, and then round 1
	// is fast-forwarded past. With nobody asleep, wake just moves on to
	// round 1 over the window [scanLo, scanHi).
	st.round, st.scanLo, st.scanHi = 0, 0, words
	st.front, st.spare = cur, next
	if err := st.wake(scanLo, scanHi, maxRounds); err != nil {
		return nil, nil, err
	}

	// Phase cursors start at zero and are both reset by the last worker
	// arriving at the end-of-round barrier, while it holds the barrier lock:
	// the send cursor is idle since the mid-round barrier, the receive
	// cursor since every claim loop drained, so neither reset races a claim.
	sendCursor, recvCursor := &st.sendCursor, &st.recvCursor
	// endRound runs in the last worker to reach the end-of-round barrier,
	// under the barrier lock: it merges the per-worker live-word bounds and
	// traffic published before the barrier, records a round that delivered
	// a message, rewinds the phase cursors and wakes the nodes due next
	// round. The barrier's mutex orders everything it writes. live is the
	// alive count taken at the previous round's end, before this round's
	// halts; nodes halt only in a receive phase, so the rounds wake
	// fast-forwards past leave it unchanged.
	live := int(alive)
	endRound := func() {
		lo, hi := words, 0
		rt := RoundTraffic{Round: st.round, Live: live}
		for w := 0; w < workers; w++ {
			if st.wmin[w] < lo {
				lo = st.wmin[w]
			}
			if st.wmax[w]+1 > hi {
				hi = st.wmax[w] + 1
			}
			rt.Messages += st.wtraffic[w].Messages
			rt.Bytes += st.wtraffic[w].Bytes
		}
		if rt.Messages > 0 {
			st.record = append(st.record, rt)
		}
		live = int(atomic.LoadInt64(&alive))
		sendCursor.Store(0)
		recvCursor.Store(0)
		st.wakeErr = st.wake(lo, hi, maxRounds)
	}

	bar := newBarrier(workers)
	errs := make([]error, workers)
	work := func(w int) {
		// Each worker swaps its own view of the double buffer at the
		// end-of-round barrier, so the swap must be goroutine-local:
		// shadow the shared headers rather than reassigning them.
		cur, next := cur, next
		outBuf := st.outBufs[w]
		for {
			// alive, wakeErr and the round state are stable between the
			// receive barrier and the next send barrier, so every worker
			// takes the same branch here.
			if atomic.LoadInt64(&alive) == 0 || st.wakeErr != nil {
				break
			}
			round, base, limit := st.round, st.scanLo, st.scanHi
			if round > maxRounds {
				errs[w] = fmt.Errorf("runtime: no termination within %d rounds", maxRounds)
				break
			}
			// Send phase: claim frontier chunks; each live node's
			// outgoing message on port p, its half lo+p, lands in slot
			// mates[lo+p], the receiving half's own, so the claim schedule
			// cannot change what any slot holds. Traffic is counted here,
			// while the payload the sender wrote is still in cache: a
			// message counts as delivered when its receiver runs this
			// round, that is when its frontier bit is set inside the
			// scanned window (words outside it can keep stale bits; see
			// wake).
			var msgs, nbytes int
			for {
				wlo, whi, ok := claimChunk(sendCursor, base, limit, chunkWords)
				if !ok {
					break
				}
				for wi := wlo; wi < whi; wi++ {
					for word := cur[wi]; word != 0; word &= word - 1 {
						v := wi<<6 + bits.TrailingZeros64(word)
						lo := offsets[v]
						out := outBuf[:offsets[v+1]-lo]
						machines[v].Send(out)
						for p, msg := range out {
							if msg != nil {
								i := lo + p
								slab[mates[i]] = msg
								out[p] = nil
								u := halves[i].Peer
								if uw := u >> 6; uw >= base && uw < limit && cur[uw]&(1<<uint(u&63)) != 0 {
									msgs++
									nbytes += messageBytes(msg)
								}
							}
						}
					}
				}
			}
			bar.wait(nil)
			// Receive phase: claim frontier chunks again. Chunks are
			// disjoint word ranges, so the claimant exclusively owns its
			// words' nodes: it hands each node its incoming slots as the
			// in slice, clears them, and writes the words of the next
			// frontier (halted bits dropped by one AND-NOT each).
			//
			// wmin/wmax track the nonzero next-frontier words this worker
			// wrote and sleeps the nodes it put to sleep; they and the send
			// phase's traffic go to the per-worker slots before the barrier.
			wmin, wmax := words, -1
			sleeps := st.sleeps[w]
			for {
				wlo, whi, ok := claimChunk(recvCursor, base, limit, chunkWords)
				if !ok {
					break
				}
				for wi := wlo; wi < whi; wi++ {
					word := cur[wi]
					lw := word
					for bw := word; bw != 0; bw &= bw - 1 {
						t := bits.TrailingZeros64(bw)
						v := wi<<6 + t
						in := slab[offsets[v]:offsets[v+1]]
						m := machines[v]
						m.Receive(in)
						clear(in)
						if m.Halted() {
							lw &^= 1 << uint(t)
							haltTimes[v] = round
							atomic.AddInt64(&alive, -1)
						} else if sleepy {
							if sl, ok := m.(Sleeper); ok {
								if s := sl.Sleep(); s > 0 {
									lw &^= 1 << uint(t)
									sleeps = append(sleeps, wakeup{round + min(s, maxRounds) + 1, v})
								}
							}
						}
					}
					next[wi] = lw
					if lw != 0 {
						if wi < wmin {
							wmin = wi
						}
						wmax = wi
					}
				}
			}
			st.wmin[w], st.wmax[w], st.sleeps[w], st.wtraffic[w] = wmin, wmax, sleeps, RoundTraffic{Messages: msgs, Bytes: nbytes}
			bar.wait(endRound)
			// Every worker swaps its local view in lockstep behind the
			// barrier, so all of round r+1 reads the frontier round r built.
			cur, next = next, cur
		}
	}
	if workers == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				work(w)
			}(w)
		}
		wg.Wait()
	}

	if st.wakeErr != nil {
		return nil, nil, st.wakeErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	stats := &Stats{HaltTimes: haltTimes}
	if len(st.record) > 0 {
		stats.Traffic = slices.Clone(st.record)
		for _, t := range st.record {
			stats.Messages += t.Messages
		}
	}
	for v := 0; v < n; v++ {
		if haltTimes[v] > stats.Rounds {
			stats.Rounds = haltTimes[v]
		}
	}
	outs := make([]mm.Output, n)
	for v := 0; v < n; v++ {
		outs[v] = machines[v].Output()
	}
	return outs, stats, nil
}

// workersState holds the reusable scratch of one RunWorkersN call, sized by
// the node count, the directed-edge count, the worker count and Δ, never by
// the palette k: a graph with k = 2^30 and two nodes costs what any
// two-node graph costs. Pooling it across calls keeps the engine's
// steady-state allocation footprint at the outputs and statistics it
// returns, which matters when experiments run thousands of executions back
// to back.
type workersState struct {
	// cur/next are the double-buffered frontier word arrays; fit zeroes
	// them on every reuse (a run that errored out of its round loop can
	// leave bits behind, and stale liveness must never leak across runs).
	cur, next []uint64
	offsets   []int
	slab      []Message
	// outBufs are the per-worker send buffers (length Δ, resliced to each
	// node's degree, all-nil between nodes by the send contract); pooling
	// them removes one allocation per worker per run.
	outBufs [][]Message
	// wmin/wmax are the per-worker nonzero next-frontier word bounds of the
	// current round and wtraffic the per-worker delivered traffic;
	// scanLo/scanHi the merged live window the next round scans and round
	// its number. All are handed across rounds under the barrier lock.
	wmin, wmax     []int
	wtraffic       []RoundTraffic
	scanLo, scanHi int
	round          int
	// sleeps[w] is the wakeups worker w recorded this round; wake merges
	// them into heap, the run's sleeping nodes by wake round, and pops the
	// nodes due next round into woken. All three keep their capacity
	// across runs, so a run whose machines never sleep leaves them empty
	// and a sleepy one reaches a steady state without allocating.
	sleeps [][]wakeup
	heap   wakeHeap
	woken  []int
	// record is the run's Stats.Traffic, appended by the end-of-round hook;
	// it keeps its capacity across runs.
	record []RoundTraffic
	// front is the frontier buffer the round being ended wrote (round 1's
	// before the loop starts), spare the other; wake swaps them in step
	// with the workers' double buffer. wakeErr is the error wake reported,
	// which stops the workers at the next round top.
	front, spare []uint64
	wakeErr      error
	// Phase-claim cursors, reset by fit (a run that broke out of its round
	// loop on an error leaves them mid-range).
	sendCursor, recvCursor atomicCursor
}

var workersStatePool = sync.Pool{New: func() any { return &workersState{} }}

// fit resizes the scratch for n nodes, the given worker count and maximum
// degree. The frontier words must be all-zero and the send buffers
// all-nil, and a previous run can leave stale state in either (an error
// path abandons the frontier mid-round), so both are cleared here rather
// than trusted.
func (st *workersState) fit(n, workers, maxDeg int) {
	words := frontierWords(n)
	if cap(st.cur) < words {
		st.cur = make([]uint64, words)
		st.next = make([]uint64, words)
	} else {
		st.cur = st.cur[:words]
		st.next = st.next[:words]
		clear(st.cur)
		clear(st.next)
	}
	if len(st.wmin) < workers {
		st.wmin = make([]int, workers)
		st.wmax = make([]int, workers)
		st.wtraffic = make([]RoundTraffic, workers)
	}
	st.record = st.record[:0]
	// An errored run can leave wakeups behind; a stale one would wake a
	// node of the next run.
	if len(st.sleeps) < workers {
		sleeps := make([][]wakeup, workers)
		copy(sleeps, st.sleeps)
		st.sleeps = sleeps
	}
	for w := range st.sleeps {
		st.sleeps[w] = st.sleeps[w][:0]
	}
	st.heap = st.heap[:0]
	st.wakeErr = nil
	// One array holds every send buffer, each followed by 8 unused
	// Messages (128 bytes), so no two share a cache line or a prefetch
	// pair: workers write them on every send, and a shared line would
	// bounce between the cores.
	if len(st.outBufs) < workers || cap(st.outBufs[0]) < maxDeg {
		stride := maxDeg + 8
		buf := make([]Message, workers*stride)
		st.outBufs = make([][]Message, workers)
		for w := range st.outBufs {
			st.outBufs[w] = buf[w*stride : w*stride+maxDeg : w*stride+maxDeg]
		}
	}
	for w := 0; w < workers; w++ {
		st.outBufs[w] = st.outBufs[w][:maxDeg]
		clear(st.outBufs[w])
	}
	st.sendCursor.Store(0)
	st.recvCursor.Store(0)
}

// fitEdges resizes the per-directed-edge scratch for n nodes and h directed
// edges. Offsets are fully overwritten before use; the slab must be all-nil
// and a previous run can strand messages in it (a halted reader never
// consumes its slot), so it is cleared here rather than trusted.
func (st *workersState) fitEdges(n, h int) {
	if cap(st.offsets) < n+1 {
		st.offsets = make([]int, n+1)
	}
	st.offsets = st.offsets[:n+1]
	if cap(st.slab) < h {
		st.slab = make([]Message, h)
	} else {
		st.slab = st.slab[:h]
		clear(st.slab)
	}
}

// barrier is an allocation-free cyclic barrier: the round loop crosses it
// twice per round, so it must not allocate (a channel-based barrier would).
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   uint64
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all n parties have called wait for the current
// generation, then releases them together. A non-nil onLast runs in the
// last arriver, under the barrier lock, before anyone is released — the
// hook the engine uses to reset the phase cursors race-free.
func (b *barrier) wait(onLast func()) {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		if onLast != nil {
			onLast()
		}
		b.count = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}
