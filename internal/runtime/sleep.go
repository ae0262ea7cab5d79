package runtime

import "fmt"

// Sleeping nodes: a machine implementing sleeper can leave the frontier
// for a known number of idle rounds. The owning worker clears the node's
// next-frontier bit in the receive phase and records a wakeup on its own
// list; the end-of-round hook, running under the barrier lock, merges
// those lists into one min-heap and sets the bits of the nodes that run
// next round. When every live node sleeps, the hook fast-forwards to the
// earliest wakeup; the skipped rounds are real rounds in which nothing is
// sent, so they leave no entry in Stats.Traffic.

// wakeup is one sleeping node and the round in which it runs next.
type wakeup struct{ round, node int }

// wakeHeap is a binary min-heap of wakeups ordered by round. It is
// hand-rolled because container/heap boxes every pushed value.
type wakeHeap []wakeup

func (h *wakeHeap) push(x wakeup) {
	s := append(*h, x)
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].round <= s[i].round {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*h = s
}

func (h *wakeHeap) pop() wakeup {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && s[c+1].round < s[c].round {
			c++
		}
		if s[i].round <= s[c].round {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// wake ends round st.round (0: initialisation). It runs before any worker
// starts or under the barrier lock, so it owns the whole workers state.
// st.front is the frontier of the next round: the round just ended
// rewrote its words in [st.scanLo, st.scanHi) (the window it scanned) and
// left live bits in [lo, hi).
//
// wake merges the per-worker sleep lists into the heap, picks the next
// round — the following one, or the earliest wakeup when no node is live —
// and sets the frontier bits of the nodes that wake for it. Widening the
// scan window to cover them can take in words this round did not rewrite,
// which may still hold bits from an older round, so those words are zeroed
// first. A woken node with a message waiting in an incoming slab slot was
// sent to while it slept; that is reported as an error. With no wakeups
// pending — always, in a run whose machines never sleep — wake only moves
// on to the next round over the live window [lo, hi).
func (st *workersState) wake(lo, hi, maxRounds int) error {
	front := st.front
	st.front, st.spare = st.spare, front
	for w, list := range st.sleeps {
		for _, x := range list {
			st.heap.push(x)
		}
		st.sleeps[w] = list[:0]
	}
	next := st.round + 1
	if lo >= hi && len(st.heap) > 0 {
		next = st.heap[0].round
	}
	base, limit := st.scanLo, st.scanHi
	st.round, st.scanLo, st.scanHi = next, lo, hi
	if next > maxRounds {
		return nil // the round loop reports the non-termination
	}
	woken := st.woken[:0]
	wlo, whi := len(front), 0
	for len(st.heap) > 0 && st.heap[0].round == next {
		v := st.heap.pop().node
		for i := st.offsets[v]; i < st.offsets[v+1]; i++ {
			if st.slab[i] != nil {
				return fmt.Errorf("runtime: node %d was sent a message while asleep (woke for round %d)", v, next)
			}
		}
		woken = append(woken, v)
		wlo, whi = min(wlo, v>>6), max(whi, v>>6+1)
	}
	st.woken = woken
	if len(woken) == 0 {
		return nil
	}
	lo, hi = min(lo, wlo), max(hi, whi)
	if e := min(hi, base); lo < e {
		clear(front[lo:e])
	}
	if s := max(lo, limit); s < hi {
		clear(front[s:hi])
	}
	for _, v := range woken {
		frontierSet(front, v)
	}
	st.scanLo, st.scanHi = lo, hi
	return nil
}
