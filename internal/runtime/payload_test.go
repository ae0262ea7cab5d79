package runtime

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/mm"
)

// The tests in this file check the engines' side of the payload lifetime
// contract (see the package doc): a sender-owned list, sent by pointer and
// rewritten only in Send, reaches every receiver exactly as its sender
// published it that round. Their names are those of the arena tests they
// replace; the arena is gone, the guarantees those tests stood for are now
// the engines' to keep.

// listPayload is a test machine's published payload: its sender's own
// colour list, sent by pointer on every port, tagged with the sender and
// the round it was published for.
type listPayload struct {
	from, round int
	colors      []group.Color
}

func (l *listPayload) WireBytes() int { return 8 * len(l.colors) }

// listMachine runs for a fixed number of rounds. In Send it publishes
// listFor(v, r) for round r, rewriting its one payload in place, and only
// when the list differs from the one already published. In Receive it
// checks every port's payload against what the peer behind that port must
// have published for this round, recording each mismatch in bad.
type listMachine struct {
	g       *graph.Graph
	v       int
	rounds  int
	listFor func(v, r int) []group.Color

	colors []group.Color
	r      int
	pub    listPayload
	bad    []string
}

func (m *listMachine) Init(info NodeInfo) {
	m.colors = info.Colors
	m.r = 0
	m.pub = listPayload{from: m.v}
}

func (m *listMachine) Send(out []Message) {
	m.r++
	if l := m.listFor(m.v, m.r); m.r == 1 || !slices.Equal(l, m.pub.colors) {
		m.pub.colors = append(m.pub.colors[:0], l...)
	}
	m.pub.round = m.r
	for i := range out {
		out[i] = &m.pub
	}
}

func (m *listMachine) Receive(in []Message) {
	for i, msg := range in {
		peer, _ := m.g.Neighbor(m.v, m.colors[i])
		l, ok := msg.(*listPayload)
		switch {
		case !ok:
			m.note("round %d node %d port %d: got %T, want the list of node %d", m.r, m.v, i, msg, peer)
		case l.from != peer || l.round != m.r:
			m.note("round %d node %d port %d: got node %d's list of round %d, want node %d's of round %d", m.r, m.v, i, l.from, l.round, peer, m.r)
		case !slices.Equal(l.colors, m.listFor(peer, m.r)):
			m.note("round %d node %d port %d: node %d's list reads %v, want %v", m.r, m.v, i, peer, l.colors, m.listFor(peer, m.r))
		}
		for _, other := range in[:i] {
			if other == msg {
				m.note("round %d node %d: ports %d and an earlier one carry the same payload %p", m.r, m.v, i, msg)
			}
		}
	}
}

func (m *listMachine) note(format string, args ...any) {
	if len(m.bad) < 5 {
		m.bad = append(m.bad, fmt.Sprintf(format, args...))
	}
}

func (m *listMachine) Halted() bool { return m.r >= m.rounds }

func (m *listMachine) Output() mm.Output { return mm.Bottom }

// runListMachines runs listMachines on g under RunReference and RunWorkersN
// with one to three workers, fails the test on any mismatch a receiver saw,
// and checks each round's traffic: one message per directed edge, at the
// sender's WireBytes.
func runListMachines(t *testing.T, g *graph.Graph, rounds int, listFor func(v, r int) []group.Color) {
	t.Helper()
	type engine struct {
		name string
		run  func(Source) (*Stats, error)
	}
	engines := []engine{{"reference", func(src Source) (*Stats, error) {
		_, st, err := RunReference(g, nil, src, rounds+1)
		return st, err
	}}}
	for w := 1; w <= 3; w++ {
		engines = append(engines, engine{fmt.Sprintf("workers=%d", w), func(src Source) (*Stats, error) {
			_, st, err := RunWorkersN(g, nil, src, rounds+1, w)
			return st, err
		}})
	}
	var want []RoundTraffic
	for r := 1; r <= rounds; r++ {
		rt := RoundTraffic{Round: r, Live: g.N()}
		for v := 0; v < g.N(); v++ {
			rt.Messages += g.Degree(v)
			rt.Bytes += 8 * len(listFor(v, r)) * g.Degree(v)
		}
		want = append(want, rt)
	}
	for _, e := range engines {
		ms := make([]*listMachine, g.N())
		st, err := e.run(nodeSource(func(v int) Machine {
			ms[v] = &listMachine{g: g, v: v, rounds: rounds, listFor: listFor}
			return ms[v]
		}))
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		for _, m := range ms {
			for _, b := range m.bad {
				t.Errorf("%s: %s", e.name, b)
			}
		}
		if st.Rounds != rounds {
			t.Errorf("%s: %d rounds, want %d", e.name, st.Rounds, rounds)
		}
		if got := st.PerRound(); !slices.Equal(got, want) {
			t.Errorf("%s: per-round traffic %v, want %v", e.name, got, want)
		}
	}
}

func randomListGraph(t *testing.T, n int, seed int64) *graph.Graph {
	t.Helper()
	g := graph.RandomBoundedDegree(n, 64, 4, 4*n, rand.New(rand.NewSource(seed)))
	if g.NumEdges() == 0 {
		t.Fatal("random instance has no edges")
	}
	return g
}

// TestPackRoundTrip: receivers read exactly the colours their sender
// published, at 8 wire bytes per colour, over the list shapes the old
// codec was tested on — ascending and descending runs, repeats, jumps
// across many orders of magnitude, and empty lists. A sender keeps each
// list for two rounds, so half the rounds deliver a payload published in
// an earlier round and left unchanged since.
func TestPackRoundTrip(t *testing.T) {
	cases := [][]group.Color{
		nil,
		{5},
		{1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1},
		{7, 7, 7},
		{1, 1 << 20, 3, 1 << 30, 2},
		{1 << 30, 1, 1 << 29, 2},
	}
	g := randomListGraph(t, 40, 1)
	runListMachines(t, g, 2*len(cases), func(v, r int) []group.Color {
		return cases[(v+(r-1)/2)%len(cases)]
	})
}

// TestRoundArenaListsAreDisjoint: in one round every node sends its own
// list, and each port delivers the list of the peer behind it and no
// other's; two ports of one node never carry the same payload.
func TestRoundArenaListsAreDisjoint(t *testing.T) {
	g := randomListGraph(t, 64, 2)
	runListMachines(t, g, 4, func(v, r int) []group.Color {
		return []group.Color{group.Color(v), group.Color(v + r), group.Color(v * r)}
	})
}

// TestRoundArenaPayloadsSurviveGrowth: 500 single-colour payloads are in
// flight at once, and every sender rewrites its list in place each round;
// none may read as another round's value while its receivers read it.
func TestRoundArenaPayloadsSurviveGrowth(t *testing.T) {
	g := randomListGraph(t, 500, 3)
	runListMachines(t, g, 6, func(v, r int) []group.Color {
		return []group.Color{group.Color((v + r) % 100)}
	})
}

// TestPackedPayloadsSurviveGrowth: like the test above, but every sender's
// list grows by one colour a round, so it is rewritten in place in some
// rounds and moved to larger storage in others; receivers must read the
// whole of this round's list either way.
func TestPackedPayloadsSurviveGrowth(t *testing.T) {
	g := randomListGraph(t, 500, 4)
	runListMachines(t, g, 8, func(v, r int) []group.Color {
		l := []group.Color{group.Color(v), group.Color(v * 3), group.Color(1 << (v % 31))}
		for i := 1; i <= r; i++ {
			l = append(l, group.Color(v*i+r))
		}
		return l
	})
}
