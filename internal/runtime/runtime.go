package runtime

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/mm"
)

// Message is an opaque message exchanged along an edge. The model allows
// arbitrarily large messages (the lower bound holds regardless), so any
// non-nil value is permitted; machines define their own concrete types.
// A nil Message means "send nothing".
type Message any

// NodeInfo is a node's initial local knowledge: the palette size and its
// incident edge colours in increasing order. Nodes are anonymous — no
// identifiers are provided. Label carries optional per-node input (for
// example the side bit of a 2-coloured/bipartite instance); it is zero
// unless the run supplies labels.
type NodeInfo struct {
	K      int
	Colors []group.Color
	Label  int
}

// sizer is an optional interface for messages that want accurate byte
// accounting in the per-round traffic record: WireBytes reports the
// payload size in bytes. Messages without it count as one byte (a control
// word), which is exact for the wire vocabulary of the dist machines.
type sizer interface {
	WireBytes() int
}

// messageBytes is the recorded size of one message.
func messageBytes(m Message) int {
	if s, ok := m.(sizer); ok {
		return s.WireBytes()
	}
	return 1
}

// Machine is the per-node state machine of a synchronous distributed
// algorithm. A node's ports are positions: port i is its i-th incident edge
// in increasing colour order, the edge of colour NodeInfo.Colors[i], so a
// round's messages fit in a slice of the node's degree. The engine drives a
// machine as:
//
//	Init(info)                          // time 0; may already halt
//	for !Halted():
//	    Send(out)                       // round r begins
//	    Receive(in)                     // messages from non-halted peers
//
// Output must be valid once Halted reports true. Machines are used by one
// goroutine at a time and need not be safe for concurrent use.
type Machine interface {
	// Init resets the machine with the node's initial knowledge.
	Init(info NodeInfo)
	// Send writes this round's outgoing messages into out (length
	// len(Colors), all-nil on entry): out[i] travels along the edge of
	// colour Colors[i], and nil means "send nothing". The engine owns
	// out; machines must not retain it across calls. A payload a message
	// points to must stay unchanged until the sender's next Send (see the
	// package doc on payload lifetime).
	Send(out []Message)
	// Receive delivers this round's incoming messages, in[i] holding the
	// message received along the edge of colour Colors[i] — nil when the
	// peer sent nothing or has halted — and lets the machine update its
	// state. The engine owns in; machines must not write or retain it.
	Receive(in []Message)
	// Halted reports whether the node has stopped.
	Halted() bool
	// Output returns the announced local output; valid once Halted.
	Output() mm.Output
}

// sleeper is an optional Machine extension for nodes that idle through
// stretches of rounds: greedy with k ≫ Δ waits silently for most of its
// k−1 rounds. The engine calls Sleep after Init and after every Receive
// that leaves the machine running. A result s > 0 promises that in each of
// the next s rounds the node would send nothing, would not halt, and that
// its state after Sleep equals its state after s such rounds with all-nil
// input — Sleep itself advances the state past them. The engine then makes
// no Send or Receive call for those rounds. 0 means the node runs next
// round.
//
// The promise binds the node's peers too: they must send nothing to it
// while it sleeps. A node that wakes to find a message waiting fails the
// run with an error, since a simulator that never skips (RunReference)
// would have delivered and counted that message.
type sleeper interface {
	Sleep() int
}

// Source produces the machines of one engine run. Engines know their node
// count up front, so the primitive is a single batch request. Pool is the
// Source every caller uses: it returns the same backing machines — and the
// same boxed slice — run after run, which is what makes repeated
// executions allocation-free. The returned slice is owned by the source
// and must not be mutated by the caller; machines are handed out in node
// order.
type Source interface {
	NewPool(n int) []Machine
}

// RoundTraffic is one round's delivered traffic. A message is delivered
// when it is sent to a node that is live in that round, so it reaches a
// Receive call; a message sent to a halted node is not counted.
type RoundTraffic struct {
	// Round is the 1-based round the entry describes.
	Round int
	// Messages counts edge-messages delivered in the round.
	Messages int
	// Bytes is the total payload size of those messages: WireBytes for
	// messages implementing sizer, one byte per bare control message.
	Bytes int
	// Live counts the nodes that had not halted when the round began,
	// sleeping ones included: those whose HaltTimes entry is ≥ Round.
	Live int
}

// Stats aggregates an execution.
type Stats struct {
	// Rounds is the running time: communication rounds until every node
	// halted (halting at time 0 gives 0 rounds).
	Rounds int
	// Messages counts edge-messages delivered over the whole run: sent in
	// a round to a node that is live in that round (see RoundTraffic).
	Messages int
	// HaltTimes records, per node, the round after which it halted.
	HaltTimes []int
	// Traffic has one entry per round that delivered a message, in round
	// order, so its message counts sum to Messages; silent rounds (nearly
	// all of greedy's k−1 when k ≫ Δ) leave no entry.
	Traffic []RoundTraffic
}

// PerRound expands Traffic to the dense histogram, entry r-1 for round r
// in 1…Rounds (nil when no round ran). A silent round's entry carries only
// its Round: Live stays 0 there, since Traffic keeps no entry for it. It
// allocates Rounds entries, so only callers that need every round (mmrun
// -stats, tests) use it.
func (s *Stats) PerRound() []RoundTraffic {
	if s.Rounds == 0 {
		return nil
	}
	per := make([]RoundTraffic, s.Rounds)
	for r := range per {
		per[r].Round = r + 1
	}
	for _, t := range s.Traffic {
		per[t.Round-1] = t
	}
	return per
}

// DefaultMaxRounds bounds executions to catch non-terminating protocols.
func DefaultMaxRounds(g *graph.Graph) int { return 4*g.K() + g.N() + 16 }

func checkLabels(g *graph.Graph, labels []int) error {
	if labels != nil && len(labels) != g.N() {
		return fmt.Errorf("runtime: %d labels for %d nodes", len(labels), g.N())
	}
	return nil
}

func labelOf(labels []int, v int) int {
	if labels == nil {
		return 0
	}
	return labels[v]
}
