// Package runtime implements the synchronous LOCAL execution model of
// Hirvonen & Suomela (PODC 2012, §1.2) for anonymous, properly
// edge-coloured graphs.
//
// Each node is a computational entity that initially knows only the colours
// of its incident edges (and the palette size k). In every round each node,
// in parallel, (1) sends a message along each incident edge, (2) receives a
// message from each incident edge, and (3) updates its state. After any
// round — or immediately after initialisation — a node may stop and announce
// its local output. The running time of an execution is the number of
// rounds until every node has stopped.
//
// # Machine protocol
//
// Machine is the one per-node interface: Init with the node's initial
// knowledge, then Send/Receive pairs until Halted. A node's ports are
// positions: port i is its i-th incident edge in increasing colour order,
// the edge of colour NodeInfo.Colors[i], so a round's messages fit in a
// []Message whose length is the node's degree. Send writes out[i] for the
// edge it means; nil means "send nothing", and Receive sees in[i] == nil
// for an edge whose peer sent nothing or has halted. The engine owns both
// buffers; machines must not retain them across calls.
//
// Positions are a local relabelling of the model's colour ports, not a
// change to the model: a node knows its incident colours from NodeInfo,
// so it can translate between colour c and the position of c in Colors
// on its own, and every output and statistic is what colour-indexed ports
// would give. What the relabelling buys is size: the engine's per-worker
// send buffer is Δ entries long, receive reads each node's incoming slab
// slots in place, and no buffer grows with the palette k.
//
// Variable-length payloads (colour lists) belong to the sender, which
// sends a pointer to them. A payload must stay unchanged from the Send
// that sent it until that machine's next Send, and a receiver may read it
// only inside the Receive call that delivered it, never retaining it or
// any slice into it. Every round's receives end before the next round's
// sends begin — RunWorkersN's send/receive barrier, RunReference's
// send-all-then-receive-all rounds — so a machine may rewrite its payload
// in Send, and only there, without any receiver seeing it change.
//
// # The slab message protocol
//
// The engine stores messages in a dense slab with one slot per directed
// edge, indexed exactly like graph.Halves(): slab[i] is the message
// travelling towards half i's owner. The peer writes it during the send
// phase, from its port p, that is its own half j = lo+p, into slot
// graph.Mates()[j], and the owner consumes (re-nils) it during the receive
// phase. A node's halves are sorted by colour, so its incoming messages sit
// contiguously in its own half range in port order, and the receive phase
// hands that range to Receive as the in slice, with no copy. The two
// phases are separated by a round barrier, and each slot has exactly one
// writer and one reader, so no slot is ever touched concurrently and the
// round loop allocates nothing. Slots whose owner has halted may keep a
// stale message; a halted node never reads again, so they are harmless.
//
// Traffic is counted at send time, while the payload the sender just
// wrote is still in cache: a message counts as delivered when its
// receiver runs that round, meaning its bit is set in the round's
// frontier and its word lies inside the round's scan window. The window
// test is needed because words outside the window are not rewritten
// every round and can keep bits from an older round (see Sleeping
// nodes); a bit test alone would count a message to a halted or sleeping
// node whose stale bit survived. With both tests the count is exactly the
// set of messages the receive phase hands to a machine, the same set
// RunReference delivers.
//
// # One engine
//
// RunWorkersN is the engine: a fixed worker pool with a round barrier, live
// nodes tracked in a shared bitset frontier, work distributed by chunk
// stealing (below), messages in the dense slab. It is also the only way
// to start a run: one worker runs the round loop on the calling
// goroutine, and callers that want every core pass GOMAXPROCS. Machines
// come from a Source, which every caller builds as a Pool of one machine
// type, so repeated runs reuse one arena. Outputs and Stats are identical
// at every worker count.
//
// Because every worker count runs the same code, the equivalence tests pin
// the engine against witnesses outside it: a naive simulator written
// straight from the model's definition (RunReference, which shares only the
// Machine interface with the engine), graph.SequentialGreedy for the greedy
// machine, and graph.CheckMatching plus the dist contracts for every
// machine.
//
// # Bitset frontiers and work stealing
//
// The engine tracks liveness in a 64-bit word bitset (bit v of word
// v>>6 is set while node v runs), double-buffered per round: the receive
// phase clears a halting node's bit in the next-round frontier with
// AND-NOT and the buffers swap at the round barrier. Scans walk only a
// live-word window [scanLo, scanHi) — liveness is monotone, so the window
// only shrinks — and within a word iterate set bits with TrailingZeros64.
// A long tail of rounds with few live nodes therefore costs per-word scans
// proportional to the surviving cluster, not O(n) per round.
//
// RunWorkersN distributes each phase by work stealing: workers claim
// fixed-size chunks of the live window's word range from an atomic cursor
// (one per phase, reset behind the barrier) until the cursor runs off the
// end. The claim schedule is nondeterministic; the results are not, by
// this argument: a chunk claim decides only WHICH worker processes a
// node's sends or receives, never what happens to them. Send-phase writes
// land in the per-directed-edge slab slot of the receiving half, a
// location fixed by the graph, not the schedule, and whether a message
// counts depends only on the round's frontier, which no worker writes
// during the send phase. Receive-phase chunks are disjoint word ranges,
// so a claimant exclusively owns its nodes' frontier words — and with
// them the incoming slots it empties, the next-frontier writes, halt-time
// entries and live-count decrements; each round's traffic is an integer
// sum of the workers' shares, taken once at the barrier. Every claim
// interleaving therefore produces byte-identical outputs and Stats, which
// the steal-interleaving tests pin by shrinking chunks to one word and
// yielding between claims.
//
// # Sleeping nodes
//
// In the LOCAL model a node that sends nothing and receives nothing in a
// round cannot be told apart from one the simulator skipped. Greedy with
// k ≫ Δ is almost entirely such rounds: a node does something only in the
// rounds that decide its own ≤ Δ colour classes, yet the frontier would
// call it in all k−1. A machine with the optional method Sleep() int
// can say so. Sleep() = s > 0 promises s idle rounds — no sends,
// no halt, and a state after Sleep equal to the state after s rounds of
// empty input, which Sleep applies itself — and peers promise to send it
// nothing meanwhile. The engine calls Sleep after Init and after every
// Receive that leaves the node running; a sleeping node leaves the
// frontier, and its (wake round, node) pair goes onto its worker's list.
// The end-of-round hook merges the lists into a min-heap under the barrier
// lock, zeroes any frontier words the widened scan window takes in but the
// round did not rewrite (they can hold bits from an older round), and sets
// the bits of the nodes due next round. When no node is live it
// fast-forwards to the heap's earliest wakeup.
//
// The determinism argument extends unchanged. Whether a node sleeps, and
// for how long, is decided by the worker that owns its frontier word —
// the same exclusive ownership that decides halting — and the wake set of
// a round is a set of nodes fixed by those decisions, merged under the
// barrier lock, so no claim schedule can change it. Fast-forwarded rounds
// are real rounds in which nothing is sent: they count towards Rounds and
// maxRounds and leave no traffic entry, exactly as in RunReference, which
// never calls Sleep and so simulates every idle round. A message sent to a
// sleeping node is a broken promise that RunReference would have delivered
// and counted, so the engine fails the run when that node wakes rather
// than drop it. Runs in which no live node has a Sleep method never call
// it, so their heap stays empty and the hook only advances the round.
//
// # Statistics
//
// Stats reports rounds, delivered messages, per-node halt times and
// Stats.Traffic, the messages and bytes (a message's optional WireBytes()
// int method gives its size; a bare control word is one byte) and the
// live-node count of each round that delivered a message, so the record
// does not grow with the highest colour; Stats.PerRound expands it to every
// round. internal/sweep holds it against the paper's contracts: greedy
// delivers at most one message per live node per round, the reduction
// phases at most one colour list per directed edge per round.
package runtime
