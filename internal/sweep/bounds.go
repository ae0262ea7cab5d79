package sweep

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/runtime"
)

// Violation is one breach of a communication contract, as structured data:
// the rule that failed, the round it failed in (0 for whole-run rules) and
// the observed versus permitted numbers.
type Violation struct {
	// Rule names the failed check: "rounds", "msgs-per-node",
	// "msgs-per-edge" or "bytes-per-msg".
	Rule string `json:"rule"`
	// Round is the 1-based round of a per-round rule, 0 for whole-run
	// rules.
	Round int `json:"round,omitempty"`
	// Got is the observed quantity, Limit what the contract permits.
	Got   int `json:"got"`
	Limit int `json:"limit"`
}

// String renders the violation for error messages and logs.
func (v Violation) String() string {
	if v.Round > 0 {
		return fmt.Sprintf("%s: round %d delivered %d, contract allows %d", v.Rule, v.Round, v.Got, v.Limit)
	}
	return fmt.Sprintf("%s: got %d, contract allows %d", v.Rule, v.Got, v.Limit)
}

// Check holds an execution's statistics against a machine's communication
// contract and returns every breach (nil when the contract holds).
// directedEdges is the instance's directed edge count (2|E|); st must
// carry the sparse traffic record the engine keeps — a nil Traffic with a
// nonzero message count cannot be checked and is reported as a
// "msgs-per-node" violation of limit 0 so silently unverifiable runs
// cannot pass.
//
// Only the recorded rounds are checked: a round that delivered no message
// cannot exceed any per-round limit, since every limit is ≥ 0. The
// per-node rule compares a round's delivered messages against
// MsgsPerNodeRound × RoundTraffic.Live, the nodes that had not halted when
// the round began: a node that halts in round r still sends in round r, so
// it counts as live there. Delivered counts are what the engine records —
// a message sent to a peer that halted in an earlier round is dropped
// unread and uncounted — so delivered ≤ sent and the checks are sound.
func Check(c dist.Contract, directedEdges int, st *runtime.Stats) []Violation {
	var out []Violation
	if c.MaxRounds > 0 && st.Rounds > c.MaxRounds {
		out = append(out, Violation{Rule: "rounds", Got: st.Rounds, Limit: c.MaxRounds})
	}
	if st.Traffic == nil {
		if st.Messages > 0 {
			out = append(out, Violation{Rule: "msgs-per-node", Got: st.Messages, Limit: 0})
		}
		return out
	}
	for _, t := range st.Traffic {
		if c.MsgsPerNodeRound > 0 {
			if limit := c.MsgsPerNodeRound * t.Live; t.Messages > limit {
				out = append(out, Violation{Rule: "msgs-per-node", Round: t.Round, Got: t.Messages, Limit: limit})
			}
		}
		if c.MsgsPerEdgeRound > 0 {
			if limit := c.MsgsPerEdgeRound * directedEdges; t.Messages > limit {
				out = append(out, Violation{Rule: "msgs-per-edge", Round: t.Round, Got: t.Messages, Limit: limit})
			}
		}
		if c.MaxMessageBytes > 0 {
			if limit := c.MaxMessageBytes * t.Messages; t.Bytes > limit {
				out = append(out, Violation{Rule: "bytes-per-msg", Round: t.Round, Got: t.Bytes, Limit: limit})
			}
		}
	}
	return out
}
