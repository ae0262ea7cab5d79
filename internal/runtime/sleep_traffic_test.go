package runtime_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/runtime"
)

// TestSleepingGreedyTrafficMatchesReference pins the engine's send-time
// traffic accounting on the workload that stresses it: sleeping greedy in
// the k ≫ Δ regime, where nodes leave and rejoin the frontier all run
// long and the scan window keeps moving. A message counts only when its
// receiver runs that round, so a sender must test the receiver's frontier
// bit and the window both; words outside the window can keep stale bits
// from an older round. Without the window test some seeds count a message
// the reference simulator never delivers.
func TestSleepingGreedyTrafficMatchesReference(t *testing.T) {
	const spec = "bounded-degree:n=1024,k=128,delta=3"
	for seed := int64(1); seed <= 20; seed++ {
		inst, _, err := gen.BuildSpec(spec, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g := inst.G
		pool := dist.NewGreedyMachinePool(g.N())
		maxRounds := runtime.DefaultMaxRounds(g)
		refOuts, ref, err := runtime.RunReference(g, nil, dist.NewGreedyMachinePool(g.N()), maxRounds)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		for _, workers := range []int{1, 2, 3} {
			name := fmt.Sprintf("seed %d workers=%d", seed, workers)
			outs, got, err := runtime.RunWorkersN(g, nil, pool, maxRounds, workers)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got.Messages != ref.Messages || got.Rounds != ref.Rounds {
				t.Fatalf("%s: messages/rounds %d/%d, reference %d/%d",
					name, got.Messages, got.Rounds, ref.Messages, ref.Rounds)
			}
			if !slices.Equal(got.PerRound(), ref.PerRound()) {
				t.Fatalf("%s: per-round traffic differs from the reference", name)
			}
			if !slices.Equal(got.HaltTimes, ref.HaltTimes) {
				t.Fatalf("%s: halt times differ from the reference", name)
			}
			if !slices.Equal(outs, refOuts) {
				t.Fatalf("%s: outputs differ from the reference", name)
			}
		}
	}
}
