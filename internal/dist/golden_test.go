package dist_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/mm"
	"repro/internal/runtime"
)

// runDigest is the SHA-256 of everything a run reports: the per-node
// outputs and halt times, the round and message totals, and every
// recorded round of traffic (round, messages, bytes, live nodes), each
// written as a little-endian int64. Two runs share a digest exactly when
// a sweep row, mmrun -stats and the bounds check would see them as equal.
func runDigest(outs []mm.Output, st *runtime.Stats) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(x)))
		h.Write(buf[:])
	}
	put(len(outs))
	for _, o := range outs {
		put(int(o.Color))
	}
	for _, t := range st.HaltTimes {
		put(t)
	}
	put(st.Rounds)
	put(st.Messages)
	put(len(st.Traffic))
	for _, rt := range st.Traffic {
		put(rt.Round)
		put(rt.Messages)
		put(rt.Bytes)
		put(rt.Live)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reducedGolden pins the reduced pipeline's complete run record on three
// instances. The digests were taken when each round's colour lists were
// still varint-packed into per-worker round arenas; a change to how the
// machine publishes its list, or to how the engine delivers and counts
// it, that moves any output, halt time or traffic figure changes a digest.
// rounds-heavy is mmbench's instance of that name (121 rounds, 116 of
// them recolouring), so the pin is the one its bench/pins.json digest
// relies on, run inside the tier-1 suite.
var reducedGolden = []struct {
	name      string
	spec      string
	delta     int
	workers   []int
	reference bool
	digest    string
}{
	{"rounds-heavy", "bounded-degree:n=16384,k=1024,delta=3", 3, []int{1, 2}, false,
		"2ed97af562492478b6f984b9b58c44412634e5cac1fb5af30927a365c82acabf"},
	{"bounded-degree", "bounded-degree:n=1024,k=1024,delta=3", 3, []int{1, 2, 3}, true,
		"b23fb03d4e5f5c2c34f56fe480f40072f782b5d89e14bd6991e25bff212e8b08"},
	{"path", "path:n=1024,k=300", 2, []int{1, 2, 3}, true,
		"dafbec9edb51fedd2a38bb071b890558f90fc9c82521411d41803b1873ceaaea"},
}

// TestReducedPipelineGolden runs ReducedGreedyMachine on every golden
// instance through RunWorkersN at several worker counts and requires each
// run to reproduce its instance's digest. The smaller instances also go
// through RunReference, the naive simulator that delivers messages without
// the engine's slab; rounds-heavy is too large for it. One pool serves
// every engine run of an instance, so a run that leaves stale published
// state behind for the next one fails too.
// CI runs this under -race, where a machine that rewrites its published
// list while a peer reads it is a reported data race.
func TestReducedPipelineGolden(t *testing.T) {
	for _, c := range reducedGolden {
		t.Run(c.name, func(t *testing.T) {
			inst, _, err := gen.BuildSpec(c.spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			g := inst.G
			maxR := dist.TotalRounds(g.K(), c.delta) + 8
			pool := dist.NewReducedGreedyMachinePool(c.delta, g.N())
			check := func(label string, outs []mm.Output, st *runtime.Stats, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got := runDigest(outs, st); got != c.digest {
					t.Errorf("%s: digest %s, want %s (rounds %d, messages %d)", label, got, c.digest, st.Rounds, st.Messages)
				}
			}
			if c.reference {
				outs, st, err := runtime.RunReference(g, inst.Labels, dist.NewReducedGreedyMachinePool(c.delta, g.N()), maxR)
				check("reference", outs, st, err)
			}
			for _, w := range c.workers {
				outs, st, err := runtime.RunWorkersN(g, inst.Labels, pool, maxR, w)
				check(fmt.Sprintf("workers=%d", w), outs, st, err)
			}
		})
	}
}
