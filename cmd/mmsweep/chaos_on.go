//go:build chaos

package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/sweep/shard"
)

// registerChaos adds the -chaos flag to fs and returns the injector it
// configures. The flag is compiled in only under the chaos build tag, so
// production binaries physically cannot SIGKILL themselves: fault injection
// is a test capability, not a runtime one.
func registerChaos(fs *flag.FlagSet) chaosFlag {
	spec := fs.String("chaos", "",
		"fault injection (chaos builds only): kill=P,hang=P[,stall=DUR][,seed=N] — each worker row draws a seeded fault: SIGKILL this process or stall past the supervisor's lease")
	return func(baseSeed int64) (*shard.FaultInjector, error) { return chaosInjector(*spec, baseSeed) }
}

// chaosInjector parses a -chaos spec into a FaultInjector. Decisions derive
// from (seed, shard, attempt, cell), so the same spec replays the same fault
// schedule; the seed defaults to a value derived from the sweep's base seed.
func chaosInjector(chaosSpec string, baseSeed int64) (*shard.FaultInjector, error) {
	if chaosSpec == "" {
		return nil, nil
	}
	inj := &shard.FaultInjector{
		Seed: gen.SubSeed(baseSeed, "chaos"),
		Hang: time.Minute,
	}
	for _, part := range strings.Split(chaosSpec, ",") {
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("chaos: malformed %q (want key=value)", part)
		}
		switch key {
		case "kill", "hang":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("chaos: %s=%q is not a probability", key, val)
			}
			if key == "kill" {
				inj.KillProb = p
			} else {
				inj.HangProb = p
			}
		case "stall":
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("chaos: stall=%q: %w", val, err)
			}
			inj.Hang = d
		case "seed":
			s, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: seed=%q: %w", val, err)
			}
			inj.Seed = s
		default:
			return nil, fmt.Errorf("chaos: unknown key %q (want kill, hang, stall, seed)", key)
		}
	}
	return inj, nil
}
