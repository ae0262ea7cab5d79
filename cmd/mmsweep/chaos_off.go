//go:build !chaos

package main

import (
	"flag"

	"repro/internal/sweep/shard"
)

// registerChaos is the production stub: without the chaos build tag there
// is no -chaos flag and no fault injection — a release binary cannot be
// asked to SIGKILL itself.
func registerChaos(*flag.FlagSet) chaosFlag {
	return func(int64) (*shard.FaultInjector, error) { return nil, nil }
}
