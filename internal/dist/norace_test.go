//go:build !race

package dist_test

// raceEnabled reports whether the race detector is compiled in; exact
// allocation counts skip under it, since its sync.Pool drops pooled items
// at random and the engine's pooled scratch then reallocates.
const raceEnabled = false
