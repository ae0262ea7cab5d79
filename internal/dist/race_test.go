//go:build race

package dist_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
