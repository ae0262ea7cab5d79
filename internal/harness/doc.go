// Package harness regenerates every figure, lemma and theorem of Hirvonen
// & Suomela (PODC 2012) as a runnable experiment, so the whole evaluation
// doubles as an integration test suite.
//
// # Experiments
//
// An Experiment couples an ID (E1, E2, …) with the paper artefact it
// reproduces and a Run function that writes the corresponding rows/series
// as human-readable tables and returns an error whenever a machine-checked
// expectation fails. All() lists the registry in order; ByID fetches one;
// RunAll executes everything with a banner per experiment and returns the
// first failure after running the rest. cmd/mmexperiments and the
// top-level benchmarks drive the registry, and the harness tests run every
// experiment on every `go test ./...` and compare RunAll's output, which is
// what mmexperiments prints, byte for byte with testdata/experiments.golden.
// Run output must therefore be deterministic: no wall-clock columns.
//
// The registry is E1–E14 and nothing else: each experiment's Paper field
// cites the figure, section, lemma or theorem it reproduces, and
// `go run ./cmd/mmexperiments -list` prints the whole table from All().
//
// The systems built around the algorithms (scenario families, the sweep
// driver, sharding) are pinned by their own package tests, not here.
//
// # Shared machinery
//
// Experiments are pure functions of their writer — no init-order effects,
// no shared state — so they re-run freely and in any order. They render
// through table, a minimal aligned text-table writer (rune-aware, so
// colour-system notation aligns).
package harness
