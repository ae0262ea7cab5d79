// Package sweep is the scenario-grid driver: it runs any registered
// algorithm across a full scenario grid (family × parameters × repetition),
// streams the cells' results through composable sinks in deterministic
// order with bounded memory, and holds every execution's recorded
// per-round traffic histogram against the paper's communication
// contracts — machine-verified bounds instead of eyeballed -stats output.
//
// # Grids and cells
//
// A sweep is described by a Config: one or more grid specs in the
// internal/gen range DSL ("matching-union:n=4096..65536,k=16..1024"), a
// list of algorithm names from the Algos registry (greedy, reduced,
// proposal, bipartite), and a repetition count. gen.ParseGrid expands each
// spec into its parameter cross product; the driver crosses that with the
// algorithms and repetitions to form cells. Every cell derives its instance
// seed as gen.SubSeed(base, family, params, rep) — a value-dependent
// derivation, so re-running the same Config rebuilds byte-identical
// instances, all algorithms of a cell see the same instance, and result
// rows are independent of execution order. Each (family, params, seed)
// names exactly one instance.
//
// # The streaming pipeline
//
// Stream is the driver's one entry point. Cells fan out over
// Config.CellWorkers goroutines; completed Results pass through a small
// reorder window keyed by cell index that restores grid order — a worker
// may not start cell i until the emission frontier is within
// Config.ReorderWindow of it, so the driver never buffers more than a
// window of rows NO MATTER how many cells the grid expands to, and the
// driver drops each row the moment its sink call returns. That is the
// bounded-memory guarantee: driver-side memory
// is window × row size, independent of cell count and instance size
// (tests pin PeakBuffered ≤ window with a regular:n=1048576 cell in the
// grid). Sinks compose via MultiSink: JSONLSink writes and flushes one
// line per row, AggregateSink folds per-(family, algorithm) totals,
// ViolationsSink collects contract breaches; all see rows strictly in cell
// order with no locking needed.
//
// On a cell failure, sink error, or cancelled context the stream aborts
// fail-fast: because emission is in-order, whatever was written is a clean
// prefix of the deterministic output. A resume continues only such a
// prefix: ScanPlan holds a file to the run's plan (CellPlan — row i must
// carry cell i's ID and seed), refusing a row of another cell, one past
// the plan's end, another seed or the retired sharded builder with a
// *MismatchError naming the field ("cell", "seed", "builder") and the
// row's byte offset; cmd/mmsweep maps it to exit code 2, the
// permanent-failure convention supervisors use to stop retrying. Resume
// runs that check before it touches the file, then cuts a torn final line
// at ResumeState.ValidSize and sets Config.Done to the verified row count,
// so Stream skips those cells and appends exactly the missing rows — the
// resumed file is byte-identical to an uninterrupted run, pinned by test
// and exercised as a real SIGKILL/resume/cmp cycle in CI. Shard-worker
// restarts and shard.Merge apply the same verifier.
//
// # Durability and sharding
//
// Output is the one durable output file (Create, Resume): JSONLSink
// flushes it after every row — a SIGKILLed process leaves its completed
// rows on disk — and Close flushes, fsyncs and closes, the boundary shard
// workers cross before reporting a cell range complete (per-row fsync
// would serialise the sweep on the disk; completion-boundary fsync is
// where the resume machinery actually needs durability).
//
// Config.Shard restricts a run to one contiguous slice of the canonical
// cell order (gen.SplitCells partitions it; CellPlan exposes the run's
// (ID, seed) plan). The sub-package internal/sweep/shard builds the
// fault-tolerant multi-process topology on top: supervised workers with
// leases and backed-off restarts, deterministic fault injection, and a
// verified merge byte-identical to the single-process run.
//
// # Machine-checked bounds
//
// Check evaluates a dist.Contract — the per-machine constants for message,
// byte and round budgets — against a runtime.Stats: greedy sends at most
// one message per live node per round within Lemma 1's k−1 rounds, the
// reduction phases at most one colour list (≤ Δ entries) per directed edge
// per round within dist.TotalRounds, the proposal baseline finishes within
// the proven n rounds (see ProposalContract's derivation), bipartite
// within 2Δ+3. Violations come back as structured values naming the rule,
// the round and the numbers, and ride along in the Result rows rather than
// being printed.
//
// # Results
//
// A Result row records the instance shape, round count, matching size, the
// full per-round histogram and any violations, and marshals to one JSON
// line — byte-identical for identical Configs regardless of cell and
// engine parallelism or process count (the golden test pins the bytes).
// cmd/mmsweep is the CLI (streaming -out, -resume, and the sharded
// -shard/-supervise/-merge modes). TestAllFamiliesConform sweeps all nine
// families with bounds checked, TestStreamResumeByteIdentical pins killed-
// then-resumed output byte-identical, and the shard package's
// TestChaosSupervisedByteIdentical pins the supervised sharded sweep
// crash-identical under injected kills and hangs.
package sweep
