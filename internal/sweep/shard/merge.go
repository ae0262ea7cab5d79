package shard

import (
	"fmt"
	"io"
	"os"

	"repro/internal/gen"
	"repro/internal/sweep"
)

// Merge stitches the shard files of cfg's sweep back into the canonical
// single-process row order and writes them to w, returning the row count.
// Because gen.SplitCells hands every shard a contiguous slice of the
// canonical order, the merge is a verified concatenation, not a sort: the
// files are walked in shard order and sweep.ScanPlan holds each to its
// shard's range of the plan. A row of the wrong cell or past the range
// (fields "cell"), of another seed ("seed") or of the retired builder
// ("builder") is a *sweep.MismatchError naming the byte offset; a shard
// with rows still missing is a plain error naming the file. Never a
// silently wrong artefact: the output of a clean merge is byte-identical
// to an uninterrupted single-process run of the same Config (pinned by
// test and by the CI chaos smoke).
//
// cfg is the whole-sweep configuration: Shard is ignored, the shard count
// is len(paths).
func Merge(w io.Writer, cfg sweep.Config, paths []string) (int, error) {
	if len(paths) == 0 {
		return 0, fmt.Errorf("shard: merge needs at least one shard file")
	}
	cfg.Shard = nil
	plan, err := sweep.CellPlan(cfg)
	if err != nil {
		return 0, err
	}
	total := 0
	for i, r := range gen.SplitCells(len(plan), len(paths)) {
		f, err := os.Open(paths[i])
		if err != nil {
			return total, fmt.Errorf("shard %d: %w", i, err)
		}
		state, err := sweep.ScanPlan(f, plan[r.Lo:r.Hi], func(row sweep.ScannedRow) error {
			_, err := w.Write(row.Line)
			return err
		})
		f.Close()
		if err != nil {
			return total, fmt.Errorf("shard %d (%s): %w", i, paths[i], err)
		}
		total += state.Rows
		if state.Rows < r.Len() {
			return total, fmt.Errorf("shard %d (%s) is incomplete: %d of %d rows, next missing cell %s — the worker has not finished (or its torn tail was cut)",
				i, paths[i], state.Rows, r.Len(), plan[r.Lo+state.Rows].ID)
		}
	}
	return total, nil
}
