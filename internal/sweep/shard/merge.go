package shard

import (
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/gen"
	"repro/internal/sweep"
)

// Merge stitches the shard files of cfg's sweep back into the canonical
// single-process row order and writes them to w, returning the row count.
// Because gen.SplitCells hands every shard a contiguous slice of the
// canonical order, the merge is a verified concatenation, not a sort: the
// files are walked in shard order and every row must carry exactly the
// cell ID and instance seed the canonical plan assigns to its position.
// Any deviation — a missing cell, an out-of-order or surplus row, a row
// from a different seed universe (or one ScanRows refuses, such as a
// retired builder's row) — is an error naming the shard file and byte
// offset, never a silently wrong artefact. The output of a clean merge is byte-identical to an
// uninterrupted single-process run of the same Config (pinned by test and
// by the CI chaos smoke).
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
	ranges := gen.SplitCells(len(plan), len(paths))
	total := 0
	for i, path := range paths {
		r := ranges[i]
		f, err := os.Open(path)
		if err != nil {
			return total, fmt.Errorf("shard %d: %w", i, err)
		}
		next := r.Lo
		state, err := sweep.ScanRows(f, func(row sweep.ScannedRow) error {
			if next >= r.Hi {
				return fmt.Errorf("shard %d (%s): surplus row %s at offset %d past the shard's range %s",
					i, path, row.ID, row.Offset, r)
			}
			if row.ID != plan[next].ID {
				return fmt.Errorf("shard %d (%s): row at offset %d is %s, want %s at canonical index %d — not this sweep's shard output",
					i, path, row.Offset, row.ID, plan[next].ID, next)
			}
			if row.Seed != plan[next].Seed {
				return &sweep.MismatchError{
					Field:  "seed",
					Cell:   row.ID,
					Offset: row.Offset,
					Want:   strconv.FormatInt(row.Seed, 10),
					Got:    strconv.FormatInt(plan[next].Seed, 10),
				}
			}
			if _, err := w.Write(row.Line); err != nil {
				return err
			}
			next++
			return nil
		})
		f.Close()
		if err != nil {
			return total, err
		}
		if next < r.Hi {
			return total, fmt.Errorf("shard %d (%s) is incomplete: %d of %d rows, next missing cell %s — the worker has not finished (or its torn tail was cut)",
				i, path, next-r.Lo, r.Len(), plan[next].ID)
		}
		total += state.Rows
	}
	return total, nil
}
