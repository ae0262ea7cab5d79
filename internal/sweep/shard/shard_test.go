package shard

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

// shardConfig is the grid the shard tests split: 4 path cells × 2 algos ×
// 2 reps + 4 matching-union cells = 20 cells, all tiny.
func shardConfig() sweep.Config {
	return sweep.Config{
		Grids:       []string{"path:n=8..64,k=2", "matching-union:n=32..64,k=2|4"},
		Algos:       []string{"greedy", "proposal"},
		Reps:        2,
		Seed:        3,
		CheckBounds: true,
	}
}

// singleProcessJSONL is the golden every sharded topology must reproduce.
func singleProcessJSONL(t *testing.T, cfg sweep.Config) []byte {
	t.Helper()
	cfg.Shard = nil
	var buf bytes.Buffer
	if _, err := sweep.Stream(context.Background(), cfg, sweep.NewJSONLSink(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runShards executes every shard to completion in-process and returns the
// shard file paths.
func runShards(t *testing.T, cfg sweep.Config, dir string, n int) []string {
	t.Helper()
	paths := Paths(filepath.Join(dir, "sweep.jsonl"), n)
	for i := 0; i < n; i++ {
		scfg := cfg
		scfg.Shard = &sweep.ShardSpec{Index: i, Count: n}
		if _, err := RunWorker(context.Background(), scfg, paths[i], WorkerOptions{}); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	return paths
}

func TestParseSpec(t *testing.T) {
	got, err := ParseSpec("2/4")
	if err != nil || got.Index != 2 || got.Count != 4 {
		t.Fatalf("ParseSpec(2/4) = %v, %v", got, err)
	}
	for _, bad := range []string{"", "3", "4/4", "-1/4", "a/b", "1/0", "1/-2"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestPathNaming(t *testing.T) {
	if got := Path("out.jsonl", 2, 4); got != "out.jsonl.shard2of4" {
		t.Fatalf("Path = %q", got)
	}
	ps := Paths("x", 3)
	if len(ps) != 3 || ps[0] != "x.shard0of3" || ps[2] != "x.shard2of3" {
		t.Fatalf("Paths = %v", ps)
	}
}

// TestFaultInjectorDeterministic: decisions are pure functions of
// (seed, shard, attempt, cell); attempts draw fresh faults; probabilities
// roughly hold over many draws; the nil injector injects nothing.
func TestFaultInjectorDeterministic(t *testing.T) {
	inj := &FaultInjector{Seed: 9, KillProb: 0.2, HangProb: 0.1}
	again := &FaultInjector{Seed: 9, KillProb: 0.2, HangProb: 0.1}
	kills, hangs, n := 0, 0, 4000
	differsByAttempt := false
	for cell := 0; cell < n; cell++ {
		d := inj.Decide(1, 0, cell)
		if d != again.Decide(1, 0, cell) {
			t.Fatal("Decide is not deterministic")
		}
		if d != inj.Decide(1, 1, cell) {
			differsByAttempt = true
		}
		switch d {
		case FaultKill:
			kills++
		case FaultHang:
			hangs++
		}
	}
	if !differsByAttempt {
		t.Error("attempt does not feed the derivation — restarts would die at the same cells forever")
	}
	if float64(kills)/float64(n) < 0.15 || float64(kills)/float64(n) > 0.25 {
		t.Errorf("kill rate %d/%d far from 0.2", kills, n)
	}
	if float64(hangs)/float64(n) < 0.06 || float64(hangs)/float64(n) > 0.14 {
		t.Errorf("hang rate %d/%d far from 0.1", hangs, n)
	}
	var nilInj *FaultInjector
	if nilInj.Decide(0, 0, 0) != FaultNone {
		t.Error("nil injector injected a fault")
	}
	if err := nilInj.BeforeCell(context.Background(), 0, 0, 0); err != nil {
		t.Errorf("nil injector errored: %v", err)
	}
}

// TestFaultInjectorKillHook: an overridden Kill hook fires once and the
// injection point surfaces ErrInjectedKill — the in-process kill path.
func TestFaultInjectorKillHook(t *testing.T) {
	fired := 0
	inj := &FaultInjector{Seed: 1, KillProb: 1, Kill: func() { fired++ }}
	if err := inj.BeforeCell(context.Background(), 0, 0, 0); err != ErrInjectedKill {
		t.Fatalf("err = %v, want ErrInjectedKill", err)
	}
	if fired != 1 {
		t.Fatalf("Kill hook fired %d times", fired)
	}
	// A hang respects context cancellation (the supervisor's kill).
	hang := &FaultInjector{Seed: 1, HangProb: 1, Hang: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	if err := hang.BeforeCell(ctx, 0, 0, 0); err != context.Canceled {
		t.Fatalf("cancelled hang returned %v", err)
	}
}

// TestWorkersPartitionExactly: the four shards' outputs are disjoint,
// complete, and their in-order concatenation IS the single-process file —
// before any merge verification runs.
func TestWorkersPartitionExactly(t *testing.T) {
	cfg := shardConfig()
	want := singleProcessJSONL(t, cfg)
	paths := runShards(t, cfg, t.TempDir(), 4)
	var cat bytes.Buffer
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		cat.Write(b)
	}
	if !bytes.Equal(cat.Bytes(), want) {
		t.Fatal("concatenated shard files differ from the single-process sweep")
	}
}

// TestMergeByteIdentical: the verified merge reproduces the single-process
// bytes, for several shard counts including more shards than some ranges
// can fill.
func TestMergeByteIdentical(t *testing.T) {
	cfg := shardConfig()
	want := singleProcessJSONL(t, cfg)
	for _, n := range []int{1, 3, 4, 7} {
		paths := runShards(t, cfg, t.TempDir(), n)
		var merged bytes.Buffer
		rows, err := Merge(&merged, cfg, paths)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if rows != bytes.Count(want, []byte("\n")) {
			t.Errorf("n=%d: merged %d rows", n, rows)
		}
		if !bytes.Equal(merged.Bytes(), want) {
			t.Fatalf("n=%d: merged output differs from single-process run", n)
		}
	}
}

// TestMergeRefusals: every way shard files can be wrong is a loud error —
// incomplete shards, swapped files, a different seed universe, a row of the
// retired sharded builder — never a silently wrong artefact.
func TestMergeRefusals(t *testing.T) {
	cfg := shardConfig()
	dir := t.TempDir()
	paths := runShards(t, cfg, dir, 4)

	t.Run("incomplete shard", func(t *testing.T) {
		trunc := filepath.Join(dir, "trunc.jsonl")
		b, _ := os.ReadFile(paths[2])
		lines := bytes.SplitAfter(b, []byte("\n"))
		if err := os.WriteFile(trunc, bytes.Join(lines[:len(lines)-2], nil), 0o644); err != nil {
			t.Fatal(err)
		}
		bad := []string{paths[0], paths[1], trunc, paths[3]}
		if _, err := Merge(&bytes.Buffer{}, cfg, bad); err == nil || !strings.Contains(err.Error(), "incomplete") {
			t.Fatalf("incomplete shard not refused: %v", err)
		}
	})
	t.Run("swapped shards", func(t *testing.T) {
		bad := []string{paths[1], paths[0], paths[2], paths[3]}
		if _, err := Merge(&bytes.Buffer{}, cfg, bad); err == nil {
			t.Fatal("swapped shard files not refused")
		}
	})
	t.Run("wrong shard count", func(t *testing.T) {
		if _, err := Merge(&bytes.Buffer{}, cfg, paths[:3]); err == nil {
			t.Fatal("merging 4-way shards as 3-way not refused")
		}
	})
	t.Run("seed mismatch", func(t *testing.T) {
		other := cfg
		other.Seed = 99
		var mm *sweep.MismatchError
		_, err := Merge(&bytes.Buffer{}, other, paths)
		if !errors.As(err, &mm) || mm.Field != "seed" {
			t.Fatalf("foreign-seed shards not refused as a seed mismatch: %v", err)
		}
	})
	t.Run("builder mismatch", func(t *testing.T) {
		bad := append([]string(nil), paths...)
		bad[2] = filepath.Join(t.TempDir(), "tagged.jsonl")
		if err := os.WriteFile(bad[2], tagBuilderRow(t, paths[2], 1), 0o644); err != nil {
			t.Fatal(err)
		}
		var mm *sweep.MismatchError
		_, err := Merge(&bytes.Buffer{}, cfg, bad)
		if !errors.As(err, &mm) || mm.Field != "builder" {
			t.Fatalf("retired-builder row not refused: %v", err)
		}
	})
}

// tagBuilderRow returns the file at path with its i-th row tagged
// "builder":"sharded", as the retired sharded instance builder wrote it.
func tagBuilderRow(t *testing.T, path string, i int) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if i >= len(lines) || !bytes.HasSuffix(lines[i], []byte("}\n")) {
		t.Fatalf("%s has no complete row %d", path, i)
	}
	lines[i] = append(bytes.TrimSuffix(lines[i], []byte("}\n")), `,"builder":"sharded"}`+"\n"...)
	return bytes.Join(lines, nil)
}

// TestWorkerResumesTornTail: a worker restarted over a shard file with a
// torn final line (the debris of a SIGKILL mid-write) truncates it and
// completes the shard byte-identically.
func TestWorkerResumesTornTail(t *testing.T) {
	cfg := shardConfig()
	cfg.Shard = &sweep.ShardSpec{Index: 1, Count: 4}
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.jsonl")
	if _, err := RunWorker(context.Background(), cfg, clean, WorkerOptions{}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}

	// A prefix of complete rows plus a torn fragment of the next row.
	lines := bytes.SplitAfter(want, []byte("\n"))
	torn := filepath.Join(dir, "torn.jsonl")
	debris := append(bytes.Join(lines[:2], nil), lines[2][:len(lines[2])/2]...)
	if err := os.WriteFile(torn, debris, 0o644); err != nil {
		t.Fatal(err)
	}
	stats, err := RunWorker(context.Background(), cfg, torn, WorkerOptions{Attempt: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SkippedResume != 2 {
		t.Errorf("resumed worker skipped %d cells, want 2", stats.SkippedResume)
	}
	got, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("restarted worker did not reproduce the clean shard file")
	}
}

// TestWorkerRefusesForeignShardFile: restarting a worker over a shard file
// holding a row of the retired sharded builder is a permanent failure
// (MismatchError), not a retry, and leaves the file as it found it.
func TestWorkerRefusesForeignShardFile(t *testing.T) {
	cfg := shardConfig()
	cfg.Shard = &sweep.ShardSpec{Index: 0, Count: 2}
	dir := t.TempDir()
	path := filepath.Join(dir, "s.jsonl")
	if _, err := RunWorker(context.Background(), cfg, path, WorkerOptions{}); err != nil {
		t.Fatal(err)
	}
	foreign := tagBuilderRow(t, path, 1)
	if err := os.WriteFile(path, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	var mm *sweep.MismatchError
	_, err := RunWorker(context.Background(), cfg, path, WorkerOptions{Attempt: 1})
	if !errors.As(err, &mm) || mm.Field != "builder" {
		t.Fatalf("foreign shard file not refused as permanent: %v", err)
	}
	if !IsPermanent(err) {
		t.Error("MismatchError not classified permanent")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, foreign) {
		t.Errorf("refused worker modified the shard file (err %v)", err)
	}
}
