package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cli"
)

// builderRow is a complete row tagged by the retired sharded instance
// builder, which every resuming, restarting or merging reader refuses.
const builderRow = `{"scenario":"path","params":"k=2,n=8","algo":"greedy","rep":0,"seed":1,"builder":"sharded"}` + "\n"

// TestRunExitCodes drives mmsweep through run. Every argument "OUT" and
// every key of files is rewritten to a path in a fresh directory; files
// are written there before the run. want is a substring of stdout on exit
// 0 and of stderr otherwise.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		files map[string]string
		args  []string
		code  int
		want  string
	}{
		{"bounds hold", nil, []string{"-grid", "path:n=8..16", "-check-bounds", "-out", "OUT"}, cli.ExitOK, "bounds: all communication contracts hold"},
		{"grid list", nil, []string{"-grid", "list"}, cli.ExitOK, "matching-union"},
		{"no grid", nil, []string{"-out", "OUT"}, cli.ExitMismatch, "no -grid given"},
		{"unknown algo", nil, []string{"-grid", "path:n=8", "-algo", "nope"}, cli.ExitMismatch, `unknown algorithm "nope"`},
		{"shard with merge", nil, []string{"-grid", "path:n=8", "-shard", "0/2", "-merge", "2", "-out", "OUT"}, cli.ExitMismatch, "mutually exclusive"},
		{"shard to stdout", nil, []string{"-grid", "path:n=8", "-shard", "0/2", "-out", "-"}, cli.ExitMismatch, "sharded modes need -out"},
		{"resume to stdout", nil, []string{"-grid", "path:n=8", "-resume", "-out", "-"}, cli.ExitMismatch, "-resume needs -out"},
		{"shard out of range", nil, []string{"-grid", "path:n=8", "-shard", "2/2", "-out", "OUT"}, cli.ExitMismatch, "invalid spec"},
		{"resume builder row", map[string]string{"OUT": builderRow}, []string{"-grid", "path:n=8", "-resume", "-out", "OUT"}, cli.ExitMismatch, "builder mismatch"},
		{"shard builder row", map[string]string{"OUT.shard0of1": builderRow}, []string{"-grid", "path:n=8", "-shard", "0/1", "-out", "OUT"}, cli.ExitMismatch, "builder mismatch"},
		{"merge builder row", map[string]string{"OUT.shard0of1": builderRow}, []string{"-grid", "path:n=8", "-merge", "1", "-out", "OUT"}, cli.ExitMismatch, "builder mismatch"},
		{"sidecar with resume", nil, []string{"-grid", "path:n=8", "-perround-sidecar", "OUT.pr", "-resume", "-out", "OUT"}, cli.ExitMismatch, "-perround-sidecar cannot be combined"},
		{"sidecar with shard", nil, []string{"-grid", "path:n=8", "-perround-sidecar", "OUT.pr", "-shard", "0/2", "-out", "OUT"}, cli.ExitMismatch, "-perround-sidecar cannot be combined"},
		{"sidecar with supervise", nil, []string{"-grid", "path:n=8", "-perround-sidecar", "OUT.pr", "-supervise", "2", "-out", "OUT"}, cli.ExitMismatch, "-perround-sidecar cannot be combined"},
		{"sidecar with merge", nil, []string{"-grid", "path:n=8", "-perround-sidecar", "OUT.pr", "-merge", "2", "-out", "OUT"}, cli.ExitMismatch, "-perround-sidecar cannot be combined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			at := func(s string) string {
				if strings.HasPrefix(s, "OUT") {
					return filepath.Join(dir, s)
				}
				return s
			}
			for name, data := range tc.files {
				if err := os.WriteFile(at(name), []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			args := make([]string, len(tc.args))
			for i, a := range tc.args {
				args[i] = at(a)
			}
			stdout, stderr, code := runArgs(args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, stdout, stderr)
			}
			out := stderr
			if code == cli.ExitOK {
				out = stdout
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestRunResumeRefusals: -resume over a file that is not a prefix of this
// sweep exits 2 with the mismatched field named, and leaves the file as it
// found it: a seed-1 file cut mid-row under -seed 2, and a path file under
// a grid whose first cell is a cycle.
func TestRunResumeRefusals(t *testing.T) {
	for _, tc := range []struct {
		name         string
		first, again []string
		want         string
	}{
		{"seed", []string{"-grid", "path:n=8..32"}, []string{"-grid", "path:n=8..32", "-seed", "2"}, "seed mismatch"},
		{"not a prefix", []string{"-grid", "path:n=8..16"}, []string{"-grid", "cycle:n=8", "-grid", "path:n=8..16"}, "cell mismatch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "sweep.jsonl")
			if _, stderr, code := runArgs(append(tc.first, "-out", out)...); code != cli.ExitOK {
				t.Fatalf("first run exit %d:\n%s", code, stderr)
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			data = data[:len(data)-len(data)/5] // cut mid-row
			if err := os.WriteFile(out, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, stderr, code := runArgs(append(tc.again, "-resume", "-out", out)...)
			if code != cli.ExitMismatch || !strings.Contains(stderr, tc.want) {
				t.Fatalf("exit %d, want %d with %q:\n%s", code, cli.ExitMismatch, tc.want, stderr)
			}
			if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, data) {
				t.Errorf("the refused file was modified (err %v)", err)
			}
		})
	}
}

// TestRunMergeMissingShard: merging with one shard file absent exits 1 —
// running the missing worker fixes it.
func TestRunMergeMissingShard(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sweep.jsonl")
	grid := []string{"-grid", "path:n=8..64", "-out", out}
	if _, stderr, code := runArgs(append(grid, "-shard", "0/2")...); code != cli.ExitOK {
		t.Fatalf("shard 0/2 exit %d:\n%s", code, stderr)
	}
	_, stderr, code := runArgs(append(grid, "-merge", "2")...)
	if code != cli.ExitFailure || !strings.Contains(stderr, "shard 1") {
		t.Fatalf("exit %d, want %d naming shard 1:\n%s", code, cli.ExitFailure, stderr)
	}
}

// TestRunMergeRefusalKeepsOut: a merge refused for a garbage shard (exit
// 1) or for a shard holding another sweep's cells (exit 2, after the first
// shard merged) leaves an existing -out byte-identical and no temporary
// file behind, and the error names the merge, not a resume.
func TestRunMergeRefusalKeepsOut(t *testing.T) {
	grid := []string{"-grid", "path:n=8..64"}
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, out string)
		n     string
		code  int
		want  string
	}{
		{"garbage shard", func(t *testing.T, out string) {
			if err := os.WriteFile(out+".shard0of1", []byte("garbage\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, "1", cli.ExitFailure, "invalid JSONL row"},
		{"wrong-cell shard", func(t *testing.T, out string) {
			for _, args := range [][]string{
				append(grid, "-shard", "0/2", "-out", out),
				{"-grid", "cycle:n=8..64", "-shard", "1/2", "-out", out},
			} {
				if _, stderr, code := runArgs(args...); code != cli.ExitOK {
					t.Fatalf("%v: exit %d:\n%s", args, code, stderr)
				}
			}
		}, "2", cli.ExitMismatch, "cell mismatch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			out := filepath.Join(dir, "m.jsonl")
			tc.setup(t, out)
			precious := []byte("precious\n")
			if err := os.WriteFile(out, precious, 0o644); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			_, stderr, code := runArgs(append(grid, "-merge", tc.n, "-out", out)...)
			if code != tc.code || !strings.Contains(stderr, tc.want) || !strings.Contains(stderr, "merge:") {
				t.Fatalf("exit %d, want %d with %q:\n%s", code, tc.code, tc.want, stderr)
			}
			if strings.Contains(stderr, "resume") {
				t.Errorf("merge error names resume:\n%s", stderr)
			}
			if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, precious) {
				t.Errorf("-out = %q (%v), want it untouched", got, err)
			}
			after, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(names(after), names(before)) {
				t.Errorf("directory holds %v after the merge, want %v", names(after), names(before))
			}
		})
	}
}

func names(entries []os.DirEntry) []string {
	var s []string
	for _, e := range entries {
		s = append(s, e.Name())
	}
	return s
}

// TestRunResumeMidRowCut: a clean sweep file cut in the middle of a row
// resumes to bytes identical to the clean file.
func TestRunResumeMidRowCut(t *testing.T) {
	dir := t.TempDir()
	clean, cut := filepath.Join(dir, "clean.jsonl"), filepath.Join(dir, "cut.jsonl")
	grid := []string{"-grid", "path:n=8..64", "-algo", "greedy,proposal", "-seeds", "2"}
	if _, stderr, code := runArgs(append(grid, "-out", clean)...); code != cli.ExitOK {
		t.Fatalf("clean run exit %d:\n%s", code, stderr)
	}
	want, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(want, []byte("\n"))
	mid := len(want) - len(lines[len(lines)-2])*3/2 // inside the penultimate row
	if err := os.WriteFile(cut, want[:mid], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr, code := runArgs(append(grid, "-out", cut, "-resume")...); code != cli.ExitOK {
		t.Fatalf("resume exit %d:\n%s", code, stderr)
	}
	got, err := os.ReadFile(cut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed file differs from the clean run")
	}
}

// TestStripFlags: the supervisor's worker argv drops the named flags in
// every spelling, with their separate values, and keeps everything else.
func TestStripFlags(t *testing.T) {
	args := []string{
		"-grid", "path:n=8", "-supervise", "4", "-merge=2", "--trace", "t.jsonl",
		"-check-bounds", "--progress=1s", "-out", "f.jsonl", "-seed=3",
	}
	got := stripFlags(args, "supervise", "merge", "trace", "progress")
	want := []string{"-grid", "path:n=8", "-check-bounds", "-out", "f.jsonl", "-seed=3"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stripFlags = %q, want %q", got, want)
	}
}

// runArgs runs mmsweep with args and returns its stdout, stderr and exit
// code.
func runArgs(args ...string) (string, string, int) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}
