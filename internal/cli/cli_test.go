package cli

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/sweep"
)

func TestClassify(t *testing.T) {
	if got := Classify(errors.New("transient")); got != ExitFailure {
		t.Fatalf("plain error → %d, want %d", got, ExitFailure)
	}
	mm := &sweep.MismatchError{Field: "seed", Want: "1", Got: "2"}
	if got := Classify(mm); got != ExitMismatch {
		t.Fatalf("MismatchError → %d, want %d", got, ExitMismatch)
	}
	// Wrapped mismatches classify too — callers wrap with context.
	if got := Classify(errors.Join(errors.New("ctx"), mm)); got != ExitMismatch {
		t.Fatalf("wrapped MismatchError → %d, want %d", got, ExitMismatch)
	}
}

func TestStringList(t *testing.T) {
	var l StringList
	for _, v := range []string{"a", "b"} {
		if err := l.Set(v); err != nil {
			t.Fatal(err)
		}
	}
	if len(l) != 2 || l[0] != "a" || l[1] != "b" || l.String() != "a; b" {
		t.Fatalf("StringList = %#v (%q)", l, l.String())
	}
}

func TestSplitList(t *testing.T) {
	if got := SplitList("greedy, reduced,,proposal"); len(got) != 3 || got[2] != "proposal" {
		t.Fatalf("SplitList = %#v", got)
	}
	if got := SplitList(""); got != nil {
		t.Fatalf("SplitList(\"\") = %#v, want nil", got)
	}
}

func TestPrintScenariosCoversRegistry(t *testing.T) {
	var buf bytes.Buffer
	PrintScenarios(&buf)
	for _, name := range gen.Names() {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("registry listing misses %q", name)
		}
	}
}
