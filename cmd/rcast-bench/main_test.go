package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rcast/internal/experiments"
	"rcast/internal/trace"
)

func TestRunSelectedQuickFigure(t *testing.T) {
	// table1 on the quick profile runs three small simulation batches.
	if err := run([]string{"-only", "table1", "-reps", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run([]string{"-profile", "bogus"}); err == nil {
		t.Error("accepted unknown profile")
	}
	err := run([]string{"-only", "fig99"})
	if err == nil {
		t.Error("accepted unknown figure")
	} else if !strings.Contains(err.Error(), strings.Join(experiments.Names(), ", ")) {
		t.Errorf("unknown-figure error %q does not list the valid names", err)
	}
	if err := run([]string{"-not-a-flag"}); err == nil {
		t.Error("accepted unknown flag")
	}
}

func TestRunTimeout(t *testing.T) {
	if err := run([]string{"-only", "table1", "-reps", "1", "-timeout", "1h"}); err != nil {
		t.Fatalf("ample timeout failed the suite: %v", err)
	}
	err := run([]string{"-only", "table1", "-reps", "1", "-timeout", "1ms"})
	if err == nil || !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("tight timeout err = %v, want canceled suite", err)
	}
}

// TestRunWritesTraceArtifact exercises the -trace flag end to end: the
// suite must leave a parseable, non-empty NDJSON artifact behind.
func TestRunWritesTraceArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "suite.jsonl")
	if err := run([]string{"-only", "table1", "-reps", "1", "-trace", path}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := trace.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("traced suite produced an empty artifact")
	}
}
