package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rcast/internal/phy"
	"rcast/internal/sim"
	"rcast/internal/trace"
)

func sampleEvents(n int) []trace.Event {
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{
			Seq:    uint64(i + 1),
			At:     sim.Time(1000 * (i + 1)),
			Node:   phy.NodeID(i % 5),
			Kind:   trace.KindForward,
			Pkt:    "0:1:2",
			Detail: "hop",
		}
	}
	return evs
}

func TestDiffEventsIdentical(t *testing.T) {
	a := sampleEvents(20)
	b := sampleEvents(20)
	if _, diverged := trace.Diff(a, b); diverged {
		t.Fatal("identical streams reported divergent")
	}
	if _, diverged := trace.Diff(nil, nil); diverged {
		t.Fatal("two empty streams reported divergent")
	}
}

func TestDiffEventsPlantedDivergence(t *testing.T) {
	a := sampleEvents(20)
	b := sampleEvents(20)
	b[13].Detail = "planted"
	d, diverged := trace.Diff(a, b)
	if !diverged {
		t.Fatal("planted divergence not found")
	}
	if d.Index != 13 {
		t.Fatalf("divergence at index %d, want 13", d.Index)
	}
	if d.A == nil || d.B == nil || d.A.Detail != "hop" || d.B.Detail != "planted" {
		t.Fatalf("divergence carries wrong events: %+v / %+v", d.A, d.B)
	}
}

func TestDiffEventsPrefix(t *testing.T) {
	a := sampleEvents(20)
	b := sampleEvents(15) // b is a strict prefix of a
	d, diverged := trace.Diff(a, b)
	if !diverged {
		t.Fatal("length mismatch not reported")
	}
	if d.Index != 15 {
		t.Fatalf("divergence at index %d, want 15 (end of shorter stream)", d.Index)
	}
	if d.A == nil || d.B != nil {
		t.Fatalf("prefix divergence should have a set and b nil: %+v / %+v", d.A, d.B)
	}
}

// writeTrace writes events as NDJSON the way rcast-sim -trace would.
func writeTrace(t *testing.T, path string, evs []trace.Event) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := trace.NewWriter(f)
	for _, e := range evs {
		w.Emit(e)
	}
}

// TestRunFileMode drives the CLI entry point end to end on two trace
// files with a planted divergence, then on two identical ones.
func TestRunFileMode(t *testing.T) {
	dir := t.TempDir()
	pa := filepath.Join(dir, "a.jsonl")
	pb := filepath.Join(dir, "b.jsonl")

	a := sampleEvents(30)
	b := sampleEvents(30)
	b[7].Node = 99
	writeTrace(t, pa, a)
	writeTrace(t, pb, b)

	var out bytes.Buffer
	diverged, err := run([]string{"-a", pa, "-b", pb}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !diverged {
		t.Fatal("planted divergence not reported")
	}
	if !strings.Contains(out.String(), "first divergence at event 7") {
		t.Fatalf("report does not locate the divergence:\n%s", out.String())
	}

	out.Reset()
	writeTrace(t, pb, a)
	diverged, err = run([]string{"-a", pa, "-b", pb}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if diverged {
		t.Fatal("identical files reported divergent")
	}
	if !strings.Contains(out.String(), "traces identical: 30 events") {
		t.Fatalf("unexpected identical-report:\n%s", out.String())
	}
}

func TestRunFileModeErrors(t *testing.T) {
	var out bytes.Buffer
	if _, err := run([]string{"-a", "only-one-side.jsonl"}, &out); err == nil {
		t.Fatal("lone -a accepted")
	}
	if _, err := run([]string{"-a", "nope.jsonl", "-b", "nope.jsonl"}, &out); err == nil {
		t.Fatal("missing files accepted")
	}
}

// TestRunRunModeErrors pins that a bad flag, a bad config value for
// either side and an invalid config are errors (exit 2), not divergences.
func TestRunRunModeErrors(t *testing.T) {
	base := []string{"-nodes", "8", "-field-w", "400", "-duration", "10s", "-static", "-connections", "2"}
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-faults", "no-such-preset"},
		{"-scheme-b", "no-such-scheme"},
		{"-rate", "-1"},
		{"-rate-b", "-1"},
	} {
		var out bytes.Buffer
		diverged, err := run(append(base[:len(base):len(base)], args...), &out)
		if err == nil || exitCode(diverged, err) != 2 {
			t.Errorf("%v: diverged=%v err=%v, want an error", args, diverged, err)
		}
	}
}

// TestRunRunMode exercises run mode end to end on tiny scenarios: every
// -*-b override branch applied at once (must diverge), and audit-only
// overrides (must be identical — the audit is observation-only).
func TestRunRunMode(t *testing.T) {
	base := []string{"-nodes", "8", "-field-w", "400", "-duration", "10s", "-static", "-connections", "2"}

	var out strings.Builder
	diverged, err := run(append(base, "-scheme-b", "PSM", "-rate-b", "0.8", "-seed-b", "2", "-gossip-b", "3"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !diverged || !strings.Contains(out.String(), "first divergence at event") {
		t.Fatalf("overridden side B did not diverge: %s", out.String())
	}

	out.Reset()
	diverged, err = run(append(base, "-audit-b"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if diverged {
		t.Fatalf("audit-on side B diverged: %s", out.String())
	}
	if !strings.Contains(out.String(), "traces identical") {
		t.Fatalf("output = %q", out.String())
	}

	// Side A takes every knob of the scenario field table: here AODV with
	// node crashes, still audit-inert.
	out.Reset()
	diverged, err = run(append(base, "-routing", "AODV", "-faults", "crash", "-audit-b"), &out)
	if err != nil || diverged {
		t.Fatalf("AODV with crashes, audit-on side B: diverged=%v err=%v\n%s", diverged, err, out.String())
	}
}
