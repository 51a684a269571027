package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tinyArgs(extra ...string) []string {
	base := []string{
		"-nodes", "20", "-field-w", "600", "-connections", "4",
		"-duration", "20s", "-pause", "10s", "-rate", "0.5",
	}
	return append(base, extra...)
}

func TestRunDefaultScheme(t *testing.T) {
	if err := run(tinyArgs()); err != nil {
		t.Fatal(err)
	}
}

func TestRunEverySchemeAndRouting(t *testing.T) {
	for _, scheme := range []string{"802.11", "PSM", "PSM-no-overhear", "ODPM", "Rcast"} {
		if err := run(tinyArgs("-scheme", scheme)); err != nil {
			t.Fatalf("scheme %s: %v", scheme, err)
		}
	}
	if err := run(tinyArgs("-routing", "AODV")); err != nil {
		t.Fatal(err)
	}
}

func TestRunStaticPerNodeBatteryReps(t *testing.T) {
	if err := run(tinyArgs("-static", "-per-node", "-battery", "15", "-reps", "2")); err != nil {
		t.Fatal(err)
	}
}

func TestRunGossip(t *testing.T) {
	if err := run(tinyArgs("-gossip", "3")); err != nil {
		t.Fatal(err)
	}
}

func TestRunTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	if err := run(tinyArgs("-trace", path)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"originate"`) {
		t.Fatal("trace file missing originate events")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run([]string{"-scheme", "bogus"}); err == nil {
		t.Error("accepted unknown scheme")
	}
	if err := run([]string{"-routing", "bogus"}); err == nil {
		t.Error("accepted unknown routing")
	}
	if err := run([]string{"-nodes", "1"}); err == nil {
		t.Error("accepted one-node network")
	}
	if err := run([]string{"-not-a-flag"}); err == nil {
		t.Error("accepted unknown flag")
	}
	if err := run(tinyArgs("-trace", filepath.Join(t.TempDir(), "no", "such", "dir", "t"))); err == nil {
		t.Error("accepted unwritable trace path")
	}
}

func TestRunTimeout(t *testing.T) {
	if err := run(tinyArgs("-timeout", "5m")); err != nil {
		t.Fatalf("ample timeout failed the run: %v", err)
	}
	err := run([]string{"-nodes", "100", "-duration", "1125s", "-timeout", "1ms"})
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("tight timeout err = %v, want canceled run", err)
	}
}

// TestRunReplayRoundTrip records a run, replays it from the trace, and
// requires the re-emitted trace to be byte-identical to the recording.
func TestRunReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rec := filepath.Join(dir, "rec.ndjson")
	rep := filepath.Join(dir, "rep.ndjson")
	if err := run(tinyArgs("-trace", rec)); err != nil {
		t.Fatal(err)
	}
	if err := run(tinyArgs("-replay", rec, "-trace", rep)); err != nil {
		t.Fatalf("replay: %v", err)
	}
	a, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(a), `"kind":"lottery"`) {
		t.Fatal("recording carries no lottery decisions; cell too small")
	}
	if string(a) != string(b) {
		t.Fatal("replayed trace differs from the recording")
	}
}

func TestRunReplayRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	rec := filepath.Join(dir, "rec.ndjson")
	if err := run(tinyArgs("-trace", rec)); err != nil {
		t.Fatal(err)
	}
	if err := run(tinyArgs("-replay", rec, "-reps", "2")); err == nil {
		t.Error("accepted -replay with -reps 2")
	}
	if err := run(tinyArgs("-replay", filepath.Join(dir, "missing.ndjson"))); err == nil {
		t.Error("accepted a missing replay file")
	}
	// Replaying under a different seed must be detected as divergence.
	if err := run(tinyArgs("-replay", rec, "-seed", "2")); err == nil {
		t.Error("replay under the wrong seed succeeded")
	}
}

// TestFlagSetUnchanged pins rcast-sim's flag names, defaults and usage
// text (the -h output), most of which the scenario field table derives.
func TestFlagSetUnchanged(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "help.golden"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.CreateTemp(t.TempDir(), "help")
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = out
	runErr := run([]string{"-h"})
	os.Stderr = saved
	if !errors.Is(runErr, flag.ErrHelp) {
		t.Fatalf("run -h: %v", runErr)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("-h output drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}
