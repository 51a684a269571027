package experiments

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"rcast/internal/scenario"
	"rcast/internal/trace"
)

// runAll regenerates the whole suite report plus every CSV export with the
// given worker count and returns the concatenated bytes.
func runAll(t *testing.T, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	s := NewSuite(tiny(), &buf)
	s.SetWorkers(workers)
	if err := s.All(); err != nil {
		t.Fatal(err)
	}
	for _, write := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return s.WriteSweepCSV(b) },
		func(b *bytes.Buffer) error { return s.WriteFig5CSV(b) },
		func(b *bytes.Buffer) error { return s.WriteFig9CSV(b) },
	} {
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
	}
	line, err := s.SummaryLine()
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString(line)
	return buf.Bytes()
}

// TestWorkersByteIdentical is the determinism contract of the parallel
// runner: the full report and every CSV must be byte-identical whether the
// simulations ran serially or fanned out across eight workers.
func TestWorkersByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite twice in -short mode")
	}
	serial := runAll(t, 1)
	parallel := runAll(t, 8)
	if !bytes.Equal(serial, parallel) {
		i := 0
		for i < len(serial) && i < len(parallel) && serial[i] == parallel[i] {
			i++
		}
		lo, hi := i-40, i+40
		if lo < 0 {
			lo = 0
		}
		clip := func(b []byte) []byte {
			if hi < len(b) {
				return b[lo:hi]
			}
			return b[lo:]
		}
		t.Fatalf("workers=1 and workers=8 outputs diverge at byte %d:\nserial:   %q\nparallel: %q",
			i, clip(serial), clip(parallel))
	}
}

// TestRunnerMatchesSerialReplications checks the suite's batch path
// against the serial scenario.RunReplications path for a
// multi-replication batch on a four-worker pool.
func TestRunnerMatchesSerialReplications(t *testing.T) {
	p := tiny()
	p.Reps = 2
	s := NewSuite(p, nil)
	s.SetWorkers(4)
	cfg := s.config(runKey{scheme: scenario.SchemeRcast, rate: p.LowRate})
	cfg.Seed = 7

	want, err := scenario.RunReplications(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	aggs, err := s.run([]scenario.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	got := aggs[0]
	if len(got.Results) != len(want.Results) {
		t.Fatalf("got %d results, want %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if got.Results[i].Seed != want.Results[i].Seed {
			t.Fatalf("rep %d: seed %d, want %d", i, got.Results[i].Seed, want.Results[i].Seed)
		}
		if got.Results[i].TotalJoules != want.Results[i].TotalJoules {
			t.Fatalf("rep %d: energy %v, want %v", i,
				got.Results[i].TotalJoules, want.Results[i].TotalJoules)
		}
	}
	if got.PDR.Mean() != want.PDR.Mean() ||
		math.Abs(got.TotalJoules.Mean()-want.TotalJoules.Mean()) > 1e-9 {
		t.Fatalf("aggregate mismatch: got PDR %v / %v J, want %v / %v J",
			got.PDR.Mean(), got.TotalJoules.Mean(), want.PDR.Mean(), want.TotalJoules.Mean())
	}
	if s.SimRuns() != 2 {
		t.Fatalf("SimRuns = %d, want 2", s.SimRuns())
	}
}

// TestRunnerPropagatesError checks that an invalid cell surfaces its
// simulation error from the middle of a pooled batch.
func TestRunnerPropagatesError(t *testing.T) {
	s := NewSuite(tiny(), nil)
	s.SetWorkers(4)
	good := s.config(runKey{scheme: scenario.SchemeRcast, rate: tiny().LowRate})
	good.Duration /= 4
	bad := good
	bad.Nodes = 1 // rejected by config validation
	if _, err := s.run([]scenario.Config{good, bad, good}); err == nil {
		t.Fatal("invalid cell did not error")
	}
}

// TestRunnerCancelled checks that a cancelled context stops the suite and
// is reported as a cancelled run, on both the inline and pooled paths.
func TestRunnerCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		s := NewSuite(tiny(), nil)
		s.SetWorkers(workers)
		s.SetContext(ctx)
		_, err := s.Table("table1")
		if !errors.Is(err, scenario.ErrCanceled) {
			t.Fatalf("workers=%d: err = %v, want scenario.ErrCanceled", workers, err)
		}
	}
}

// TestTraceForcesSerial checks that a suite with a trace sink (whose
// sinks are not safe for concurrent emission) still runs correctly on a
// many-worker setting.
func TestTraceForcesSerial(t *testing.T) {
	s := NewSuite(tiny(), nil)
	s.SetWorkers(8)
	s.SetTrace(discardSink{})
	tab, err := s.Table("a3")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || len(tab.Rows[0].Agg.Results) != 1 {
		t.Fatalf("unexpected shape: %d rows", len(tab.Rows))
	}
}

type discardSink struct{}

func (discardSink) Emit(trace.Event) {}
