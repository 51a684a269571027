package serve

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"rcast/internal/trace"
)

var updateMetrics = flag.Bool("update", false, "rewrite testdata/metrics.golden")

// TestMetricsPageGolden pins the /metrics page of a coordinator whose
// every labelled family holds samples — one- and two-label counters, the
// per-worker gauge and the scrape-time trace family — so a change to how
// the registry renders any family shows up as a byte diff.
func TestMetricsPageGolden(t *testing.T) {
	s, err := NewCoordinator(Options{Workers: 1, QueueDepth: 4},
		FleetOptions{Workers: []string{"http://w1.invalid", "http://w2.invalid"}})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s)

	s.mSubmitted.Add(3)
	s.mRuns.Inc("fading", "rcast")
	s.mRuns.Inc("disk", "rcast")
	s.mRuns.Inc("disk", "battery")
	s.mRuns.Inc("disk", "rcast")
	s.mRejected.Inc("queue_full")
	s.mRejected.Inc("invalid")
	s.jobs.states.Inc("done")
	s.jobs.states.Inc("done")
	s.jobs.states.Inc("canceled")
	s.mRunSeconds.Observe(0.2)
	s.mRunSeconds.Observe(7)
	s.sweeps.states.Inc("done")
	s.mFleetCells.Inc(CellSourceComputed)
	s.mFleetCells.Inc(CellSourcePeerCache)
	s.mFleetCells.Inc(CellSourceComputed)
	s.mFleetRetries.Inc()
	s.sweepExec.(*fleetExecutor).mWorkerUp.Set(0, "http://w2.invalid")
	for _, e := range []struct {
		scheme string
		kind   trace.Kind
	}{
		{"Rcast", trace.KindDeliver}, {"Rcast", trace.KindOriginate},
		{"802.11", trace.KindDrop}, {"Rcast", trace.KindDeliver},
	} {
		s.traceTally(e.scheme).Emit(trace.Event{Kind: e.kind})
	}

	var buf bytes.Buffer
	if err := s.Registry().Write(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *updateMetrics {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("/metrics differs from %s (rerun with -update if intended):\n%s", golden, buf.String())
	}
}
