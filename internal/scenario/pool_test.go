package scenario

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"rcast/internal/sim"
	"rcast/internal/trace"
)

// TestForEachInlineOneWorker checks the one-worker path: every index runs
// on the caller's goroutine, in order, and the first error ends the loop.
func TestForEachInlineOneWorker(t *testing.T) {
	var got []int // unsynchronized: -race flags any call off this goroutine
	stop := errors.New("stop")
	err := ForEach(context.Background(), 1, 10, func(_ context.Context, i int) error {
		got = append(got, i)
		if i == 4 {
			return stop
		}
		return nil
	})
	if err != stop {
		t.Fatalf("err = %v, want the call's own error", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("calls ran out of order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("%d calls ran, want 5 (the loop must end at the first error)", len(got))
	}
}

// TestForEachFirstErrorCancels checks the pooled path: the first error is
// returned, the context of the calls still running is cancelled, and no
// further index is dispatched after it.
func TestForEachFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	err := ForEach(context.Background(), 4, 1000, func(ctx context.Context, i int) error {
		started.Add(1)
		if i == 2 {
			return boom
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if err != boom {
		t.Fatalf("err = %v, want the first call error", err)
	}
	if n := started.Load(); n > 4 {
		t.Fatalf("%d calls started after the first error, want at most one per worker", n)
	}
}

// TestForEachEveryIndexOnce checks that the pool covers [0, n) exactly
// once for several worker counts, including more workers than indices.
func TestForEachEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		seen := make([]atomic.Int32, 17)
		if err := ForEach(context.Background(), workers, len(seen), func(_ context.Context, i int) error {
			seen[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if n := seen[i].Load(); n != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, n)
			}
		}
	}
}

// TestRunBatchMatchesReplications checks that a multi-config batch on a
// pool aggregates each config exactly as its own serial RunReplications.
func TestRunBatchMatchesReplications(t *testing.T) {
	a := quickConfig(SchemeRcast)
	a.Duration = 30 * sim.Second
	b := a
	b.Scheme = SchemeODPM
	b.Seed = 7
	aggs, err := RunBatch(context.Background(), 3, 2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range []Config{a, b} {
		want, err := RunReplications(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(aggs[i].Results) != 2 {
			t.Fatalf("config %d: %d results, want 2", i, len(aggs[i].Results))
		}
		for r := range want.Results {
			assertResultsEqual(t, want.Results[r], aggs[i].Results[r])
		}
	}
}

// TestRunBatchTraceSerial checks that a traced batch asking for eight
// workers still runs, serially (the recorder is not safe for concurrent
// emission, so -race flags a pooled run), and traces its runs.
func TestRunBatchTraceSerial(t *testing.T) {
	cfg := quickConfig(SchemeRcast)
	cfg.Duration = 10 * sim.Second
	rec := trace.NewRecorder()
	cfg.Trace = rec
	aggs, err := RunBatch(context.Background(), 8, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 1 || len(aggs[0].Results) != 2 {
		t.Fatalf("unexpected shape: %d aggregates", len(aggs))
	}
	evs := rec.Events()
	if len(evs) == 0 {
		t.Fatal("traced batch emitted no events")
	}
}

// TestRunBatchInvalidConfig checks that a failing run in the middle of a
// pooled batch surfaces its error.
func TestRunBatchInvalidConfig(t *testing.T) {
	good := quickConfig(SchemeRcast)
	good.Duration = 5 * sim.Second
	bad := good
	bad.Nodes = 1 // rejected by config validation
	if _, err := RunBatch(context.Background(), 4, 1, good, bad, good); err == nil {
		t.Fatal("invalid config did not error")
	}
}
