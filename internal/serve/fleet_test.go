package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rcast/internal/core"
	"rcast/internal/scenario"
)

// testWorker is one in-process fleet worker: a real serve.Server behind a
// real HTTP listener.
type testWorker struct {
	s  *Server
	ts *httptest.Server
}

// startFleet boots n in-process workers and a coordinator over them.
// Worker opts are tuned for tests (1 executor each, tight polling).
func startFleet(t *testing.T, n int, fleet FleetOptions) (*Server, []*testWorker) {
	t.Helper()
	var workers []*testWorker
	for i := 0; i < n; i++ {
		ws := New(Options{Workers: 1, QueueDepth: 8})
		ts := httptest.NewServer(ws.Handler())
		workers = append(workers, &testWorker{s: ws, ts: ts})
		fleet.Workers = append(fleet.Workers, ts.URL)
	}
	if fleet.PollInterval == 0 {
		fleet.PollInterval = 5 * time.Millisecond
	}
	if fleet.RetryBackoff == 0 {
		fleet.RetryBackoff = 10 * time.Millisecond
	}
	coord, err := NewCoordinator(Options{Workers: 2, QueueDepth: 8}, fleet)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(func() {
		shutdownServer(t, coord)
		for _, w := range workers {
			w.ts.Close()
			// Stubbed worker runs may be parked until force-cancel, so a
			// short drain window with the error ignored is the right call.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_ = w.s.Shutdown(ctx)
			cancel()
		}
	})
	return coord, workers
}

// serialSweepDoc computes the sweep's aggregate document the serial CLI
// way: one direct engine run per cell, no server in the loop.
func serialSweepDoc(t *testing.T, req SweepRequest) []byte {
	t.Helper()
	cells, err := req.Cells()
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	byKey := make(map[string][]byte)
	results := make([][]byte, len(cells))
	for i, c := range cells {
		if body, ok := byKey[c.Key]; ok {
			results[i] = body
			continue
		}
		cfg, reps, err := c.Req.Config()
		if err != nil {
			t.Fatalf("cell %d Config: %v", i, err)
		}
		agg, err := scenario.RunReplicationsContext(context.Background(), cfg, reps, 1)
		if err != nil {
			t.Fatalf("cell %d direct run: %v", i, err)
		}
		body, err := MarshalResult(c.Key, reps, agg)
		if err != nil {
			t.Fatalf("cell %d MarshalResult: %v", i, err)
		}
		byKey[c.Key] = body
		results[i] = body
	}
	doc, err := MarshalSweepResult(SweepKey(cells), cells, results)
	if err != nil {
		t.Fatalf("MarshalSweepResult: %v", err)
	}
	return doc
}

// TestFleetSweepByteIdenticalToSerial is the determinism proof for the

// diskRuns sums a worker's executed-run counter across every registered
// overhearing policy (the sweeps here span schemes with different default
// policies, so no single label pair sees all runs).
func diskRuns(s *Server) uint64 {
	var n uint64
	for _, p := range core.PolicyNames() {
		n += s.mRuns.Value("disk", p)
	}
	return n
}

// fleet: the paper's scheme suite plus ablation-style fault axes, run as
// one sweep across a simulated 8-worker fleet, must produce a result
// document byte-identical to computing every cell serially through the
// direct engine path (what rcast-sim/rcast-bench do) — regardless of which
// worker ran which cell, in what order, or how dispatch interleaved.
func TestFleetSweepByteIdenticalToSerial(t *testing.T) {
	// All five paper schemes × {mobile, static} × {no faults, crash} at
	// quick scale: 20 cells.
	req := SweepRequest{
		Schemes:      []string{"802.11", "PSM", "PSM-no-overhear", "ODPM", "Rcast"},
		PausesSec:    []float64{0, -1},
		FaultPresets: []string{"", "crash"},
		Nodes:        12,
		Connections:  3,
		DurationSec:  10,
		Reps:         1,
	}
	coord, workers := startFleet(t, 8, FleetOptions{})

	sw, out, err := coord.SubmitSweep(req)
	if err != nil || out != OutcomeAccepted {
		t.Fatalf("submit: out=%v err=%v", out, err)
	}
	st := waitSweepTerminal(t, sw)
	if st.State != StateDone {
		t.Fatalf("sweep ended %s: %s", st.State, st.Error)
	}
	if st.Completed != 20 {
		t.Fatalf("completed = %d, want 20", st.Completed)
	}

	want := serialSweepDoc(t, req)
	if string(sw.Result()) != string(want) {
		t.Fatalf("fleet sweep diverges from serial path\nfleet:  %.200s...\nserial: %.200s...", sw.Result(), want)
	}

	// Fleet metrics: every unique cell computed somewhere, all workers up.
	if got := coord.mFleetCells.Value(CellSourceComputed); got != 20 {
		t.Fatalf("fleet computed counter = %d, want 20", got)
	}
	fe := coord.sweepExec.(*fleetExecutor)
	for _, w := range workers {
		if fe.mWorkerUp.Value(w.ts.URL) != 1 {
			t.Fatalf("worker %s not reported up", w.ts.URL)
		}
	}
	// The dispatch spread work: at least two workers actually ran jobs
	// (with 20 cells over 8 single-executor workers this cannot collapse
	// onto one unless stealing is broken).
	busy := 0
	for _, w := range workers {
		if diskRuns(w.s) > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d workers executed cells; work stealing not spreading", busy)
	}

	// The same sweep through a purely local server is also identical.
	local := New(Options{Workers: 4, QueueDepth: 8})
	defer shutdownServer(t, local)
	lsw, out, err := local.SubmitSweep(req)
	if err != nil || out != OutcomeAccepted {
		t.Fatalf("local submit: out=%v err=%v", out, err)
	}
	lst := waitSweepTerminal(t, lsw)
	if lst.State != StateDone {
		t.Fatalf("local sweep ended %s: %s", lst.State, lst.Error)
	}
	if string(lsw.Result()) != string(want) {
		t.Fatal("local sweep diverges from serial path")
	}
}

// TestFleetNamedPolicySweepByteIdenticalToSerial: a sweep over the new
// policy and tx-power axes through a 2-worker fleet produces the result
// document byte-identical to the serial direct-engine path.
func TestFleetNamedPolicySweepByteIdenticalToSerial(t *testing.T) {
	// {PSM, Rcast} × {scheme default, battery, mobility} × {-3 dB, nominal}
	// at quick scale: 12 cells.
	req := SweepRequest{
		Schemes:     []string{"PSM", "Rcast"},
		Policies:    []string{"", "battery", "mobility"},
		TxPowersDBm: []float64{-3, 0},
		Nodes:       12,
		Connections: 3,
		DurationSec: 10,
		Set:         scenario.Fields{"static": true},
		Reps:        1,
	}
	coord, _ := startFleet(t, 2, FleetOptions{})

	sw, out, err := coord.SubmitSweep(req)
	if err != nil || out != OutcomeAccepted {
		t.Fatalf("submit: out=%v err=%v", out, err)
	}
	st := waitSweepTerminal(t, sw)
	if st.State != StateDone {
		t.Fatalf("sweep ended %s: %s", st.State, st.Error)
	}
	if st.Completed != 12 {
		t.Fatalf("completed = %d, want 12", st.Completed)
	}
	want := serialSweepDoc(t, req)
	if string(sw.Result()) != string(want) {
		t.Fatalf("fleet named-policy sweep diverges from serial path\nfleet:  %.200s...\nserial: %.200s...", sw.Result(), want)
	}
}

// TestFleetWorkerKilledMidCell: a worker dies while executing a cell; the
// coordinator must mark it down, re-dispatch the cell to a surviving
// worker, and still produce the byte-identical document.
func TestFleetWorkerKilledMidCell(t *testing.T) {
	req := SweepRequest{
		Schemes:     []string{"802.11", "Rcast"},
		PausesSec:   []float64{0, -1},
		Nodes:       12,
		Connections: 3,
		DurationSec: 10,
		Reps:        1,
	}
	coord, workers := startFleet(t, 2, FleetOptions{MaxRetries: 4})
	victim, survivor := workers[0], workers[1]

	// The victim's engine parks forever (until its context dies), so any
	// cell dispatched to it is "mid-execution" until we kill the worker.
	started := make(chan struct{}, 8)
	victim.s.runFn = func(ctx context.Context, cfg scenario.Config, reps, workers int) (*scenario.Aggregate, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, fmt.Errorf("stub: %w", errors.Join(scenario.ErrCanceled, context.Cause(ctx)))
	}

	sw, out, err := coord.SubmitSweep(req)
	if err != nil || out != OutcomeAccepted {
		t.Fatalf("submit: out=%v err=%v", out, err)
	}
	// Wait until the victim is actually executing a cell, then kill it:
	// drop open connections and stop listening.
	select {
	case <-started:
	case <-time.After(20 * time.Second):
		t.Fatal("victim never received a cell")
	}
	victim.ts.CloseClientConnections()
	victim.ts.Close()

	st := waitSweepTerminal(t, sw)
	if st.State != StateDone {
		t.Fatalf("sweep ended %s: %s", st.State, st.Error)
	}
	if st.Retries == 0 {
		t.Fatal("sweep completed without recording the retry")
	}
	if coord.mFleetRetries.Value() == 0 {
		t.Fatal("fleet retry counter not incremented")
	}
	fe := coord.sweepExec.(*fleetExecutor)
	if fe.mWorkerUp.Value(victim.ts.URL) != 0 {
		t.Fatal("killed worker still reported up")
	}
	if fe.mWorkerUp.Value(survivor.ts.URL) != 1 {
		t.Fatal("surviving worker reported down")
	}

	// Byte identity must hold even after the mid-cell loss and retry.
	want := serialSweepDoc(t, req)
	if string(sw.Result()) != string(want) {
		t.Fatal("post-retry sweep diverges from serial path")
	}

	// Every completed cell must have been supplied by the survivor.
	detail := sw.detailStatus()
	for _, cs := range detail.CellStates {
		if cs.Worker == victim.ts.URL {
			t.Fatalf("cell %d credited to the killed worker", cs.Index)
		}
	}
}

// TestFleetAllWorkersDown: with every worker unreachable the sweep must
// fail with a clear terminal error, quickly, instead of hanging.
func TestFleetAllWorkersDown(t *testing.T) {
	dead1 := httptest.NewServer(nil)
	dead2 := httptest.NewServer(nil)
	url1, url2 := dead1.URL, dead2.URL
	dead1.Close()
	dead2.Close()

	coord, err := NewCoordinator(Options{Workers: 2, QueueDepth: 8}, FleetOptions{
		Workers:      []string{url1, url2},
		MaxRetries:   2,
		RetryBackoff: 5 * time.Millisecond,
		PollInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer shutdownServer(t, coord)

	sw, out, err := coord.SubmitSweep(quickSweep())
	if err != nil || out != OutcomeAccepted {
		t.Fatalf("submit: out=%v err=%v", out, err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for !sw.State().Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("sweep hung with all workers down")
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := sw.status()
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "all fleet workers down") {
		t.Fatalf("terminal error %q does not name the failure", st.Error)
	}
}

// TestFleetCoordinatorDrainInFlightSweep: a graceful coordinator Shutdown
// lets an in-flight sweep run to completion; a forced one cancels it with
// the shutdown cause.
func TestFleetCoordinatorDrainInFlightSweep(t *testing.T) {
	coord, workers := startFleet(t, 2, FleetOptions{})
	release := make(chan struct{})
	for _, w := range workers {
		ws := w.s
		base := ws.runFn
		ws.runFn = func(ctx context.Context, cfg scenario.Config, reps, workers int) (*scenario.Aggregate, error) {
			select {
			case <-release:
				return base(ctx, cfg, reps, workers)
			case <-ctx.Done():
				return nil, fmt.Errorf("stub: %w", errors.Join(scenario.ErrCanceled, context.Cause(ctx)))
			}
		}
	}

	sw, out, err := coord.SubmitSweep(quickSweep())
	if err != nil || out != OutcomeAccepted {
		t.Fatalf("submit: out=%v err=%v", out, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for sw.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("sweep never started")
		}
		time.Sleep(time.Millisecond)
	}

	// Graceful drain: admitted sweeps finish, new ones are rejected.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		done <- coord.Shutdown(ctx)
	}()
	for !coord.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, o, _ := coord.SubmitSweep(quickSweep()); o != OutcomeDraining {
		t.Fatalf("submit while draining: %v, want OutcomeDraining", o)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	st := sw.status()
	if st.State != StateDone {
		t.Fatalf("in-flight sweep after drain = %s (%s)", st.State, st.Error)
	}
}

// TestFleetCoordinatorForcedShutdownCancelsSweep: an expired drain
// deadline force-cancels the in-flight sweep with the shutdown cause.
func TestFleetCoordinatorForcedShutdownCancelsSweep(t *testing.T) {
	coord, workers := startFleet(t, 2, FleetOptions{})
	for _, w := range workers {
		ws := w.s
		ws.runFn = func(ctx context.Context, cfg scenario.Config, reps, workers int) (*scenario.Aggregate, error) {
			<-ctx.Done()
			return nil, fmt.Errorf("stub: %w", errors.Join(scenario.ErrCanceled, context.Cause(ctx)))
		}
	}
	sw, out, err := coord.SubmitSweep(quickSweep())
	if err != nil || out != OutcomeAccepted {
		t.Fatalf("submit: out=%v err=%v", out, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for sw.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("sweep never started")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := coord.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown err = %v, want deadline exceeded", err)
	}
	st := waitSweepTerminal(t, sw)
	if st.State != StateCanceled {
		t.Fatalf("state after forced shutdown = %s (%s)", st.State, st.Error)
	}
	if st.Error != "server shutting down" {
		t.Fatalf("forced-shutdown terminal message = %q", st.Error)
	}
}

// TestFleetPeerCacheFill: a cell already cached on some worker is served
// through the HEAD-probe peer path without recomputation anywhere.
func TestFleetPeerCacheFill(t *testing.T) {
	coord, workers := startFleet(t, 2, FleetOptions{})

	// Pre-warm worker 1 with every cell of the sweep via its jobs API.
	req := quickSweep()
	cells, err := req.Cells()
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	warm := workers[1].s
	for _, c := range cells {
		job, out, err := warm.Submit(c.Req)
		if err != nil || out != OutcomeAccepted {
			t.Fatalf("warm submit: out=%v err=%v", out, err)
		}
		if st := waitTerminal(t, job); st.State != StateDone {
			t.Fatalf("warm job ended %s: %s", st.State, st.Error)
		}
	}
	runsBefore := diskRuns(workers[0].s) + diskRuns(workers[1].s)

	sw, out, err := coord.SubmitSweep(req)
	if err != nil || out != OutcomeAccepted {
		t.Fatalf("submit: out=%v err=%v", out, err)
	}
	st := waitSweepTerminal(t, sw)
	if st.State != StateDone {
		t.Fatalf("sweep ended %s: %s", st.State, st.Error)
	}
	if st.PeerHits != 4 {
		t.Fatalf("peer hits = %d, want 4", st.PeerHits)
	}
	if got := coord.mFleetCells.Value(CellSourcePeerCache); got != 4 {
		t.Fatalf("fleet peer_cache counter = %d, want 4", got)
	}
	after := diskRuns(workers[0].s) + diskRuns(workers[1].s)
	if after != runsBefore {
		t.Fatalf("peer-cached sweep re-executed cells: runs %d -> %d", runsBefore, after)
	}
	if string(sw.Result()) != string(serialSweepDoc(t, req)) {
		t.Fatal("peer-filled sweep diverges from serial path")
	}
}
