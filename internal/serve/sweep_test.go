package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rcast/internal/scenario"
)

// quickSweep is a fast grid: 2 schemes × 2 pauses (one static) over the
// quickRequest base, 4 cells.
func quickSweep() SweepRequest {
	return SweepRequest{
		Schemes:     []string{"802.11", "Rcast"},
		PausesSec:   []float64{0, -1},
		Nodes:       12,
		Connections: 3,
		DurationSec: 10,
		Reps:        1,
	}
}

// waitSweepTerminal polls until the sweep leaves its transient states.
func waitSweepTerminal(t *testing.T, sw *Sweep) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := sw.status()
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("sweep %s did not reach a terminal state", sw.ID)
	return SweepStatus{}
}

func TestParseSweepRequestStrict(t *testing.T) {
	if _, err := ParseSweepRequest(strings.NewReader(`{"schemes":["Rcast"],"bogus":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseSweepRequest(strings.NewReader(`{"schemes":["Rcast"]} trailing`)); err == nil {
		t.Fatal("trailing data accepted")
	}
	req, err := ParseSweepRequest(strings.NewReader(`{"schemes":["Rcast","PSM"],"rates":[0.4,2],"nodes":30}`))
	if err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	if len(req.Schemes) != 2 || len(req.Rates) != 2 || req.Nodes != 30 {
		t.Fatalf("decoded %+v", req)
	}
}

func TestSweepCellsExpansion(t *testing.T) {
	cells, err := quickSweep().Cells()
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	if len(cells) != 4 {
		t.Fatalf("len(cells) = %d, want 4", len(cells))
	}
	seen := map[string]bool{}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has Index %d", i, c.Index)
		}
		if len(c.Key) != 64 {
			t.Fatalf("cell %d has malformed key %q", i, c.Key)
		}
		if seen[c.Key] {
			t.Fatalf("cell %d duplicates key %s", i, c.Key)
		}
		seen[c.Key] = true
	}
	// Canonical nesting: scheme outermost, then pause.
	if cells[0].Req.Scheme != "802.11" || cells[2].Req.Scheme != "Rcast" {
		t.Fatalf("scheme order: %s, %s", cells[0].Req.Scheme, cells[2].Req.Scheme)
	}
	if *cells[1].Req.PauseSec >= 0 || cells[1].cfg.Pause != cells[1].cfg.Duration || *cells[0].Req.PauseSec != 0 || cells[0].cfg.Pause != 0 {
		t.Fatalf("pause axis: cell0 pause=%v cell1 pause=%v (static = duration %v)", cells[0].cfg.Pause, cells[1].cfg.Pause, cells[1].cfg.Duration)
	}
	// The sweep key is deterministic and distinct from any cell key.
	k1, k2 := SweepKey(cells), SweepKey(cells)
	if k1 != k2 || len(k1) != 64 || seen[k1] {
		t.Fatalf("sweep key %q unstable or colliding", k1)
	}

	if _, err := (SweepRequest{}).Cells(); err == nil {
		t.Fatal("sweep without schemes accepted")
	}
	bad := quickSweep()
	bad.FaultPresets = []string{"warp"}
	if _, err := bad.Cells(); err == nil {
		t.Fatal("unknown fault preset accepted")
	}
}

// TestSweepLocalDeterminism pins the sweep determinism contract on the
// local executor: every cell's bytes equal a direct serial engine run of
// the same config (the CLI path), and the aggregate document is exactly
// MarshalSweepResult over those bytes.
func TestSweepLocalDeterminism(t *testing.T) {
	s := New(Options{Workers: 4, QueueDepth: 8})
	defer shutdownServer(t, s)

	req := quickSweep()
	sw, out, err := s.SubmitSweep(req)
	if err != nil || out != OutcomeAccepted {
		t.Fatalf("submit: out=%v err=%v", out, err)
	}
	st := waitSweepTerminal(t, sw)
	if st.State != StateDone {
		t.Fatalf("sweep ended %s: %s", st.State, st.Error)
	}
	if st.Completed != 4 || st.Computed != 4 {
		t.Fatalf("completed=%d computed=%d, want 4/4", st.Completed, st.Computed)
	}

	cells, err := req.Cells()
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	serial := make([][]byte, len(cells))
	for i, c := range cells {
		cfg, reps, err := c.Req.Config()
		if err != nil {
			t.Fatalf("cell %d Config: %v", i, err)
		}
		agg, err := scenario.RunReplicationsContext(context.Background(), cfg, reps, 1)
		if err != nil {
			t.Fatalf("cell %d direct run: %v", i, err)
		}
		serial[i], err = MarshalResult(c.Key, reps, agg)
		if err != nil {
			t.Fatalf("cell %d MarshalResult: %v", i, err)
		}
	}
	want, err := MarshalSweepResult(SweepKey(cells), cells, serial)
	if err != nil {
		t.Fatalf("MarshalSweepResult: %v", err)
	}
	if string(sw.Result()) != string(want) {
		t.Fatalf("sweep result diverges from serial CLI path\nsweep:  %.200s...\nserial: %.200s...", sw.Result(), want)
	}

	// Resubmission is a whole-sweep cache hit: born done, same bytes.
	sw2, out, err := s.SubmitSweep(req)
	if err != nil || out != OutcomeCacheHit {
		t.Fatalf("resubmit: out=%v err=%v", out, err)
	}
	st2 := sw2.status()
	if st2.State != StateDone || !st2.CacheHit {
		t.Fatalf("cache-hit sweep status %+v", st2)
	}
	if string(sw2.Result()) != string(want) {
		t.Fatal("cached sweep served different bytes")
	}
}

// TestSweepDedupIdenticalCells: cells that share a canonical key are
// computed once, and both report completion.
func TestSweepDedupIdenticalCells(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 4})
	defer shutdownServer(t, s)
	var runs atomic.Int64
	base := s.runFn
	s.runFn = func(ctx context.Context, cfg scenario.Config, reps, workers int) (*scenario.Aggregate, error) {
		runs.Add(1)
		return base(ctx, cfg, reps, workers)
	}

	// Two identical pause entries → 2 cells, 1 unique key.
	req := quickSweep()
	req.Schemes = []string{"Rcast"}
	req.PausesSec = []float64{600, 600}
	sw, out, err := s.SubmitSweep(req)
	if err != nil || out != OutcomeAccepted {
		t.Fatalf("submit: out=%v err=%v", out, err)
	}
	st := waitSweepTerminal(t, sw)
	if st.State != StateDone {
		t.Fatalf("sweep ended %s: %s", st.State, st.Error)
	}
	if st.Completed != 2 {
		t.Fatalf("completed = %d, want 2", st.Completed)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("engine ran %d times for 2 identical cells, want 1", got)
	}
	var doc SweepResult
	if err := json.Unmarshal(sw.Result(), &doc); err != nil {
		t.Fatalf("decode sweep result: %v", err)
	}
	if len(doc.Cells) != 2 || string(doc.Cells[0].Result) != string(doc.Cells[1].Result) {
		t.Fatal("duplicate cells did not share result bytes")
	}
}

func TestSweepInvalidAndIntakeBound(t *testing.T) {
	s, release := blockingServer(t, Options{Workers: 1, QueueDepth: 1})
	defer shutdownServer(t, s)
	defer close(release)

	if _, out, err := s.SubmitSweep(SweepRequest{}); out != OutcomeInvalid || err == nil {
		t.Fatalf("empty sweep: out=%v err=%v", out, err)
	}

	swA, out, err := s.SubmitSweep(quickSweep())
	if err != nil || out != OutcomeAccepted {
		t.Fatalf("submit A: out=%v err=%v", out, err)
	}
	// QueueDepth bounds concurrently-running sweeps: with A parked on the
	// blocking runFn, a different sweep is rejected with backpressure.
	reqB := quickSweep()
	reqB.Seed = ptr(int64(99))
	if _, o, _ := s.SubmitSweep(reqB); o != OutcomeQueueFull {
		t.Fatalf("submit B with intake full: out=%v, want OutcomeQueueFull", o)
	}
	if got := s.mRejected.Value("queue_full"); got == 0 {
		t.Fatal("rejected{queue_full} not incremented")
	}
	_ = swA
}

func TestSweepCancel(t *testing.T) {
	s, release := blockingServer(t, Options{Workers: 1, QueueDepth: 2})
	defer shutdownServer(t, s)
	defer close(release)

	sw, out, err := s.SubmitSweep(quickSweep())
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
	if !s.CancelSweep(sw.ID) {
		t.Fatal("cancel refused")
	}
	st := waitSweepTerminal(t, sw)
	if st.State != StateCanceled {
		t.Fatalf("state after cancel = %s (%s)", st.State, st.Error)
	}
	if st.Error != "canceled by client" {
		t.Fatalf("cancel message %q", st.Error)
	}
	if s.CancelSweep(sw.ID) {
		t.Fatal("second cancel of terminal sweep succeeded")
	}
	if s.CancelSweep("sweep-does-not-exist") {
		t.Fatal("cancel of unknown sweep succeeded")
	}
}

// TestSweepShutdownForceCancel: a sweep force-canceled by an expired
// Shutdown reports the shutdown cause, mirroring the job-level fix.
func TestSweepShutdownForceCancel(t *testing.T) {
	s, _ := blockingServer(t, Options{Workers: 1, QueueDepth: 2})
	sw, out, err := s.SubmitSweep(quickSweep())
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
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
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

const quickSweepBody = `{"schemes":["802.11","Rcast"],"pauses_sec":[0,-1],"nodes":12,"connections":3,"duration_sec":10,"reps":1}`

func TestHTTPSweepLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 8})
	// Gate the engine until the SSE stream is attached, so the stream
	// observes every cell completion instead of racing a fast sweep.
	gate := make(chan struct{})
	base := s.runFn
	s.runFn = func(ctx context.Context, cfg scenario.Config, reps, workers int) (*scenario.Aggregate, error) {
		<-gate
		return base(ctx, cfg, reps, workers)
	}

	resp, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", strings.NewReader(quickSweepBody))
	if err != nil {
		t.Fatalf("POST /api/v1/sweeps: %v", err)
	}
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if st.ID == "" || st.Cells != 4 || len(st.Key) != 64 {
		t.Fatalf("submit response %+v", st)
	}

	// SSE stream: must carry "cell" events and end with a terminal "sweep".
	sresp, err := http.Get(ts.URL + "/api/v1/sweeps/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer sresp.Body.Close()
	close(gate)
	sc := bufio.NewScanner(sresp.Body)
	cellEvents := 0
	terminal := false
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev SweepEvent
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			t.Fatalf("decode SSE %q: %v", line, err)
		}
		if ev.Type == "cell" {
			cellEvents++
			if ev.Cell == nil || ev.Cell.State != StateDone {
				t.Fatalf("cell event %+v", ev)
			}
		}
		if ev.Type == "sweep" && ev.Sweep.State.Terminal() {
			terminal = true
			break
		}
	}
	if !terminal {
		t.Fatal("SSE stream ended without a terminal sweep event")
	}
	if cellEvents != 4 {
		t.Fatalf("saw %d cell events, want 4", cellEvents)
	}

	// Detail status carries per-cell states with sources.
	dresp, err := http.Get(ts.URL + "/api/v1/sweeps/" + st.ID)
	if err != nil {
		t.Fatalf("GET sweep: %v", err)
	}
	var detail SweepStatus
	if err := json.NewDecoder(dresp.Body).Decode(&detail); err != nil {
		t.Fatalf("decode detail: %v", err)
	}
	dresp.Body.Close()
	if detail.State != StateDone || len(detail.CellStates) != 4 {
		t.Fatalf("detail %+v", detail)
	}
	for _, cs := range detail.CellStates {
		if cs.State != StateDone || cs.Source == "" {
			t.Fatalf("cell state %+v", cs)
		}
	}

	// Aggregate result document.
	rresp, err := http.Get(ts.URL + "/api/v1/sweeps/" + st.ID + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	var doc SweepResult
	if err := json.NewDecoder(rresp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK || doc.Key != st.Key || len(doc.Cells) != 4 {
		t.Fatalf("result status=%d doc key=%s cells=%d", rresp.StatusCode, doc.Key, len(doc.Cells))
	}

	// Every cell's bytes are individually addressable via the results
	// probe, with HEAD as the cheap existence check the fleet uses.
	for _, cell := range doc.Cells {
		hresp, err := http.Head(ts.URL + "/api/v1/results/" + cell.Key)
		if err != nil {
			t.Fatalf("HEAD result: %v", err)
		}
		hresp.Body.Close()
		if hresp.StatusCode != http.StatusOK {
			t.Fatalf("HEAD /api/v1/results/%s = %d", cell.Key, hresp.StatusCode)
		}
		if hresp.ContentLength <= 0 {
			t.Fatalf("HEAD content-length = %d", hresp.ContentLength)
		}
		gresp, err := http.Get(ts.URL + "/api/v1/results/" + cell.Key)
		if err != nil {
			t.Fatalf("GET result by key: %v", err)
		}
		if got := readAll(t, gresp); got != string(cell.Result) {
			t.Fatalf("results probe bytes diverge for %s", cell.Key)
		}
	}
	probe, err := http.Head(ts.URL + "/api/v1/results/no-such-key")
	if err != nil {
		t.Fatalf("HEAD miss: %v", err)
	}
	probe.Body.Close()
	if probe.StatusCode != http.StatusNotFound {
		t.Fatalf("HEAD miss = %d, want 404", probe.StatusCode)
	}

	// Listing includes the sweep.
	lresp, err := http.Get(ts.URL + "/api/v1/sweeps")
	if err != nil {
		t.Fatalf("GET sweeps: %v", err)
	}
	var list []SweepStatus
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	lresp.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list %+v", list)
	}

	// Metrics page exposes sweep counters.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	page := readAll(t, mresp)
	for _, want := range []string{
		"rcast_serve_sweeps_submitted_total 1",
		`rcast_serve_sweeps_total{state="done"} 1`,
		`rcast_serve_fleet_cells_total{source="computed"} 4`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
	_ = s
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	first := true
	for sc.Scan() {
		if !first {
			sb.WriteByte('\n')
		}
		sb.WriteString(sc.Text())
		first = false
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return sb.String()
}
