package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rcast/internal/scenario"
)

// quickRequest is a fast-to-run submission: 12 static nodes, 5 sim
// seconds, one replication.
func quickRequest() JobRequest {
	return JobRequest{
		Scheme:      "Rcast",
		Nodes:       12,
		Connections: 3,
		DurationSec: 10,
		Set:         scenario.Fields{"static": true},
		Reps:        1,
	}
}

// waitTerminal polls until the job leaves its transient states.
func waitTerminal(t *testing.T, job *Job) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := job.status()
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", job.ID)
	return Status{}
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestParseJobRequestStrict(t *testing.T) {
	if _, err := ParseJobRequest(strings.NewReader(`{"scheme":"Rcast","bogus":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseJobRequest(strings.NewReader(`{"scheme":"Rcast"} trailing`)); err == nil {
		t.Fatal("trailing data accepted")
	}
	req, err := ParseJobRequest(strings.NewReader(`{"scheme":"Rcast","nodes":30}`))
	if err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	if req.Scheme != "Rcast" || req.Nodes != 30 {
		t.Fatalf("decoded %+v", req)
	}
}

func TestJobRequestConfig(t *testing.T) {
	cfg, reps, err := quickRequest().Config()
	if err != nil {
		t.Fatalf("Config: %v", err)
	}
	if cfg.Scheme != scenario.SchemeRcast || cfg.Nodes != 12 || reps != 1 {
		t.Fatalf("resolved cfg=%+v reps=%d", cfg, reps)
	}
	if cfg.Pause != cfg.Duration {
		t.Fatalf("static did not pin pause: pause=%v duration=%v", cfg.Pause, cfg.Duration)
	}
	def := scenario.PaperDefaults()
	if cfg.RangeM != def.RangeM || cfg.PacketRate != def.PacketRate {
		t.Fatal("unset fields did not keep paper defaults")
	}

	bad := quickRequest()
	bad.Scheme = "warp-drive"
	if _, _, err := bad.Config(); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	bad = quickRequest()
	bad.Set["routing"] = "OSPF"
	if _, _, err := bad.Config(); err == nil {
		t.Fatal("unknown routing accepted")
	}
	bad = quickRequest()
	bad.TimeoutSec = -1
	if _, _, err := bad.Config(); err == nil {
		t.Fatal("negative timeout accepted")
	}
	bad = quickRequest()
	bad.Set["fault_preset"] = "nope"
	if _, _, err := bad.Config(); err == nil {
		t.Fatal("unknown fault preset accepted")
	}
}

func TestJobRequestTimeout(t *testing.T) {
	var jr JobRequest
	if got := jr.Timeout(10*time.Minute, time.Hour); got != 10*time.Minute {
		t.Fatalf("default timeout = %v", got)
	}
	jr.TimeoutSec = 2.5
	if got := jr.Timeout(10*time.Minute, time.Hour); got != 2500*time.Millisecond {
		t.Fatalf("explicit timeout = %v", got)
	}
	jr.TimeoutSec = 7200
	if got := jr.Timeout(10*time.Minute, time.Hour); got != time.Hour {
		t.Fatalf("capped timeout = %v", got)
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", []byte("C")) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "A" {
		t.Fatal("a lost")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

// blockingServer returns a server whose runFn parks until release is
// closed (or the job context ends, which it reports as a canceled run).
func blockingServer(t *testing.T, opts Options) (*Server, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	s := New(opts)
	s.runFn = func(ctx context.Context, cfg scenario.Config, reps, workers int) (*scenario.Aggregate, error) {
		select {
		case <-release:
			return scenario.RunReplicationsContext(ctx, cfg, reps, workers)
		case <-ctx.Done():
			return nil, fmt.Errorf("stub: %w", errors.Join(scenario.ErrCanceled, context.Cause(ctx)))
		}
	}
	return s, release
}

func TestQueueFullBackpressure(t *testing.T) {
	s, release := blockingServer(t, Options{Workers: 1, QueueDepth: 1})
	defer shutdownServer(t, s)

	reqA := quickRequest()
	jobA, out, err := s.Submit(reqA)
	if err != nil || out != OutcomeAccepted {
		t.Fatalf("submit A: out=%v err=%v", out, err)
	}
	// Wait until A occupies the worker, so B holds the single queue slot.
	deadline := time.Now().Add(10 * time.Second)
	for jobA.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("A never started")
		}
		time.Sleep(time.Millisecond)
	}
	reqB := quickRequest()
	reqB.Seed = ptr(int64(99))
	if _, outB, _ := s.Submit(reqB); outB != OutcomeAccepted {
		t.Fatalf("submit B: out=%v", outB)
	}
	reqC := quickRequest()
	reqC.Seed = ptr(int64(100))
	if _, outC, _ := s.Submit(reqC); outC != OutcomeQueueFull {
		t.Fatalf("submit C with full queue: out=%v, want OutcomeQueueFull", outC)
	}
	if got := s.mRejected.Value("queue_full"); got != 1 {
		t.Fatalf("rejected{queue_full} = %d", got)
	}
	close(release)
}

func ptr[T any](v T) *T { return &v }

func TestCoalesceIdenticalInFlight(t *testing.T) {
	s, release := blockingServer(t, Options{Workers: 1, QueueDepth: 4})
	defer shutdownServer(t, s)

	jobA, out, _ := s.Submit(quickRequest())
	if out != OutcomeAccepted {
		t.Fatalf("first submit: %v", out)
	}
	jobB, out, _ := s.Submit(quickRequest())
	if out != OutcomeCoalesced {
		t.Fatalf("identical submit: %v, want OutcomeCoalesced", out)
	}
	if jobA != jobB {
		t.Fatalf("coalesced submit returned a different job: %s vs %s", jobA.ID, jobB.ID)
	}
	close(release)
	st := waitTerminal(t, jobA)
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if got := s.mCoalesced.Value(); got != 1 {
		t.Fatalf("coalesced counter = %d", got)
	}
}

func TestCacheHitSkipsExecution(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	defer shutdownServer(t, s)

	jobA, out, err := s.Submit(quickRequest())
	if err != nil || out != OutcomeAccepted {
		t.Fatalf("submit: out=%v err=%v", out, err)
	}
	st := waitTerminal(t, jobA)
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	runsBefore := s.mRuns.Value("disk", "rcast")

	jobB, out, err := s.Submit(quickRequest())
	if err != nil || out != OutcomeCacheHit {
		t.Fatalf("resubmit: out=%v err=%v", out, err)
	}
	stB := jobB.status()
	if stB.State != StateDone || !stB.CacheHit {
		t.Fatalf("cache-hit job status %+v", stB)
	}
	if string(jobB.Result()) != string(jobA.Result()) {
		t.Fatal("cache served different bytes")
	}
	if got := s.mRuns.Value("disk", "rcast"); got != runsBefore {
		t.Fatalf("cache hit re-executed: runs %d -> %d", runsBefore, got)
	}
	if s.mCacheHits.Value() != 1 {
		t.Fatalf("cache hit counter = %d", s.mCacheHits.Value())
	}
	if jobA.Key != jobB.Key {
		t.Fatalf("keys differ: %s vs %s", jobA.Key, jobB.Key)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s, release := blockingServer(t, Options{Workers: 1, QueueDepth: 2})
	defer shutdownServer(t, s)

	jobA, _, _ := s.Submit(quickRequest())
	deadline := time.Now().Add(10 * time.Second)
	for jobA.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("A never started")
		}
		time.Sleep(time.Millisecond)
	}
	reqB := quickRequest()
	reqB.Seed = ptr(int64(7))
	jobB, out, _ := s.Submit(reqB)
	if out != OutcomeAccepted {
		t.Fatalf("submit B: %v", out)
	}
	if !s.Cancel(jobB.ID) {
		t.Fatal("cancel of queued job refused")
	}
	if st := jobB.status(); st.State != StateCanceled {
		t.Fatalf("queued job after cancel: %s", st.State)
	}
	close(release)
	waitTerminal(t, jobA)
	// The worker must skip the canceled job, not run it.
	if s.mRuns.Value("disk", "rcast") != 1 {
		t.Fatalf("runs = %d, want 1 (canceled job must not execute)", s.mRuns.Value("disk", "rcast"))
	}
	if s.Cancel(jobB.ID) {
		t.Fatal("second cancel of terminal job succeeded")
	}
	if s.Cancel("job-does-not-exist") {
		t.Fatal("cancel of unknown job succeeded")
	}
}

func TestCancelRunningJobRealSimulation(t *testing.T) {
	// A genuinely long simulation (1h of sim time) canceled mid-flight
	// through the cooperative stop check.
	s := New(Options{Workers: 1, QueueDepth: 2})
	defer shutdownServer(t, s)

	req := quickRequest()
	req.DurationSec = 3600
	req.Nodes = 30
	req.Set = nil // mobile
	job, out, err := s.Submit(req)
	if err != nil || out != OutcomeAccepted {
		t.Fatalf("submit: out=%v err=%v", out, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for job.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if !s.Cancel(job.ID) {
		t.Fatal("cancel refused")
	}
	st := waitTerminal(t, job)
	if st.State != StateCanceled {
		t.Fatalf("state after cancel = %s (err %q)", st.State, st.Error)
	}
	if job.Result() != nil {
		t.Fatal("canceled job stored a result")
	}
}

func TestJobDeadlineFails(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 2, DefaultTimeout: 50 * time.Millisecond})
	defer shutdownServer(t, s)

	req := quickRequest()
	req.DurationSec = 3600
	req.Nodes = 30
	req.Set = nil // mobile
	job, out, err := s.Submit(req)
	if err != nil || out != OutcomeAccepted {
		t.Fatalf("submit: out=%v err=%v", out, err)
	}
	st := waitTerminal(t, job)
	if st.State != StateFailed {
		t.Fatalf("state after deadline = %s", st.State)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Fatalf("deadline failure message %q", st.Error)
	}
}

func TestShutdownDrains(t *testing.T) {
	s, release := blockingServer(t, Options{Workers: 1, QueueDepth: 2})

	jobA, _, _ := s.Submit(quickRequest())
	deadline := time.Now().Add(10 * time.Second)
	for jobA.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("A never started")
		}
		time.Sleep(time.Millisecond)
	}
	reqB := quickRequest()
	reqB.Seed = ptr(int64(42))
	jobB, out, _ := s.Submit(reqB)
	if out != OutcomeAccepted {
		t.Fatalf("submit B: %v", out)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	// Draining servers reject new work but finish admitted work.
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, outDrain, _ := s.Submit(quickRequest()); outDrain != OutcomeDraining {
		t.Fatalf("submit while draining: %v, want OutcomeDraining", outDrain)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := jobA.status(); st.State != StateDone {
		t.Fatalf("running job after drain: %s (%s)", st.State, st.Error)
	}
	if st := jobB.status(); st.State != StateDone {
		t.Fatalf("queued job after drain: %s (%s)", st.State, st.Error)
	}
}

func TestShutdownForceCancelsOnExpiredContext(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 2})
	req := quickRequest()
	req.DurationSec = 3600
	req.Nodes = 30
	req.Set = nil // mobile
	job, out, err := s.Submit(req)
	if err != nil || out != OutcomeAccepted {
		t.Fatalf("submit: out=%v err=%v", out, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for job.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown err = %v, want deadline exceeded", err)
	}
	if st := job.status(); !st.State.Terminal() {
		t.Fatalf("job not terminal after forced shutdown: %s", st.State)
	}
}

// TestShutdownForceCancelReportsShutdownCause pins the errShutdown
// branch of classifyRunError: a job force-canceled by an expired Shutdown
// must report "server shutting down", not the generic "context canceled".
// The pre-fix code built forceStop with context.WithCancel, so the cause
// never carried errShutdown and the branch was dead.
func TestShutdownForceCancelReportsShutdownCause(t *testing.T) {
	s, _ := blockingServer(t, Options{Workers: 1, QueueDepth: 2})
	job, out, err := s.Submit(quickRequest())
	if err != nil || out != OutcomeAccepted {
		t.Fatalf("submit: out=%v err=%v", out, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for job.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown err = %v, want deadline exceeded", err)
	}
	st := waitTerminal(t, job)
	if st.State != StateCanceled {
		t.Fatalf("state after forced shutdown = %s (%s)", st.State, st.Error)
	}
	if st.Error != "server shutting down" {
		t.Fatalf("forced-shutdown terminal message = %q, want \"server shutting down\"", st.Error)
	}
}

// TestQueueFullDoesNotBurnJobIDs pins ID allocation to admission: a 429
// must not consume an ID, so the job admitted right after a rejection
// gets the next consecutive one. Pre-fix, Submit created the job (and
// incremented nextID) before the queue-full check.
func TestQueueFullDoesNotBurnJobIDs(t *testing.T) {
	s, release := blockingServer(t, Options{Workers: 1, QueueDepth: 1})
	defer shutdownServer(t, s)

	jobA, out, _ := s.Submit(quickRequest())
	if out != OutcomeAccepted {
		t.Fatalf("submit A: %v", out)
	}
	deadline := time.Now().Add(10 * time.Second)
	for jobA.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("A never started")
		}
		time.Sleep(time.Millisecond)
	}
	reqB := quickRequest()
	reqB.Seed = ptr(int64(201))
	jobB, out, _ := s.Submit(reqB)
	if out != OutcomeAccepted {
		t.Fatalf("submit B: %v", out)
	}
	reqC := quickRequest()
	reqC.Seed = ptr(int64(202))
	if _, o, _ := s.Submit(reqC); o != OutcomeQueueFull {
		t.Fatalf("submit C with full queue: %v, want OutcomeQueueFull", o)
	}
	close(release) // A finishes, the worker drains B
	waitTerminal(t, jobA)
	waitTerminal(t, jobB)
	reqD := quickRequest()
	reqD.Seed = ptr(int64(203))
	jobD, out, _ := s.Submit(reqD)
	if out != OutcomeAccepted {
		t.Fatalf("submit D: %v", out)
	}
	waitTerminal(t, jobD)
	if jobB.ID != "job-2" || jobD.ID != "job-3" {
		t.Fatalf("IDs B=%s D=%s, want job-2 and job-3 (the 429 must not burn an ID)", jobB.ID, jobD.ID)
	}
}

func TestConcurrentSubmitPollCancel(t *testing.T) {
	s := New(Options{Workers: 4, QueueDepth: 64})
	defer shutdownServer(t, s)

	const n = 12
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := quickRequest()
			req.DurationSec = 8
			req.Seed = ptr(int64(i % 5)) // some duplicates → coalesce/cache paths
			job, out, err := s.Submit(req)
			switch out {
			case OutcomeAccepted, OutcomeCoalesced, OutcomeCacheHit:
			default:
				t.Errorf("submit %d: out=%v err=%v", i, out, err)
				return
			}
			if i%4 == 0 {
				s.Cancel(job.ID) // racing cancel; any outcome is legal
			}
			deadline := time.Now().Add(30 * time.Second)
			for !job.State().Terminal() {
				if time.Now().After(deadline) {
					t.Errorf("job %s stuck in %s", job.ID, job.State())
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	for _, st := range s.Statuses() {
		if !st.State.Terminal() {
			t.Fatalf("job %s left in %s", st.ID, st.State)
		}
		if st.State == StateDone && len(st.Key) != 64 {
			t.Fatalf("job %s has malformed key %q", st.ID, st.Key)
		}
	}
}

func TestRunErrorFails(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 2})
	defer shutdownServer(t, s)
	s.runFn = func(ctx context.Context, cfg scenario.Config, reps, workers int) (*scenario.Aggregate, error) {
		return nil, errors.New("synthetic engine failure")
	}
	job, out, err := s.Submit(quickRequest())
	if err != nil || out != OutcomeAccepted {
		t.Fatalf("submit: out=%v err=%v", out, err)
	}
	st := waitTerminal(t, job)
	if st.State != StateFailed || !strings.Contains(st.Error, "synthetic engine failure") {
		t.Fatalf("status %+v", st)
	}
}

// TestServerParityWithDirectRun pins the determinism contract: the bytes
// a job stores are identical to marshaling a direct engine run of the
// same config — the exact path rcast-bench and rcast-sim use.
func TestServerParityWithDirectRun(t *testing.T) {
	req := quickRequest()
	req.Reps = 2
	s := New(Options{Workers: 2, QueueDepth: 4, SimWorkers: 2})
	defer shutdownServer(t, s)

	job, out, err := s.Submit(req)
	if err != nil || out != OutcomeAccepted {
		t.Fatalf("submit: out=%v err=%v", out, err)
	}
	st := waitTerminal(t, job)
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}

	cfg, reps, err := req.Config()
	if err != nil {
		t.Fatalf("Config: %v", err)
	}
	agg, err := scenario.RunReplicationsContext(context.Background(), cfg, reps, 1)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	want, err := MarshalResult(job.Key, reps, agg)
	if err != nil {
		t.Fatalf("MarshalResult: %v", err)
	}
	if string(job.Result()) != string(want) {
		t.Fatalf("server result diverges from direct engine run\nserver: %.200s...\ndirect: %.200s...",
			job.Result(), want)
	}
}
