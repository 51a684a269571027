package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"sync"

	"rcast/internal/metrics/promtext"
	"rcast/internal/scenario"
	"rcast/internal/trace"
)

// Cancellation causes, distinguishable via context.Cause so a user cancel,
// an expired job deadline and a server shutdown report different terminal
// states.
var (
	errCanceledByUser = errors.New("serve: job canceled by client")
	errShutdown       = errors.New("serve: server shutting down")
)

// Options configures a Server. The zero value selects the documented
// defaults.
type Options struct {
	// Workers is the number of concurrent job executors (default 2).
	Workers int
	// QueueDepth bounds jobs admitted but not yet running (default 16).
	// A submission arriving with the queue full is rejected with 429.
	QueueDepth int
	// SimWorkers is the per-job replication fan-out handed to
	// scenario.RunReplicationsContext (default 1: job-level parallelism
	// comes from Workers, and results are identical either way).
	SimWorkers int
	// CacheEntries bounds the content-addressed result cache (default 256).
	CacheEntries int
	// DefaultTimeout is the per-job deadline when the request does not
	// set one (default 10m); MaxTimeout caps requested deadlines
	// (default 1h).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.SimWorkers <= 0 {
		o.SimWorkers = 1
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 256
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 10 * time.Minute
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = time.Hour
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	return o
}

// Outcome classifies what Submit did with a request.
type Outcome int

// Submit outcomes.
const (
	OutcomeAccepted  Outcome = iota // admitted to the queue
	OutcomeCacheHit                 // served from the result cache, no recompute
	OutcomeCoalesced                // identical job already queued/running; attached to it
	OutcomeQueueFull                // bounded queue full: backpressure (HTTP 429)
	OutcomeDraining                 // server is draining (HTTP 503)
	OutcomeInvalid                  // request failed validation (HTTP 400)
)

// Server is the simulation-as-a-service engine: admission, execution,
// memoization and observability. Create with New, attach Handler to an
// http.Server, stop with Shutdown.
type Server struct {
	opts  Options
	cache *resultCache

	// runFn executes one job's simulation batch; tests stub it to make
	// execution controllable. The default is the same call path
	// rcast-bench and rcast-sim use.
	runFn func(ctx context.Context, cfg scenario.Config, reps, workers int) (*scenario.Aggregate, error)

	// sweepExec obtains every cell's result bytes for an admitted sweep:
	// localSweepExecutor on a plain server, fleetExecutor in coordinator
	// mode. Either way the bytes per cell are byte-identical.
	sweepExec sweepExecutor

	mu          sync.Mutex
	jobs        map[string]*Job
	order       []string        // submission order, for listing
	byKey       map[string]*Job // non-terminal jobs by cache key (coalescing)
	queue       chan *Job
	nextID      int
	sweeps      map[string]*Sweep
	sweepOrder  []string
	nextSweepID int
	draining    bool

	baseCtx   context.Context
	forceStop context.CancelCauseFunc
	wg        sync.WaitGroup

	reg           *promtext.Registry
	mSubmitted    *promtext.Counter
	mRuns         *promtext.Family
	mCacheHits    *promtext.Counter
	mCacheMisses  *promtext.Counter
	mCoalesced    *promtext.Counter
	mRejected     *promtext.Family
	mJobsTerminal *promtext.Family
	mRunning      *promtext.Gauge
	mRunSeconds   *promtext.Histogram

	mSweepsSubmitted *promtext.Counter
	mSweepsTerminal  *promtext.Family
	mSweepsRunning   *promtext.Gauge
	mFleetCells      *promtext.Family
	mFleetRetries    *promtext.Counter

	// traceTallies folds trace events from traced jobs into per-scheme
	// counters. Traced jobs emit into these live (via a trace.Multi
	// alongside the NDJSON buffer), so /api/v1/traces/summary and the
	// rcast_serve_trace_events metric reflect in-flight runs, not just
	// completed ones.
	traceMu      sync.Mutex
	traceTallies map[string]*trace.SyncCounter
}

// channelLabel renders a config's propagation model for the runs metric
// ("" normalizes to "disk", matching the canonical encoding).
func channelLabel(cfg scenario.Config) string {
	if cfg.Channel == "" {
		return "disk"
	}
	return cfg.Channel
}

// policyLabel renders a config's effective overhearing policy for the
// runs metric ("" resolves to the scheme default's name, matching the
// canonical encoding).
func policyLabel(cfg scenario.Config) string {
	return cfg.EffectivePolicyName()
}

// New creates a server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:   opts,
		cache:  newResultCache(opts.CacheEntries),
		jobs:   make(map[string]*Job),
		byKey:  make(map[string]*Job),
		queue:  make(chan *Job, opts.QueueDepth),
		sweeps: make(map[string]*Sweep),
		reg:    promtext.NewRegistry(),

		traceTallies: make(map[string]*trace.SyncCounter),
	}
	s.sweepExec = localSweepExecutor{s: s}
	s.runFn = func(ctx context.Context, cfg scenario.Config, reps, workers int) (*scenario.Aggregate, error) {
		return scenario.RunReplicationsContext(ctx, cfg, reps, workers)
	}
	// WithCancelCause, not WithCancel: a force-stop must surface as
	// errShutdown through context.Cause, or classifyRunError reports the
	// generic "context canceled" instead of "server shutting down".
	s.baseCtx, s.forceStop = context.WithCancelCause(context.Background())

	s.mSubmitted = s.reg.NewCounter("rcast_serve_jobs_submitted_total", "Job submissions admitted (cache hits and coalesced submissions included).")
	s.mRuns = s.reg.NewCounterFamily("rcast_serve_runs_total", "Simulation batches actually executed, by propagation model and overhearing policy (cache hits never increment this).", "channel", "policy")
	s.mCacheHits = s.reg.NewCounter("rcast_serve_cache_hits_total", "Submissions served from the content-addressed result cache.")
	s.mCacheMisses = s.reg.NewCounter("rcast_serve_cache_misses_total", "Submissions that missed the result cache and were queued.")
	s.mCoalesced = s.reg.NewCounter("rcast_serve_jobs_coalesced_total", "Submissions attached to an identical in-flight job.")
	s.mRejected = s.reg.NewCounterFamily("rcast_serve_rejected_total", "Rejected submissions by reason.", "reason")
	s.mJobsTerminal = s.reg.NewCounterFamily("rcast_serve_jobs_total", "Jobs reaching a terminal state.", "state")
	s.mRunning = s.reg.NewGauge("rcast_serve_jobs_running", "Jobs currently executing.")
	s.mRunSeconds = s.reg.NewHistogram("rcast_serve_run_seconds", "Wall-clock latency of executed jobs.",
		[]float64{0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 300})
	s.reg.NewGaugeFunc("rcast_serve_queue_depth", "Jobs admitted but not yet running.", func() int64 {
		return int64(len(s.queue))
	})
	s.reg.NewGaugeFunc("rcast_serve_queue_capacity", "Bounded queue capacity.", func() int64 {
		return int64(cap(s.queue))
	})
	s.reg.NewGaugeFunc("rcast_serve_cache_entries", "Results held by the cache.", func() int64 {
		return int64(s.cache.Len())
	})
	s.mSweepsSubmitted = s.reg.NewCounter("rcast_serve_sweeps_submitted_total", "Sweep submissions admitted (whole-sweep cache hits included).")
	s.mSweepsTerminal = s.reg.NewCounterFamily("rcast_serve_sweeps_total", "Sweeps reaching a terminal state.", "state")
	s.mSweepsRunning = s.reg.NewGauge("rcast_serve_sweeps_running", "Sweeps currently executing.")
	s.mFleetCells = s.reg.NewCounterFamily("rcast_serve_fleet_cells_total", "Sweep cells resolved, by source (computed, local_cache, peer_cache).", "source")
	s.mFleetRetries = s.reg.NewCounter("rcast_serve_fleet_retries_total", "Sweep cells re-dispatched after a fleet worker was lost.")
	s.reg.NewGaugeFuncFamily("rcast_serve_trace_events", "Trace events observed across traced jobs, by scheme and event kind (updated live while jobs run).", []string{"scheme", "kind"}, s.traceSamples)

	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Registry exposes the server's metrics registry (the /metrics page).
func (s *Server) Registry() *promtext.Registry { return s.reg }

// Submit validates, deduplicates and admits one job request. The error is
// non-nil only for OutcomeInvalid.
func (s *Server) Submit(req JobRequest) (*Job, Outcome, error) {
	cfg, reps, err := req.Config()
	if err != nil {
		s.mRejected.Inc("invalid")
		return nil, OutcomeInvalid, err
	}
	key, err := cfg.CanonicalKey(reps)
	if err != nil {
		s.mRejected.Inc("invalid")
		return nil, OutcomeInvalid, err
	}
	timeout := req.Timeout(s.opts.DefaultTimeout, s.opts.MaxTimeout)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.mRejected.Inc("draining")
		return nil, OutcomeDraining, nil
	}
	// A traced submission must actually execute to produce its trace
	// artifact, so it skips both the result cache and coalescing onto an
	// in-flight (untraced) twin. Its result is still cached afterwards.
	if !req.Trace {
		if cached, ok := s.cache.Get(key); ok {
			job := s.newJobLocked(key, cfg, reps, timeout)
			job.state = StateDone
			job.cacheHit = true
			job.result = cached
			job.finished = job.submitted
			s.registerLocked(job)
			s.mSubmitted.Inc()
			s.mCacheHits.Inc()
			s.mJobsTerminal.Inc(string(StateDone))
			return job, OutcomeCacheHit, nil
		}
		if prior, ok := s.byKey[key]; ok {
			s.mSubmitted.Inc()
			s.mCoalesced.Inc()
			return prior, OutcomeCoalesced, nil
		}
	}
	// Admission check BEFORE allocating the job ID: newJobLocked consumes
	// s.nextID, so creating the job first burned one ID per 429 and left
	// gaps in the sequence. Every send happens under s.mu and workers only
	// drain, so a length check here guarantees the send below cannot block.
	if len(s.queue) == cap(s.queue) {
		s.mRejected.Inc("queue_full")
		return nil, OutcomeQueueFull, nil
	}
	job := s.newJobLocked(key, cfg, reps, timeout)
	job.traceRequested = req.Trace
	job.state = StateQueued
	s.queue <- job
	s.registerLocked(job)
	if _, ok := s.byKey[key]; !ok {
		s.byKey[key] = job
	}
	s.mSubmitted.Inc()
	s.mCacheMisses.Inc()
	return job, OutcomeAccepted, nil
}

func (s *Server) newJobLocked(key string, cfg scenario.Config, reps int, timeout time.Duration) *Job {
	s.nextID++
	return &Job{
		ID:        fmt.Sprintf("job-%d", s.nextID),
		Key:       key,
		cfg:       cfg,
		reps:      reps,
		timeout:   timeout,
		submitted: time.Now().UTC(),
	}
}

func (s *Server) registerLocked(job *Job) {
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Statuses snapshots every job in submission order.
func (s *Server) Statuses() []Status {
	s.mu.Lock()
	jobs := make([]*Job, len(s.order))
	for i, id := range s.order {
		jobs[i] = s.jobs[id]
	}
	s.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// Cancel requests cancellation of a job. A queued job is marked canceled
// immediately (the worker skips it); a running job's context is canceled
// and the simulation stops at its next cooperative check. Returns false
// if the job is unknown or already terminal.
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	now := time.Now().UTC()
	if job.tryTransition(StateQueued, StateCanceled, func(j *Job) {
		j.err = "canceled before start"
		j.finished = now
	}) {
		s.detachTerminal(job, StateCanceled)
		return true
	}
	job.mu.Lock()
	cancel := job.cancel
	running := job.state == StateRunning
	job.mu.Unlock()
	if running && cancel != nil {
		cancel(errCanceledByUser)
		return true
	}
	return false
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// QueueDepth returns (admitted-but-not-running, capacity).
func (s *Server) QueueDepth() (int, int) { return len(s.queue), cap(s.queue) }

// Shutdown drains the server: new submissions are rejected with
// OutcomeDraining, jobs already admitted (queued and running) execute to
// completion, and every job keeps a terminal status. If ctx expires
// first, running jobs are force-canceled (terminal state canceled,
// "server shutting down") and Shutdown returns ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.forceStop(errShutdown)
		<-done
		return ctx.Err()
	}
}

// worker executes queued jobs until the queue is closed and drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.execute(job)
	}
}

// execute runs one job under its deadline and publishes the outcome.
func (s *Server) execute(job *Job) {
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	tctx, tcancel := context.WithTimeoutCause(ctx, job.timeout, context.DeadlineExceeded)
	defer tcancel()
	defer cancel(nil)

	if !job.tryTransition(StateQueued, StateRunning, func(j *Job) {
		j.started = time.Now().UTC()
		j.cancel = cancel
	}) {
		return // canceled while queued; already terminal
	}
	// A traced job runs a private cfg copy with an NDJSON sink attached;
	// job.cfg stays untouched (its canonical key was computed without a
	// sink, and tracing must not leak into identity). The sink forces the
	// replication fan-out serial inside RunReplicationsContext, and the
	// metrics it feeds are byte-identical to an untraced run.
	cfg := job.cfg
	var traceBuf *bytes.Buffer
	if job.traceRequested {
		traceBuf = &bytes.Buffer{}
		// The tally rides alongside the NDJSON buffer so the per-scheme
		// summary and the trace-events metric tick while the job runs.
		cfg.Trace = trace.Multi{trace.NewWriter(traceBuf), s.traceTally(cfg.Scheme.String())}
	}
	s.mRunning.Inc()
	start := time.Now()
	agg, err := s.runFn(tctx, cfg, job.reps, s.opts.SimWorkers)
	s.mRunSeconds.Observe(time.Since(start).Seconds())
	s.mRunning.Dec()
	s.mRuns.Inc(channelLabel(cfg), policyLabel(cfg))

	// Persist the trace BEFORE classifying the outcome: a traced job that
	// fails or hits its deadline is exactly the run its trace exists to
	// debug, and dropping the partial artifact on the error path lost it.
	if traceBuf != nil {
		job.mu.Lock()
		job.traceData = traceBuf.Bytes()
		job.traceCaptured = true
		job.mu.Unlock()
	}
	if err != nil {
		state, msg := classifyRunError(tctx, err)
		s.finishJob(job, state, msg, nil)
		return
	}
	body, err := MarshalResult(job.Key, job.reps, agg)
	if err != nil {
		s.finishJob(job, StateFailed, fmt.Sprintf("marshal result: %v", err), nil)
		return
	}
	s.cache.Put(job.Key, body)
	s.finishJob(job, StateDone, "", body)
}

// classifyRunError maps a simulation error to a terminal state: a client
// cancel and a server shutdown are "canceled", an expired deadline and
// everything else (validation, audit violations) are "failed".
func classifyRunError(ctx context.Context, err error) (State, string) {
	if errors.Is(err, scenario.ErrCanceled) {
		cause := context.Cause(ctx)
		switch {
		case errors.Is(cause, errCanceledByUser):
			return StateCanceled, "canceled by client"
		case errors.Is(cause, errShutdown):
			return StateCanceled, "server shutting down"
		case errors.Is(cause, context.DeadlineExceeded):
			return StateFailed, "job deadline exceeded"
		}
		return StateCanceled, cause.Error()
	}
	return StateFailed, err.Error()
}

// finishJob moves a job to a terminal state; a no-op if the job already
// reached one (e.g. a cancel raced the finish).
func (s *Server) finishJob(job *Job, state State, msg string, result []byte) {
	if !job.setState(state, func(j *Job) {
		j.err = msg
		j.result = result
		j.finished = time.Now().UTC()
		j.cancel = nil
	}) {
		return
	}
	s.detachTerminal(job, state)
}

// detachTerminal removes a now-terminal job from the coalescing index and
// bumps the terminal-state counter.
func (s *Server) detachTerminal(job *Job, state State) {
	s.mu.Lock()
	if s.byKey[job.Key] == job {
		delete(s.byKey, job.Key)
	}
	s.mu.Unlock()
	s.mJobsTerminal.Inc(string(state))
}
