package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rcast/internal/metrics/promtext"
	"rcast/internal/scenario"
	"rcast/internal/trace"
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

	// mu serializes admission: the draining flag, the coalescing index
	// and the queue sends.
	mu       sync.Mutex
	byKey    map[string]*Job // non-terminal jobs by cache key (coalescing)
	queue    chan *Job
	draining bool
	jobs     registry[*Job]
	sweeps   registry[*Sweep]

	baseCtx   context.Context
	forceStop context.CancelCauseFunc
	wg        sync.WaitGroup

	reg          *promtext.Registry
	mSubmitted   *promtext.Counter
	mRuns        *promtext.Family
	mCacheHits   *promtext.Counter
	mCacheMisses *promtext.Counter
	mCoalesced   *promtext.Counter
	mRejected    *promtext.Family
	mRunning     *promtext.Gauge
	mRunSeconds  *promtext.Histogram

	mSweepsSubmitted *promtext.Counter
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

// New creates a server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:  opts,
		cache: newResultCache(opts.CacheEntries),
		byKey: make(map[string]*Job),
		queue: make(chan *Job, opts.QueueDepth),
		reg:   promtext.NewRegistry(),

		traceTallies: make(map[string]*trace.SyncCounter),
	}
	s.sweepExec = localSweepExecutor{s: s}
	s.runFn = func(ctx context.Context, cfg scenario.Config, reps, workers int) (*scenario.Aggregate, error) {
		return scenario.RunReplicationsContext(ctx, cfg, reps, workers)
	}
	// WithCancelCause, not WithCancel: a force-stop must surface as
	// errShutdown through context.Cause, or outcome reports the generic
	// "context canceled" instead of "server shutting down".
	s.baseCtx, s.forceStop = context.WithCancelCause(context.Background())

	s.mSubmitted = s.reg.NewCounter("rcast_serve_jobs_submitted_total", "Job submissions admitted (cache hits and coalesced submissions included).")
	s.mRuns = s.reg.NewCounterFamily("rcast_serve_runs_total", "Simulation batches actually executed, by propagation model and overhearing policy (cache hits never increment this).", "channel", "policy")
	s.mCacheHits = s.reg.NewCounter("rcast_serve_cache_hits_total", "Submissions served from the content-addressed result cache.")
	s.mCacheMisses = s.reg.NewCounter("rcast_serve_cache_misses_total", "Submissions that missed the result cache and were queued.")
	s.mCoalesced = s.reg.NewCounter("rcast_serve_jobs_coalesced_total", "Submissions attached to an identical in-flight job.")
	s.mRejected = s.reg.NewCounterFamily("rcast_serve_rejected_total", "Rejected submissions by reason.", "reason")
	s.jobs.prefix = "job"
	s.jobs.states = s.reg.NewCounterFamily("rcast_serve_jobs_total", "Jobs reaching a terminal state.", "state")
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
	s.sweeps.prefix = "sweep"
	s.sweeps.states = s.reg.NewCounterFamily("rcast_serve_sweeps_total", "Sweeps reaching a terminal state.", "state")
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
			job := s.newJob(key, cfg, reps, timeout)
			job.servedFromCache(cached)
			s.jobs.add(job)
			s.mSubmitted.Inc()
			s.mCacheHits.Inc()
			return job, OutcomeCacheHit, nil
		}
		if prior, ok := s.byKey[key]; ok {
			s.mSubmitted.Inc()
			s.mCoalesced.Inc()
			return prior, OutcomeCoalesced, nil
		}
	}
	// Every send happens under s.mu and workers only drain, so a length
	// check here guarantees the send below cannot block.
	if len(s.queue) == cap(s.queue) {
		s.mRejected.Inc("queue_full")
		return nil, OutcomeQueueFull, nil
	}
	job := s.newJob(key, cfg, reps, timeout)
	job.traceRequested = req.Trace
	s.jobs.add(job)
	s.queue <- job
	if _, ok := s.byKey[key]; !ok {
		s.byKey[key] = job
	}
	s.mSubmitted.Inc()
	s.mCacheMisses.Inc()
	return job, OutcomeAccepted, nil
}

// newJob builds a queued job, whose terminal hook drops it from the
// coalescing index.
func (s *Server) newJob(key string, cfg scenario.Config, reps int, timeout time.Duration) *Job {
	job := &Job{cfg: cfg, reps: reps, timeout: timeout}
	job.init(key, job.statusLocked, func(st State) {
		s.mu.Lock()
		if s.byKey[job.Key] == job {
			delete(s.byKey, job.Key)
		}
		s.mu.Unlock()
		s.jobs.done(st)
	})
	return job
}

// Statuses snapshots every job in submission order.
func (s *Server) Statuses() []Status { return views(&s.jobs, (*Job).status) }

// Cancel requests cancellation of a job (lifecycle.requestCancel);
// false if the job is unknown or already terminal.
func (s *Server) Cancel(id string) bool {
	job, ok := s.jobs.get(id)
	return ok && job.requestCancel()
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
	defer cancel(nil)
	if !job.start(cancel) {
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
	body, err := s.compute(ctx, job.Key, cfg, job.reps, job.timeout, true)
	// Persist the trace BEFORE the job turns terminal: a traced job that
	// fails or hits its deadline is exactly the run its trace exists to
	// debug, so the partial artifact is kept on the error path too.
	if traceBuf != nil {
		job.mu.Lock()
		job.traceData = traceBuf.Bytes()
		job.traceCaptured = true
		job.mu.Unlock()
	}
	job.finish(ctx, body, err)
}

// compute is the one execution step of jobs and local sweep cells: run
// cfg under its deadline, render the canonical result bytes and store
// them in the result cache. A run the deadline stops returns errDeadline.
// jobs_running and run_seconds count jobs only, so only a job sets asJob.
func (s *Server) compute(ctx context.Context, key string, cfg scenario.Config, reps int, timeout time.Duration, asJob bool) ([]byte, error) {
	tctx, cancel := context.WithTimeoutCause(ctx, timeout, context.DeadlineExceeded)
	defer cancel()
	// The policy label is the effective policy: "" resolves to the scheme
	// default's name, matching the canonical encoding.
	s.mRuns.Inc(channelLabel(cfg), cfg.EffectivePolicyName())
	if asJob {
		s.mRunning.Inc()
	}
	start := time.Now()
	agg, err := s.runFn(tctx, cfg, reps, s.opts.SimWorkers)
	if asJob {
		s.mRunSeconds.Observe(time.Since(start).Seconds())
		s.mRunning.Dec()
	}
	if err != nil {
		if errors.Is(err, scenario.ErrCanceled) && errors.Is(context.Cause(tctx), context.DeadlineExceeded) {
			return nil, errDeadline
		}
		return nil, err
	}
	body, err := MarshalResult(key, reps, agg)
	if err != nil {
		return nil, fmt.Errorf("marshal result: %w", err)
	}
	s.cache.Put(key, body)
	return body, nil
}
