package serve

import (
	"time"

	"rcast/internal/scenario"
)

// jobEventBuffer is a job subscriber's channel buffer: well beyond the
// number of transitions a job can make, so events are not normally
// dropped.
const jobEventBuffer = 8

// Job is one admitted submission: the shared lifecycle plus the run it
// executes and its trace artifact. The run fields (cfg, reps, timeout,
// traceRequested) are set once at admission and never change; the trace
// fields are guarded by mu.
type Job struct {
	lifecycle[Status]

	cfg            scenario.Config
	reps           int
	timeout        time.Duration
	traceRequested bool

	traceData []byte // captured NDJSON trace (traced jobs only)
	// traceCaptured distinguishes "executed and captured a (possibly
	// empty or partial) trace" from "never ran": a traced job canceled
	// while still queued has nothing to serve.
	traceCaptured bool
}

// Status is the poll/SSE view of a job.
type Status struct {
	ID          string    `json:"id"`
	State       State     `json:"state"`
	Key         string    `json:"key"`
	Reps        int       `json:"reps"`
	CacheHit    bool      `json:"cache_hit"`
	Trace       bool      `json:"trace,omitempty"` // trace artifact requested
	Error       string    `json:"error,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
}

// frame names a job's SSE frames "state"; the terminal one is the last.
func (st Status) frame() (string, bool) { return "state", st.State.Terminal() }

// status snapshots the job under its lock.
func (j *Job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() Status {
	return Status{
		ID:          j.ID,
		State:       j.state,
		Key:         j.Key,
		Reps:        j.reps,
		CacheHit:    j.cacheHit,
		Trace:       j.traceRequested,
		Error:       j.err,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
	}
}

// Trace returns the captured NDJSON trace bytes and whether a trace was
// captured at all. Failed, canceled and timed-out traced jobs keep their
// partial trace; only a traced job that never started executing reports
// false.
func (j *Job) Trace() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.traceData, j.traceCaptured
}
