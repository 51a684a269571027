package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Handler returns the daemon's HTTP API:
//
//	POST /api/v1/jobs             submit a job (202; 200 on cache hit)
//	GET  /api/v1/jobs             list job statuses
//	GET  /api/v1/jobs/{id}        poll one job's status
//	GET  /api/v1/jobs/{id}/result fetch the stored result bytes
//	GET  /api/v1/jobs/{id}/trace  fetch the NDJSON trace artifact (traced jobs)
//	GET  /api/v1/jobs/{id}/events live status stream (server-sent events)
//	POST /api/v1/jobs/{id}/cancel request cancellation
//	POST /api/v1/sweeps             submit a parameter-grid sweep (202; 200 on cache hit)
//	GET  /api/v1/sweeps             list sweep statuses
//	GET  /api/v1/sweeps/{id}        poll one sweep (includes per-cell states)
//	GET  /api/v1/sweeps/{id}/result fetch the aggregate sweep document
//	GET  /api/v1/sweeps/{id}/events live per-cell completion stream (SSE)
//	POST /api/v1/sweeps/{id}/cancel request sweep cancellation
//	GET  /api/v1/results/{key}      raw cached result bytes by canonical key
//	                                (HEAD probes existence; used for fleet
//	                                peer-cache fills)
//	GET  /api/v1/traces/summary     per-scheme trace-event tallies folded
//	                                from every traced job (live)
//	GET  /healthz                 liveness (503 while draining)
//	GET  /metrics                 Prometheus text exposition
//	     /debug/pprof/...         runtime profiling
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /api/v1/sweeps", s.handleSweepSubmit)
	mux.HandleFunc("GET /api/v1/sweeps", s.handleSweepList)
	mux.HandleFunc("GET /api/v1/sweeps/{id}", s.handleSweepStatus)
	mux.HandleFunc("GET /api/v1/sweeps/{id}/result", s.handleSweepResult)
	mux.HandleFunc("GET /api/v1/sweeps/{id}/events", s.handleSweepEvents)
	mux.HandleFunc("POST /api/v1/sweeps/{id}/cancel", s.handleSweepCancel)
	mux.HandleFunc("GET /api/v1/results/{key}", s.handleResultByKey)
	mux.HandleFunc("GET /api/v1/traces/summary", s.handleTracesSummary)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// errorBody is the uniform JSON error payload.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// retryAfterSeconds renders a Retry-After hint: whole seconds, rounded
// up, never below 1. Truncation used to turn a sub-second hint into
// "Retry-After: 0", which well-behaved clients read as "retry
// immediately" — the opposite of backpressure.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// answerSubmit answers an admission outcome: 400 with err, 429 with
// full as the reason and a Retry-After hint, 503 naming what is not
// accepted, or the admitted status (200 for a cache hit, else 202), which
// status renders only then.
func (s *Server) answerSubmit(w http.ResponseWriter, outcome Outcome, err error, noun, full string, status func() any) {
	switch outcome {
	case OutcomeInvalid:
		writeError(w, http.StatusBadRequest, "%v", err)
	case OutcomeQueueFull:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.opts.RetryAfter)))
		writeError(w, http.StatusTooManyRequests, "%s; retry later", full)
	case OutcomeDraining:
		writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting %s", noun)
	case OutcomeCacheHit:
		writeJSON(w, http.StatusOK, status())
	default: // OutcomeAccepted, OutcomeCoalesced
		writeJSON(w, http.StatusAccepted, status())
	}
}

// fromPath resolves the {id} wildcard in reg, answering 404 itself on a
// miss.
func fromPath[T entry](w http.ResponseWriter, r *http.Request, reg *registry[T]) (T, bool) {
	id := r.PathValue("id")
	v, ok := reg.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown %s %q", reg.prefix, id)
	}
	return v, ok
}

// writeResult serves a done lifecycle's result bytes with its key and
// cache headers, or 409 saying why there are none.
func writeResult[E sseEvent](w http.ResponseWriter, noun string, l *lifecycle[E]) {
	l.mu.Lock()
	state, msg, hit, body := l.state, l.err, l.cacheHit, l.result
	l.mu.Unlock()
	switch {
	case !state.Terminal():
		writeError(w, http.StatusConflict, "%s %s is %s; result not ready", noun, l.ID, state)
	case state != StateDone:
		writeError(w, http.StatusConflict, "%s %s is %s: %s", noun, l.ID, state, msg)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Rcast-Key", l.Key)
		if hit {
			w.Header().Set("X-Rcast-Cache", "hit")
		} else {
			w.Header().Set("X-Rcast-Cache", "miss")
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
	}
}

// streamEvents streams a lifecycle's events as server-sent events: the
// current snapshot at once, then every later event, each framed
// "event: <name>\ndata: <json>\n\n", ending after the last frame or
// when the client disconnects.
func streamEvents[E sseEvent](w http.ResponseWriter, r *http.Request, l *lifecycle[E], buf int) {
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	ch, unsub := l.subscribe(buf)
	defer unsub()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			name, last := ev.frame()
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data); err != nil {
				return
			}
			fl.Flush()
			if last {
				return
			}
		}
	}
}

// canceled applies the shared cancel rule, answering 409 itself when
// there is nothing to cancel.
func canceled[E sseEvent](w http.ResponseWriter, noun string, l *lifecycle[E]) bool {
	if l.requestCancel() {
		return true
	}
	writeError(w, http.StatusConflict, "%s %s is %s; nothing to cancel", noun, l.ID, l.State())
	return false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := ParseJobRequest(r.Body)
	if err != nil {
		s.mRejected.Inc("bad_request")
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job, outcome, err := s.Submit(req)
	s.answerSubmit(w, outcome, err, "jobs", fmt.Sprintf("job queue full (capacity %d)", cap(s.queue)),
		func() any { return job.status() })
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Statuses())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if job, ok := fromPath(w, r, &s.jobs); ok {
		writeJSON(w, http.StatusOK, job.status())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if job, ok := fromPath(w, r, &s.jobs); ok {
		writeResult(w, "job", &job.lifecycle)
	}
}

// handleTrace serves the packet-lifecycle trace artifact of a traced,
// completed job as NDJSON.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := fromPath(w, r, &s.jobs)
	if !ok {
		return
	}
	if !job.traceRequested {
		writeError(w, http.StatusNotFound, "job %s was not submitted with trace=true", job.ID)
		return
	}
	st := job.status()
	data, captured := job.Trace()
	switch {
	case !st.State.Terminal():
		writeError(w, http.StatusConflict, "job %s is %s; trace not ready", job.ID, st.State)
	case !captured:
		// Terminal but never executed (e.g. canceled while queued): there
		// is no artifact, partial or otherwise.
		writeError(w, http.StatusConflict, "job %s is %s and never executed: %s", job.ID, st.State, st.Error)
	default:
		// Failed, canceled and timed-out traced jobs serve their partial
		// trace — the run you most want to debug — flagged via header.
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Rcast-Key", job.Key)
		if st.State != StateDone {
			w.Header().Set("X-Rcast-Trace", "partial")
		} else {
			w.Header().Set("X-Rcast-Trace", "complete")
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	}
}

// handleEvents streams a job's status transitions ("state" frames),
// ending at its terminal state.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if job, ok := fromPath(w, r, &s.jobs); ok {
		streamEvents(w, r, &job.lifecycle, jobEventBuffer)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if job, ok := fromPath(w, r, &s.jobs); ok && canceled(w, "job", &job.lifecycle) {
		writeJSON(w, http.StatusAccepted, job.status())
	}
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := ParseSweepRequest(r.Body)
	if err != nil {
		s.mRejected.Inc("bad_request")
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sw, outcome, err := s.SubmitSweep(req)
	s.answerSubmit(w, outcome, err, "sweeps", fmt.Sprintf("sweep intake full (%d sweeps in flight)", s.opts.QueueDepth),
		func() any { return sw.status() })
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.SweepStatuses())
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	if sw, ok := fromPath(w, r, &s.sweeps); ok {
		writeJSON(w, http.StatusOK, sw.detailStatus())
	}
}

func (s *Server) handleSweepResult(w http.ResponseWriter, r *http.Request) {
	if sw, ok := fromPath(w, r, &s.sweeps); ok {
		writeResult(w, "sweep", &sw.lifecycle)
	}
}

// handleSweepEvents streams sweep progress: a "cell" frame per completed
// cell and a "sweep" frame per lifecycle transition, ending at the
// terminal one.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	if sw, ok := fromPath(w, r, &s.sweeps); ok {
		streamEvents(w, r, &sw.lifecycle, sweepEventBuffer)
	}
}

func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	if sw, ok := fromPath(w, r, &s.sweeps); ok && canceled(w, "sweep", &sw.lifecycle) {
		writeJSON(w, http.StatusAccepted, sw.status())
	}
}

// handleResultByKey serves raw cached result bytes by canonical key. A
// GET registration also answers HEAD, which is the fleet's cheap
// peer-cache probe: a coordinator HEADs its workers before computing a
// cell, and any 200 means the worker can serve the bytes immediately.
func (s *Server) handleResultByKey(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	body, ok := s.cache.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, "no cached result for key %q", key)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Rcast-Key", key)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		_, _ = w.Write(body)
	}
}

// healthBody is the /healthz payload.
type healthBody struct {
	Status        string `json:"status"` // "ok" or "draining"
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	JobsRunning   int64  `json:"jobs_running"`
	CacheEntries  int    `json:"cache_entries"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	depth, capacity := s.QueueDepth()
	body := healthBody{
		Status:        "ok",
		QueueDepth:    depth,
		QueueCapacity: capacity,
		JobsRunning:   s.mRunning.Value(),
		CacheEntries:  s.cache.Len(),
	}
	code := http.StatusOK
	if s.Draining() {
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.Write(w)
}
