package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rcast/internal/metrics/promtext"
)

// FleetOptions configures coordinator mode: a server that executes sweep
// cells on downstream rcast-serve workers instead of its own engine.
type FleetOptions struct {
	// Workers is the list of downstream rcast-serve base URLs. At least
	// one is required.
	Workers []string
	// MaxRetries bounds how many times one cell is re-dispatched after a
	// worker loss before the sweep fails (default 3).
	MaxRetries int
	// RetryBackoff is the base of the exponential re-dispatch delay:
	// attempt n waits RetryBackoff << n before the cell re-enters the
	// shared queue, where any surviving worker steals it (default 250ms).
	RetryBackoff time.Duration
	// PollInterval is the job-status polling cadence against workers
	// (default 50ms).
	PollInterval time.Duration
	// HTTPClient overrides the client used to talk to workers (tests).
	HTTPClient *http.Client
}

func (f FleetOptions) withDefaults() FleetOptions {
	if f.MaxRetries <= 0 {
		f.MaxRetries = 3
	}
	if f.RetryBackoff <= 0 {
		f.RetryBackoff = 250 * time.Millisecond
	}
	if f.PollInterval <= 0 {
		f.PollInterval = 50 * time.Millisecond
	}
	if f.HTTPClient == nil {
		f.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	return f
}

// NewCoordinator creates a server whose sweeps shard across a fleet of
// downstream rcast-serve workers with work-stealing dispatch, bounded
// per-cell retry on worker loss, and peer-cache fills. The plain jobs API
// still executes locally; only sweep cells go to the fleet. The cell
// bytes are byte-identical either way — workers run the same engine under
// the same canonical keys — so coordinator mode changes throughput, never
// results.
func NewCoordinator(opts Options, fleet FleetOptions) (*Server, error) {
	if len(fleet.Workers) == 0 {
		return nil, fmt.Errorf("serve: coordinator needs at least one worker URL")
	}
	fleet = fleet.withDefaults()
	s := New(opts)
	f := &fleetExecutor{
		s:    s,
		opts: fleet,
		mWorkerUp: s.reg.NewGaugeFamily("rcast_serve_fleet_worker_up",
			"Per-worker fleet health (1 = dispatchable, 0 = lost).", "worker"),
	}
	for _, u := range fleet.Workers {
		w := &fleetWorker{url: u}
		f.workers = append(f.workers, w)
		f.mWorkerUp.Set(1, u)
	}
	s.sweepExec = f
	return s, nil
}

// fleetWorker is one downstream rcast-serve the coordinator dispatches to.
type fleetWorker struct {
	url  string
	down atomic.Bool
}

// fleetExecutor shards a sweep's cells across the fleet. One dispatch
// slot per worker pulls cells off a shared queue (work stealing: a fast
// worker drains more cells); a lost worker's in-flight cell re-enters the
// queue after exponential backoff and a surviving worker picks it up.
type fleetExecutor struct {
	s         *Server
	opts      FleetOptions
	workers   []*fleetWorker
	mWorkerUp *promtext.Family
}

// cellError classifies a dispatch failure.
type cellError struct {
	err  error
	kind cellErrKind
}

type cellErrKind int

const (
	cellErrFatal     cellErrKind = iota // cell itself failed; fail the sweep
	cellErrLoss                         // worker lost; retry cell elsewhere
	cellErrTransient                    // worker busy (429); retry, worker stays up
)

func (e *cellError) Error() string { return e.err.Error() }
func (e *cellError) Unwrap() error { return e.err }

func lossErr(format string, args ...any) *cellError {
	return &cellError{err: fmt.Errorf(format, args...), kind: cellErrLoss}
}

// fleetTask is one unit of the shared work queue: an index into the
// sweep's unique groups (one dispatch per unique config) plus its retry
// count.
type fleetTask struct {
	u        int
	attempts int
}

func (f *fleetExecutor) runSweep(ctx context.Context, sw *Sweep) ([][]byte, error) {
	s := f.s
	results := make([][]byte, len(sw.unique))

	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	// The queue is sized to hold every task at once, so requeues (which
	// can come from timer goroutines) never block.
	work := make(chan fleetTask, len(sw.unique))
	for u := range sw.unique {
		work <- fleetTask{u: u}
	}

	var (
		mu        sync.Mutex
		remaining = len(sw.unique)
		firstErr  error
	)
	done := make(chan struct{})
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel(err)
	}
	finish := func(u int, body []byte, source, workerURL string) {
		mu.Lock()
		results[u] = body
		remaining--
		last := remaining == 0
		mu.Unlock()
		s.resolved(sw, u, source, workerURL)
		if last {
			close(done)
		}
	}
	requeue := func(t fleetTask) {
		sw.cellRetried(t.u)
		s.mFleetRetries.Inc()
		delay := f.opts.RetryBackoff << t.attempts
		t.attempts++
		time.AfterFunc(delay, func() {
			select {
			case <-runCtx.Done():
			default:
				work <- t // never blocks: queue holds every task
			}
		})
	}

	live := int64(len(f.workers))
	var liveWorkers atomic.Int64
	liveWorkers.Store(live)

	var wg sync.WaitGroup
	for _, w := range f.workers {
		if w.down.Load() {
			if liveWorkers.Add(-1) == 0 {
				fail(fmt.Errorf("serve: all fleet workers down"))
			}
			continue
		}
		wg.Add(1)
		go func(w *fleetWorker) {
			defer wg.Done()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-done:
					return
				case t := <-work:
					sw.cellRunning(t.u)
					cell := &sw.cells[sw.unique[t.u][0]]
					body, source, fromURL, err := f.resolve(runCtx, sw, w, cell)
					if err == nil {
						finish(t.u, body, source, fromURL)
						continue
					}
					var ce *cellError
					if !errors.As(err, &ce) {
						// Cancellation or another non-dispatch error:
						// surface untouched so the sweep-level cause
						// (user cancel vs shutdown) decides the message.
						fail(err)
						return
					}
					switch ce.kind {
					case cellErrFatal:
						fail(ce.err)
						return
					case cellErrTransient:
						if t.attempts >= f.opts.MaxRetries {
							fail(fmt.Errorf("serve: cell %d (%s) still rejected after %d attempts: %w",
								cell.Index, cell.Key, t.attempts+1, ce.err))
							return
						}
						requeue(t)
					case cellErrLoss:
						w.down.Store(true)
						f.mWorkerUp.Set(0, w.url)
						if t.attempts >= f.opts.MaxRetries {
							fail(fmt.Errorf("serve: cell %d (%s) failed after %d attempts: %w",
								cell.Index, cell.Key, t.attempts+1, ce.err))
						} else {
							requeue(t)
						}
						if liveWorkers.Add(-1) == 0 {
							fail(fmt.Errorf("serve: all fleet workers down (last: %w)", ce.err))
						}
						return // this dispatch slot is gone; survivors steal its work
					}
				}
			}
		}(w)
	}
	wg.Wait()

	mu.Lock()
	err := firstErr
	left := remaining
	mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if left != 0 {
		return nil, fmt.Errorf("serve: fleet dispatch ended with %d cells unresolved", left)
	}
	return results, nil
}

// resolve obtains one cell's result bytes: coordinator cache, then a
// peer-cache probe across the fleet, then a real run on worker w. It
// returns the bytes, their source, and the worker URL that supplied them
// ("" for a coordinator cache hit).
func (f *fleetExecutor) resolve(ctx context.Context, sw *Sweep, w *fleetWorker, cell *SweepCell) ([]byte, string, string, error) {
	if body, ok := f.s.cache.Get(cell.Key); ok {
		return body, CellSourceCache, "", nil
	}
	// Peer probe: a cheap HEAD against each live worker's result cache,
	// starting with the worker that would otherwise compute. Any hit is
	// fetched and fed into the coordinator cache.
	if body, url, ok := f.probePeers(ctx, w, cell.Key); ok {
		f.s.cache.Put(cell.Key, body)
		return body, CellSourcePeerCache, url, nil
	}
	body, err := f.runOnWorker(ctx, w, cell)
	if err != nil {
		return nil, "", "", err
	}
	f.s.cache.Put(cell.Key, body)
	return body, CellSourceComputed, w.url, nil
}

// probePeers HEADs /api/v1/results/{key} on w first, then every other
// live worker. Probe failures on *other* workers are ignored (their own
// dispatch slots detect losses); only a hit matters here.
func (f *fleetExecutor) probePeers(ctx context.Context, w *fleetWorker, key string) ([]byte, string, bool) {
	candidates := []*fleetWorker{w}
	for _, other := range f.workers {
		if other != w && !other.down.Load() {
			candidates = append(candidates, other)
		}
	}
	for _, c := range candidates {
		req, err := http.NewRequestWithContext(ctx, http.MethodHead, c.url+"/api/v1/results/"+key, nil)
		if err != nil {
			continue
		}
		resp, err := f.opts.HTTPClient.Do(req)
		if err != nil {
			continue
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			continue
		}
		body, err := f.get(ctx, c.url+"/api/v1/results/"+key)
		if err != nil {
			continue
		}
		return body, c.url, true
	}
	return nil, "", false
}

// get fetches url, which must answer 200, and returns its body.
func (f *fleetExecutor) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.opts.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errors.New(resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// runOnWorker submits the cell as a plain job on w and drives it to a
// terminal state, returning the canonical result bytes.
func (f *fleetExecutor) runOnWorker(ctx context.Context, w *fleetWorker, cell *SweepCell) ([]byte, error) {
	payload, err := json.Marshal(cell.Req)
	if err != nil {
		return nil, &cellError{err: fmt.Errorf("cell %d (%s): marshal request: %w", cell.Index, cell.Key, err), kind: cellErrFatal}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/api/v1/jobs", bytes.NewReader(payload))
	if err != nil {
		return nil, lossErr("POST %s/api/v1/jobs: %v", w.url, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.opts.HTTPClient.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, lossErr("POST %s/api/v1/jobs: %v", w.url, err)
	}
	var st Status
	decodeErr := json.NewDecoder(resp.Body).Decode(&st)
	_ = resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return nil, &cellError{err: fmt.Errorf("worker %s queue full", w.url), kind: cellErrTransient}
	case resp.StatusCode == http.StatusBadRequest:
		return nil, &cellError{err: fmt.Errorf("cell %d (%s) rejected by %s", cell.Index, cell.Key, w.url), kind: cellErrFatal}
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		return nil, lossErr("POST %s/api/v1/jobs: %s", w.url, resp.Status)
	case decodeErr != nil:
		return nil, lossErr("POST %s/api/v1/jobs: bad status body: %v", w.url, decodeErr)
	}

	for !st.State.Terminal() {
		select {
		case <-ctx.Done():
			// Best-effort remote cancel so the worker does not burn CPU on
			// a sweep that is already dead.
			creq, err := http.NewRequest(http.MethodPost, w.url+"/api/v1/jobs/"+st.ID+"/cancel", nil)
			if err == nil {
				if cresp, err := f.opts.HTTPClient.Do(creq); err == nil {
					_ = cresp.Body.Close()
				}
			}
			return nil, ctx.Err()
		case <-time.After(f.opts.PollInterval):
		}
		sreq, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/api/v1/jobs/"+st.ID, nil)
		if err != nil {
			return nil, lossErr("GET %s/api/v1/jobs/%s: %v", w.url, st.ID, err)
		}
		sresp, err := f.opts.HTTPClient.Do(sreq)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, lossErr("GET %s/api/v1/jobs/%s: %v", w.url, st.ID, err)
		}
		decodeErr = json.NewDecoder(sresp.Body).Decode(&st)
		_ = sresp.Body.Close()
		if sresp.StatusCode != http.StatusOK {
			// A 404 here means the worker restarted and lost the job.
			return nil, lossErr("GET %s/api/v1/jobs/%s: %s", w.url, st.ID, sresp.Status)
		}
		if decodeErr != nil {
			return nil, lossErr("GET %s/api/v1/jobs/%s: bad status body: %v", w.url, st.ID, decodeErr)
		}
	}
	switch st.State {
	case StateDone:
		return f.fetchJobResult(ctx, w, st.ID, cell)
	case StateCanceled:
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// Canceled by someone else (e.g. the worker draining): the work is
		// recoverable elsewhere.
		return nil, lossErr("worker %s canceled job %s: %s", w.url, st.ID, st.Error)
	default: // StateFailed: deterministic — it would fail on any worker
		return nil, &cellError{err: fmt.Errorf("cell %d (%s) failed on %s: %s", cell.Index, cell.Key, w.url, st.Error), kind: cellErrFatal}
	}
}

func (f *fleetExecutor) fetchJobResult(ctx context.Context, w *fleetWorker, jobID string, cell *SweepCell) ([]byte, error) {
	url := w.url + "/api/v1/jobs/" + jobID + "/result"
	body, err := f.get(ctx, url)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, lossErr("GET %s: %v", url, err)
	}
	if got, err := cellResultKey(body); err != nil || got != cell.Key {
		return nil, &cellError{err: fmt.Errorf("cell %d: worker %s returned result for key %q, want %q", cell.Index, w.url, got, cell.Key), kind: cellErrFatal}
	}
	return body, nil
}

// cellResultKey extracts the canonical key a result document claims, so
// the coordinator can verify a worker returned the right cell.
func cellResultKey(body []byte) (string, error) {
	var doc struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return "", err
	}
	return doc.Key, nil
}
