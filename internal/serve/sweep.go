package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"sync"
	"time"

	"rcast/internal/scenario"
)

// SweepRequest is the submission body for POST /api/v1/sweeps: a base
// configuration crossed with sweep axes, expanded server-side into cells
// keyed by scenario.CanonicalKey. Every job key may be set at the base,
// and any field-table key may be swept through "axes": {"<key>": [...]};
// the plural axis fields of the original API stay accepted as aliases.
// Unknown fields are rejected so a typo cannot silently sweep the wrong
// grid.
//
// Cells expand scheme outermost, then the alias axes in declaration
// order, then any other axis in field-table order; an empty axis keeps
// the base. A negative pause means "static" (pause pinned to the
// duration), and a pause axis overrides a static base.
type SweepRequest struct {
	// Alias axes: scheme, packet_rate, pause_sec, fault_preset,
	// gossip_fanout, channel, mobility, policy and tx_power_dbm.
	Schemes       []string  `json:"schemes,omitempty"`
	Rates         []float64 `json:"rates,omitempty"`
	PausesSec     []float64 `json:"pauses_sec,omitempty"`
	FaultPresets  []string  `json:"fault_presets,omitempty"`
	GossipFanouts []float64 `json:"gossip_fanouts,omitempty"`
	Channels      []string  `json:"channels,omitempty"`
	Mobilities    []string  `json:"mobilities,omitempty"`
	Policies      []string  `json:"policies,omitempty"`
	TxPowersDBm   []float64 `json:"tx_powers_dbm,omitempty"`

	// Axes maps field-table keys to the values each cell takes.
	Axes map[string][]any `json:"axes,omitempty"`

	// Base shorthands: a zero value is absent, as in JobRequest.
	Nodes       int     `json:"nodes,omitempty"`
	FieldW      float64 `json:"field_w,omitempty"`
	FieldH      float64 `json:"field_h,omitempty"`
	Connections int     `json:"connections,omitempty"`
	DurationSec float64 `json:"duration_sec,omitempty"`
	Seed        *int64  `json:"seed,omitempty"`

	// Set holds the other base keys.
	Set scenario.Fields `json:"-"`

	Reps int `json:"reps,omitempty"`
	// TimeoutSec bounds each cell's execution, like JobRequest.TimeoutSec
	// bounds a job; it is outside every cache key.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// sweepKeys are a sweep body's keys outside the base configuration.
var sweepKeys = []string{"schemes", "rates", "pauses_sec", "fault_presets", "gossip_fanouts",
	"channels", "mobilities", "policies", "tx_powers_dbm", "axes", "reps", "timeout_sec"}

// sweepFields is SweepRequest without its JSON methods.
type sweepFields SweepRequest

// MarshalJSON writes the sweep body: the fields that are set, then Set.
func (sr SweepRequest) MarshalJSON() ([]byte, error) {
	body, err := joinBody(sweepFields(sr), sr.Set)
	if err != nil {
		return nil, err
	}
	return json.Marshal(body)
}

// UnmarshalJSON decodes a sweep body, rejecting unknown keys.
func (sr *SweepRequest) UnmarshalJSON(b []byte) error {
	var typed sweepFields
	rest, err := splitBody(b, &typed, sweepKeys...)
	if err == nil {
		err = rest.Check()
	}
	if err != nil {
		return err
	}
	*sr = SweepRequest(typed)
	sr.Set = rest
	return nil
}

// ParseSweepRequest decodes a sweep submission strictly: unknown fields
// and trailing garbage are errors.
func ParseSweepRequest(r io.Reader) (SweepRequest, error) {
	var req SweepRequest
	if err := decodeBody(r, &req); err != nil {
		return req, fmt.Errorf("serve: bad sweep request: %w", err)
	}
	return req, nil
}

// SweepCell is one expanded cell of a sweep: the job request the fleet
// dispatches, the resolved config the local path runs, and the
// content-address both share with the plain jobs API.
type SweepCell struct {
	Index int
	Req   JobRequest
	Key   string

	cfg  scenario.Config
	reps int
}

// sweepAxis is one expanded axis: a field-table key and its values.
type sweepAxis struct {
	key    string
	values []any
}

// axes returns the non-empty axes in expansion order.
func (sr SweepRequest) axes() ([]sweepAxis, error) {
	all := make(map[string][]any, len(sr.Axes))
	maps.Copy(all, sr.Axes)
	var order []string
	for _, a := range []sweepAxis{
		{"scheme", anySlice(sr.Schemes)}, {"packet_rate", anySlice(sr.Rates)},
		{"pause_sec", anySlice(sr.PausesSec)}, {"fault_preset", anySlice(sr.FaultPresets)},
		{"gossip_fanout", anySlice(sr.GossipFanouts)}, {"channel", anySlice(sr.Channels)},
		{"mobility", anySlice(sr.Mobilities)}, {"policy", anySlice(sr.Policies)},
		{"tx_power_dbm", anySlice(sr.TxPowersDBm)},
	} {
		if len(a.values) > 0 {
			if len(all[a.key]) > 0 {
				return nil, fmt.Errorf("serve: sweep axis %q given twice", a.key)
			}
			all[a.key] = a.values
		}
		order = append(order, a.key)
	}
	var axes []sweepAxis
	for _, k := range append(order, scenario.FieldKeys()...) {
		if v := all[k]; len(v) > 0 {
			axes = append(axes, sweepAxis{k, v})
		}
		delete(all, k)
	}
	for k := range all {
		return nil, fmt.Errorf("serve: unknown sweep axis %q", k)
	}
	return axes, nil
}

func anySlice[T any](s []T) []any {
	out := make([]any, len(s))
	for i, v := range s {
		out[i] = v
	}
	return out
}

// Cells expands the sweep into its cells, each validated and keyed by
// scenario.CanonicalKey — the same content address the jobs API and
// result cache use.
func (sr SweepRequest) Cells() ([]SweepCell, error) {
	axes, err := sr.axes()
	if err != nil {
		return nil, err
	}
	base, err := joinBody(sweepFields(sr), sr.Set)
	if err != nil {
		return nil, err
	}
	for _, k := range sweepKeys {
		delete(base, k)
	}
	n := 1
	for _, a := range axes {
		n *= len(a.values)
	}
	cells := make([]SweepCell, 0, n)
	for i := 0; i < n; i++ {
		cell := maps.Clone(base)
		for j, rem := len(axes)-1, i; j >= 0; j-- {
			a := axes[j]
			cell[a.key] = a.values[rem%len(a.values)]
			rem /= len(a.values)
			if a.key == "pause_sec" || a.key == "pause_us" {
				delete(cell, "static")
			}
		}
		body, err := json.Marshal(cell)
		if err != nil {
			return nil, fmt.Errorf("serve: sweep cell %d: %w", i, err)
		}
		req := JobRequest{}
		if err := req.UnmarshalJSON(body); err != nil {
			return nil, fmt.Errorf("serve: sweep cell %d: %w", i, err)
		}
		req.Reps, req.TimeoutSec = sr.Reps, sr.TimeoutSec
		cfg, reps, err := req.Config()
		if err != nil {
			return nil, fmt.Errorf("serve: sweep cell %d: %w", i, err)
		}
		key, err := cfg.CanonicalKey(reps)
		if err != nil {
			return nil, fmt.Errorf("serve: sweep cell %d: %w", i, err)
		}
		cells = append(cells, SweepCell{Index: i, Req: req, Key: key, cfg: cfg, reps: reps})
	}
	return cells, nil
}

// SweepKey content-addresses a whole sweep: the hex SHA-256 over the
// canonical version stamp and every cell key in expansion order. Two
// sweeps with the same key produce byte-identical aggregate documents.
func SweepKey(cells []SweepCell) string {
	h := sha256.New()
	fmt.Fprintf(h, "sweep|v=%d", scenario.CanonicalVersion)
	for _, c := range cells {
		h.Write([]byte("|"))
		h.Write([]byte(c.Key))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Cell sources: how a cell's result bytes were obtained.
const (
	CellSourceComputed  = "computed"    // executed (locally or on a fleet worker)
	CellSourceCache     = "local_cache" // coordinator/local result cache hit
	CellSourcePeerCache = "peer_cache"  // filled from a fleet worker's cache probe
)

// CellStatus is the per-cell view exposed by the sweep status API and the
// SSE stream.
type CellStatus struct {
	Index  int    `json:"index"`
	Key    string `json:"key"`
	State  State  `json:"state"`
	Source string `json:"source,omitempty"` // computed | local_cache | peer_cache
	Worker string `json:"worker,omitempty"` // fleet worker URL that supplied the cell
}

// Sweep is one admitted sweep: an expanded grid executing as a unit. All
// mutable state is guarded by mu.
type Sweep struct {
	ID  string
	Key string

	cells   []SweepCell
	timeout time.Duration

	mu        sync.Mutex
	state     State
	err       string
	cacheHit  bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	cellStats []CellStatus
	completed int
	computed  int
	localHits int
	peerHits  int
	retries   int
	result    []byte
	cancel    context.CancelCauseFunc
	subs      map[int]chan SweepEvent
	nextSub   int
}

// SweepStatus is the poll/SSE view of a sweep. CellStates is populated on
// the detail endpoint and omitted from list/SSE snapshots.
type SweepStatus struct {
	ID          string       `json:"id"`
	State       State        `json:"state"`
	Key         string       `json:"key"`
	Cells       int          `json:"cells"`
	Completed   int          `json:"completed"`
	Computed    int          `json:"computed"`
	LocalHits   int          `json:"local_cache_hits"`
	PeerHits    int          `json:"peer_cache_hits"`
	Retries     int          `json:"retries"`
	CacheHit    bool         `json:"cache_hit"`
	Error       string       `json:"error,omitempty"`
	SubmittedAt time.Time    `json:"submitted_at"`
	StartedAt   time.Time    `json:"started_at,omitempty"`
	FinishedAt  time.Time    `json:"finished_at,omitempty"`
	CellStates  []CellStatus `json:"cell_states,omitempty"`
}

// SweepEvent is one SSE frame of a sweep's event stream: "cell" when a
// cell completes, "sweep" on lifecycle transitions.
type SweepEvent struct {
	Type  string      `json:"type"`
	Cell  *CellStatus `json:"cell,omitempty"`
	Sweep SweepStatus `json:"sweep"`
}

func (sw *Sweep) status() SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.statusLocked()
}

func (sw *Sweep) statusLocked() SweepStatus {
	return SweepStatus{
		ID:          sw.ID,
		State:       sw.state,
		Key:         sw.Key,
		Cells:       len(sw.cells),
		Completed:   sw.completed,
		Computed:    sw.computed,
		LocalHits:   sw.localHits,
		PeerHits:    sw.peerHits,
		Retries:     sw.retries,
		CacheHit:    sw.cacheHit,
		Error:       sw.err,
		SubmittedAt: sw.submitted,
		StartedAt:   sw.started,
		FinishedAt:  sw.finished,
	}
}

// detailStatus is status plus a copy of every cell's state.
func (sw *Sweep) detailStatus() SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := sw.statusLocked()
	st.CellStates = append([]CellStatus(nil), sw.cellStats...)
	return st
}

// State returns the sweep's lifecycle state.
func (sw *Sweep) State() State {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.state
}

// Result returns the aggregate result document (nil unless StateDone).
func (sw *Sweep) Result() []byte {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.result
}

// broadcastLocked fans an event to subscribers; callers hold sw.mu.
func (sw *Sweep) broadcastLocked(ev SweepEvent) {
	for _, ch := range sw.subs {
		select {
		case ch <- ev:
		default: // subscriber stalled; it resyncs from the next event
		}
	}
}

// subscribe registers an event listener primed with the current snapshot.
func (sw *Sweep) subscribe() (<-chan SweepEvent, func()) {
	ch := make(chan SweepEvent, 256)
	sw.mu.Lock()
	if sw.subs == nil {
		sw.subs = make(map[int]chan SweepEvent)
	}
	id := sw.nextSub
	sw.nextSub++
	sw.subs[id] = ch
	ch <- SweepEvent{Type: "sweep", Sweep: sw.statusLocked()}
	sw.mu.Unlock()
	return ch, func() {
		sw.mu.Lock()
		delete(sw.subs, id)
		sw.mu.Unlock()
	}
}

// cellRunning marks a cell dispatched/executing.
func (sw *Sweep) cellRunning(i int) {
	sw.mu.Lock()
	sw.cellStats[i].State = StateRunning
	sw.mu.Unlock()
}

// cellDone records a completed cell, its source and the worker that
// supplied it, then broadcasts a "cell" event.
func (sw *Sweep) cellDone(i int, source, worker string) {
	sw.mu.Lock()
	cs := &sw.cellStats[i]
	cs.State = StateDone
	cs.Source = source
	cs.Worker = worker
	sw.completed++
	switch source {
	case CellSourceComputed:
		sw.computed++
	case CellSourceCache:
		sw.localHits++
	case CellSourcePeerCache:
		sw.peerHits++
	}
	snap := *cs
	sw.broadcastLocked(SweepEvent{Type: "cell", Cell: &snap, Sweep: sw.statusLocked()})
	sw.mu.Unlock()
}

// cellRetried counts one retry-on-worker-loss for the status page.
func (sw *Sweep) cellRetried(i int) {
	sw.mu.Lock()
	sw.cellStats[i].State = StateQueued
	sw.retries++
	sw.mu.Unlock()
}

// setState transitions the sweep, refusing to leave a terminal state, and
// broadcasts a "sweep" event. Reports whether the transition happened.
func (sw *Sweep) setState(st State, apply func(*Sweep)) bool {
	sw.mu.Lock()
	if sw.state.Terminal() {
		sw.mu.Unlock()
		return false
	}
	sw.state = st
	if apply != nil {
		apply(sw)
	}
	sw.broadcastLocked(SweepEvent{Type: "sweep", Sweep: sw.statusLocked()})
	sw.mu.Unlock()
	return true
}

// SweepResult is the aggregate document of GET /api/v1/sweeps/{id}/result:
// every cell's request, content address and canonical result bytes in
// expansion order. Marshaling is deterministic, and each embedded Result
// is exactly the bytes the jobs API (and the serial CLI path) produce for
// that cell — so the whole document is byte-identical no matter where or
// in what order the cells ran, which cells were cache- or peer-filled,
// and how many workers the fleet had.
type SweepResult struct {
	V     int               `json:"v"`
	Key   string            `json:"key"`
	Cells []SweepCellResult `json:"cells"`
}

// SweepCellResult is one cell of the aggregate document.
type SweepCellResult struct {
	Index   int             `json:"index"`
	Key     string          `json:"key"`
	Request JobRequest      `json:"request"`
	Result  json.RawMessage `json:"result"`
}

// MarshalSweepResult renders the aggregate document from per-cell result
// bytes indexed like cells.
func MarshalSweepResult(key string, cells []SweepCell, results [][]byte) ([]byte, error) {
	out := SweepResult{V: scenario.CanonicalVersion, Key: key, Cells: make([]SweepCellResult, len(cells))}
	for i, c := range cells {
		out.Cells[i] = SweepCellResult{Index: c.Index, Key: c.Key, Request: c.Req, Result: results[i]}
	}
	return json.Marshal(out)
}

// sweepExecutor obtains every cell's canonical result bytes. The local
// executor computes on this process; the fleet executor shards across
// remote workers. Implementations report per-cell progress through sw's
// cell hooks and must return results indexed like sw.cells.
type sweepExecutor interface {
	runSweep(ctx context.Context, sw *Sweep) ([][]byte, error)
}

// SubmitSweep validates, expands and admits one sweep. The error is
// non-nil only for OutcomeInvalid. Admitted sweeps begin executing
// immediately on their own goroutine; intake is bounded by QueueDepth
// concurrently-running sweeps.
func (s *Server) SubmitSweep(req SweepRequest) (*Sweep, Outcome, error) {
	cells, err := req.Cells()
	if err != nil {
		s.mRejected.Inc("invalid")
		return nil, OutcomeInvalid, err
	}
	key := SweepKey(cells)
	timeout := req.jobTimeout(s.opts)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.mRejected.Inc("draining")
		return nil, OutcomeDraining, nil
	}
	// Whole-sweep memoization: an identical grid resubmission is served
	// from the result cache without touching a single cell.
	if cached, ok := s.cache.Get(sweepCacheKey(key)); ok {
		sw := s.newSweepLocked(key, cells, timeout)
		sw.state = StateDone
		sw.cacheHit = true
		sw.result = cached
		sw.finished = sw.submitted
		for i := range sw.cellStats {
			sw.cellStats[i].State = StateDone
			sw.cellStats[i].Source = CellSourceCache
		}
		sw.completed = len(cells)
		sw.localHits = len(cells)
		s.registerSweepLocked(sw)
		s.mSweepsSubmitted.Inc()
		s.mCacheHits.Inc()
		s.mSweepsTerminal.Inc(string(StateDone))
		return sw, OutcomeCacheHit, nil
	}
	running := 0
	for _, id := range s.sweepOrder {
		if !s.sweeps[id].State().Terminal() {
			running++
		}
	}
	if running >= s.opts.QueueDepth {
		s.mRejected.Inc("queue_full")
		return nil, OutcomeQueueFull, nil
	}
	sw := s.newSweepLocked(key, cells, timeout)
	sw.state = StateQueued
	s.registerSweepLocked(sw)
	s.mSweepsSubmitted.Inc()
	s.wg.Add(1)
	go s.runSweep(sw)
	return sw, OutcomeAccepted, nil
}

// jobTimeout resolves the per-cell deadline like JobRequest.Timeout.
func (sr SweepRequest) jobTimeout(opts Options) time.Duration {
	jr := JobRequest{TimeoutSec: sr.TimeoutSec}
	return jr.Timeout(opts.DefaultTimeout, opts.MaxTimeout)
}

// sweepCacheKey namespaces sweep documents inside the shared result
// cache. Cell results are stored under bare canonical keys; the prefix
// keeps the two address spaces disjoint.
func sweepCacheKey(key string) string { return "sweep:" + key }

func (s *Server) newSweepLocked(key string, cells []SweepCell, timeout time.Duration) *Sweep {
	s.nextSweepID++
	sw := &Sweep{
		ID:        fmt.Sprintf("sweep-%d", s.nextSweepID),
		Key:       key,
		cells:     cells,
		timeout:   timeout,
		submitted: time.Now().UTC(),
		cellStats: make([]CellStatus, len(cells)),
	}
	for i, c := range cells {
		sw.cellStats[i] = CellStatus{Index: i, Key: c.Key, State: StateQueued}
	}
	return sw
}

func (s *Server) registerSweepLocked(sw *Sweep) {
	s.sweeps[sw.ID] = sw
	s.sweepOrder = append(s.sweepOrder, sw.ID)
}

// Sweep looks up a sweep by ID.
func (s *Server) Sweep(id string) (*Sweep, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	return sw, ok
}

// SweepStatuses snapshots every sweep in submission order.
func (s *Server) SweepStatuses() []SweepStatus {
	s.mu.Lock()
	sweeps := make([]*Sweep, len(s.sweepOrder))
	for i, id := range s.sweepOrder {
		sweeps[i] = s.sweeps[id]
	}
	s.mu.Unlock()
	out := make([]SweepStatus, len(sweeps))
	for i, sw := range sweeps {
		out[i] = sw.status()
	}
	return out
}

// CancelSweep requests cancellation of a running sweep. Returns false if
// the sweep is unknown or already terminal.
func (s *Server) CancelSweep(id string) bool {
	s.mu.Lock()
	sw, ok := s.sweeps[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	sw.mu.Lock()
	cancel := sw.cancel
	terminal := sw.state.Terminal()
	sw.mu.Unlock()
	if terminal || cancel == nil {
		return false
	}
	cancel(errCanceledByUser)
	return true
}

// runSweep drives one sweep to a terminal state on its own goroutine.
func (s *Server) runSweep(sw *Sweep) {
	defer s.wg.Done()
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	defer cancel(nil)
	if !sw.setState(StateRunning, func(sw *Sweep) {
		sw.started = time.Now().UTC()
		sw.cancel = cancel
	}) {
		return
	}
	s.mSweepsRunning.Inc()
	results, err := s.sweepExec.runSweep(ctx, sw)
	s.mSweepsRunning.Dec()
	if err != nil {
		state, msg := classifySweepError(ctx, err)
		s.finishSweep(sw, state, msg, nil)
		return
	}
	body, err := MarshalSweepResult(sw.Key, sw.cells, results)
	if err != nil {
		s.finishSweep(sw, StateFailed, fmt.Sprintf("marshal sweep result: %v", err), nil)
		return
	}
	s.cache.Put(sweepCacheKey(sw.Key), body)
	s.finishSweep(sw, StateDone, "", body)
}

// classifySweepError maps an executor error to a terminal state, mirroring
// classifyRunError's cancel/shutdown/deadline distinctions.
func classifySweepError(ctx context.Context, err error) (State, string) {
	if errors.Is(err, scenario.ErrCanceled) || errors.Is(err, context.Canceled) {
		cause := context.Cause(ctx)
		switch {
		case errors.Is(cause, errCanceledByUser):
			return StateCanceled, "canceled by client"
		case errors.Is(cause, errShutdown):
			return StateCanceled, "server shutting down"
		case cause != nil && !errors.Is(cause, context.Canceled):
			return StateCanceled, cause.Error()
		}
		return StateCanceled, err.Error()
	}
	return StateFailed, err.Error()
}

func (s *Server) finishSweep(sw *Sweep, state State, msg string, result []byte) {
	if !sw.setState(state, func(sw *Sweep) {
		sw.err = msg
		sw.result = result
		sw.finished = time.Now().UTC()
		sw.cancel = nil
	}) {
		return
	}
	s.mSweepsTerminal.Inc(string(state))
}

// localSweepExecutor computes cells on this process: result cache first,
// then the same engine call path jobs use. Cells sharing a canonical key
// are computed once; the worker-pool fan-out is bounded by Options.Workers.
type localSweepExecutor struct{ s *Server }

func (l localSweepExecutor) runSweep(ctx context.Context, sw *Sweep) ([][]byte, error) {
	s := l.s
	results := make([][]byte, len(sw.cells))

	// Group cells by canonical key: no cell is computed twice per sweep,
	// however the grid was phrased.
	byKey := make(map[string][]int)
	var keyOrder []string
	for i, c := range sw.cells {
		if _, seen := byKey[c.Key]; !seen {
			keyOrder = append(keyOrder, c.Key)
		}
		byKey[c.Key] = append(byKey[c.Key], i)
	}

	workers := s.opts.Workers
	if workers > len(keyOrder) {
		workers = len(keyOrder)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int
	)
	poolCtx, cancelPool := context.WithCancelCause(ctx)
	defer cancelPool(nil)
	takeKey := func() (string, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(keyOrder) || firstErr != nil {
			return "", false
		}
		k := keyOrder[next]
		next++
		return k, true
	}
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancelPool(err)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if poolCtx.Err() != nil {
					return
				}
				key, ok := takeKey()
				if !ok {
					return
				}
				idxs := byKey[key]
				for _, i := range idxs {
					sw.cellRunning(i)
				}
				body, source, err := l.execCell(poolCtx, sw, &sw.cells[idxs[0]])
				if err != nil {
					fail(err)
					return
				}
				mu.Lock()
				for _, i := range idxs {
					results[i] = body
				}
				mu.Unlock()
				for _, i := range idxs {
					s.mFleetCells.Inc(source)
					sw.cellDone(i, source, "")
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// execCell resolves one cell: result cache first, then a real engine run
// under the sweep's per-cell deadline. The returned bytes are exactly
// what the jobs API would serve for the same canonical key.
func (l localSweepExecutor) execCell(ctx context.Context, sw *Sweep, c *SweepCell) ([]byte, string, error) {
	s := l.s
	if cached, ok := s.cache.Get(c.Key); ok {
		return cached, CellSourceCache, nil
	}
	tctx, tcancel := context.WithTimeoutCause(ctx, sw.timeout, context.DeadlineExceeded)
	defer tcancel()
	s.mRuns.Inc(channelLabel(c.cfg), policyLabel(c.cfg))
	agg, err := s.runFn(tctx, c.cfg, c.reps, s.opts.SimWorkers)
	if err != nil {
		if errors.Is(err, scenario.ErrCanceled) {
			if errors.Is(context.Cause(tctx), context.DeadlineExceeded) {
				return nil, "", fmt.Errorf("cell %d (%s): cell deadline exceeded", c.Index, c.Key)
			}
			// Plain cancellation: surface it untouched so the sweep-level
			// cause (user cancel vs shutdown) decides the terminal message.
			return nil, "", err
		}
		return nil, "", fmt.Errorf("cell %d (%s): %w", c.Index, c.Key, err)
	}
	body, err := MarshalResult(c.Key, c.reps, agg)
	if err != nil {
		return nil, "", fmt.Errorf("cell %d (%s): marshal result: %w", c.Index, c.Key, err)
	}
	s.cache.Put(c.Key, body)
	return body, CellSourceComputed, nil
}
