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
	"math/big"
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

// maxSweepCells caps the cells one sweep may expand to. A grid's cell
// count is the product of its axis lengths, so a small body can name an
// astronomically large grid; the cap refuses it before any cell is built.
const maxSweepCells = 10_000

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
	n := big.NewInt(1)
	for _, a := range axes {
		n.Mul(n, big.NewInt(int64(len(a.values))))
	}
	if n.Cmp(big.NewInt(maxSweepCells)) > 0 {
		return nil, fmt.Errorf("serve: sweep expands to %s cells, more than the %d allowed", n, maxSweepCells)
	}
	cells := make([]SweepCell, 0, n.Int64())
	for i := range int(n.Int64()) {
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

// sweepEventBuffer is a sweep subscriber's channel buffer: room for a
// "cell" event per cell of a typical grid, so a briefly slow reader does
// not miss completions.
const sweepEventBuffer = 256

// Sweep is one admitted sweep: the shared lifecycle plus an expanded grid
// executing as a unit. cells, unique and timeout are set once at
// admission; the cell states and counters are guarded by mu.
type Sweep struct {
	lifecycle[SweepEvent]

	cells []SweepCell
	// unique groups the cells by canonical key, in first-appearance
	// order: unique[u] lists every cell index sharing one key. Executors
	// resolve each group once, through its first cell, and the cell hooks
	// fan a group's state out to all of its indices.
	unique  [][]int
	timeout time.Duration

	// A resolved cell counts under exactly one source, so Completed is
	// their sum.
	cellStats []CellStatus
	computed  int
	localHits int
	peerHits  int
	retries   int
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

// frame names the SSE frame by the event type; the terminal "sweep" event
// is the last.
func (ev SweepEvent) frame() (string, bool) {
	return ev.Type, ev.Type == "sweep" && ev.Sweep.State.Terminal()
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
		Completed:   sw.computed + sw.localHits + sw.peerHits,
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

// cellRunning marks every cell of unique group u dispatched/executing.
func (sw *Sweep) cellRunning(u int) {
	sw.mu.Lock()
	for _, i := range sw.unique[u] {
		sw.cellStats[i].State = StateRunning
	}
	sw.mu.Unlock()
}

// cellRetried requeues every cell of unique group u after a worker loss,
// counting one retry per cell for the status page.
func (sw *Sweep) cellRetried(u int) {
	sw.mu.Lock()
	for _, i := range sw.unique[u] {
		sw.cellStats[i].State = StateQueued
		sw.retries++
	}
	sw.mu.Unlock()
}

// resolved records every cell of unique group u of sw as done, with the
// source and the worker that supplied it: each is counted on the
// fleet-cells metric and broadcast as one "cell" event.
func (s *Server) resolved(sw *Sweep, u int, source, worker string) {
	s.mFleetCells.Add(int64(len(sw.unique[u])), source)
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for _, i := range sw.unique[u] {
		cs := &sw.cellStats[i]
		cs.State = StateDone
		cs.Source = source
		cs.Worker = worker
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
	}
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

// sweepExecutor obtains the canonical result bytes of every unique group
// of a sweep (Sweep.unique). The local executor computes on this process;
// the fleet executor shards across remote workers. Implementations report
// progress through the per-group cell hooks and must return results
// indexed like sw.unique.
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
	timeout := JobRequest{TimeoutSec: req.TimeoutSec}.Timeout(s.opts.DefaultTimeout, s.opts.MaxTimeout)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.mRejected.Inc("draining")
		return nil, OutcomeDraining, nil
	}
	// Whole-sweep memoization: an identical grid resubmission is served
	// from the result cache without touching a single cell.
	if cached, ok := s.cache.Get(sweepCacheKey(key)); ok {
		sw := s.newSweep(key, cells, timeout)
		sw.servedFromCache(cached)
		for i := range sw.cellStats {
			sw.cellStats[i].State = StateDone
			sw.cellStats[i].Source = CellSourceCache
		}
		sw.localHits = len(cells)
		s.sweeps.add(sw)
		s.mSweepsSubmitted.Inc()
		s.mCacheHits.Inc()
		return sw, OutcomeCacheHit, nil
	}
	if s.sweeps.live() >= s.opts.QueueDepth {
		s.mRejected.Inc("queue_full")
		return nil, OutcomeQueueFull, nil
	}
	sw := s.newSweep(key, cells, timeout)
	s.sweeps.add(sw)
	s.mSweepsSubmitted.Inc()
	s.wg.Add(1)
	go s.runSweep(sw)
	return sw, OutcomeAccepted, nil
}

// sweepCacheKey namespaces sweep documents inside the shared result
// cache. Cell results are stored under bare canonical keys; the prefix
// keeps the two address spaces disjoint.
func sweepCacheKey(key string) string { return "sweep:" + key }

// newSweep builds a queued sweep.
func (s *Server) newSweep(key string, cells []SweepCell, timeout time.Duration) *Sweep {
	sw := &Sweep{cells: cells, timeout: timeout, cellStats: make([]CellStatus, len(cells))}
	sw.init(key, func() SweepEvent {
		return SweepEvent{Type: "sweep", Sweep: sw.statusLocked()}
	}, s.sweeps.done)
	group := make(map[string]int)
	for i, c := range cells {
		sw.cellStats[i] = CellStatus{Index: i, Key: c.Key, State: StateQueued}
		u, seen := group[c.Key]
		if !seen {
			u = len(sw.unique)
			group[c.Key] = u
			sw.unique = append(sw.unique, nil)
		}
		sw.unique[u] = append(sw.unique[u], i)
	}
	return sw
}

// SweepStatuses snapshots every sweep in submission order.
func (s *Server) SweepStatuses() []SweepStatus { return views(&s.sweeps, (*Sweep).status) }

// CancelSweep requests cancellation of a sweep (lifecycle.requestCancel);
// false if the sweep is unknown or already terminal.
func (s *Server) CancelSweep(id string) bool {
	sw, ok := s.sweeps.get(id)
	return ok && sw.requestCancel()
}

// runSweep drives one sweep to a terminal state on its own goroutine.
func (s *Server) runSweep(sw *Sweep) {
	defer s.wg.Done()
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	defer cancel(nil)
	if !sw.start(cancel) {
		return // canceled while queued; already terminal
	}
	s.mSweepsRunning.Inc()
	unique, err := s.sweepExec.runSweep(ctx, sw)
	s.mSweepsRunning.Dec()
	var body []byte
	if err == nil {
		results := make([][]byte, len(sw.cells))
		for u, idxs := range sw.unique {
			for _, i := range idxs {
				results[i] = unique[u]
			}
		}
		if body, err = MarshalSweepResult(sw.Key, sw.cells, results); err != nil {
			err = fmt.Errorf("marshal sweep result: %w", err)
		} else {
			s.cache.Put(sweepCacheKey(sw.Key), body)
		}
	}
	sw.finish(ctx, body, err)
}

// localSweepExecutor computes cells on this process: result cache first,
// then the same engine call path jobs use. Each unique group is computed
// once, on a scenario.ForEach pool bounded by Options.Workers.
type localSweepExecutor struct{ s *Server }

func (l localSweepExecutor) runSweep(ctx context.Context, sw *Sweep) ([][]byte, error) {
	results := make([][]byte, len(sw.unique))
	err := scenario.ForEach(ctx, l.s.opts.Workers, len(sw.unique), func(ctx context.Context, u int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		sw.cellRunning(u)
		body, source, err := l.execCell(ctx, sw, &sw.cells[sw.unique[u][0]])
		if err != nil {
			return err
		}
		results[u] = body
		l.s.resolved(sw, u, source, "")
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// execCell resolves one cell: result cache first, then compute under
// the sweep's per-cell deadline. The returned bytes are exactly what the
// jobs API would serve for the same canonical key.
func (l localSweepExecutor) execCell(ctx context.Context, sw *Sweep, c *SweepCell) ([]byte, string, error) {
	if cached, ok := l.s.cache.Get(c.Key); ok {
		return cached, CellSourceCache, nil
	}
	body, err := l.s.compute(ctx, c.Key, c.cfg, c.reps, sw.timeout, false)
	switch {
	case errors.Is(err, errDeadline):
		return nil, "", fmt.Errorf("cell %d (%s): cell deadline exceeded", c.Index, c.Key)
	case errors.Is(err, scenario.ErrCanceled):
		// Plain cancellation: surface it untouched so the sweep-level
		// cause (user cancel vs shutdown) decides the terminal message.
		return nil, "", err
	case err != nil:
		return nil, "", fmt.Errorf("cell %d (%s): %w", c.Index, c.Key, err)
	}
	return body, CellSourceComputed, nil
}
