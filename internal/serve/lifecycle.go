package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"rcast/internal/metrics/promtext"
	"rcast/internal/scenario"
)

// State is a job's or a sweep's lifecycle state.
type State string

// Lifecycle states. Queued and Running are transient; Done, Failed and
// Canceled are terminal. A cache-served job or sweep is born Done.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Cancellation causes, distinguishable via context.Cause so a user cancel
// and a server shutdown report different terminal messages; errDeadline
// is what compute returns when a run outlives its deadline.
var (
	errCanceledByUser = errors.New("serve: job canceled by client")
	errShutdown       = errors.New("serve: server shutting down")
	errDeadline       = errors.New("serve: deadline exceeded")
)

// sseEvent is an event a lifecycle's subscribers receive: its SSE frame
// name, and whether it is the last frame of the stream.
type sseEvent interface {
	frame() (name string, last bool)
}

// lifecycle is the state machine a Job and a Sweep share, from admission
// to a terminal state: the state, error text, timestamps, result bytes,
// cancel func and event subscribers. E is the event subscribers receive
// (Status for a job, SweepEvent for a sweep). ID and Key are set at
// admission (ID by registry.add) and never change; every other field is
// guarded by mu.
type lifecycle[E sseEvent] struct {
	ID  string
	Key string

	mu        sync.Mutex
	state     State
	err       string
	cacheHit  bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    []byte
	cancel    context.CancelCauseFunc
	subs      map[chan E]struct{}

	// event renders the current snapshot (mu held). terminal runs once,
	// outside mu, after a transition into a terminal state; a lifecycle
	// born terminal (a cache hit) never runs it.
	event    func() E
	terminal func(State)
}

// init starts a lifecycle queued at the current time.
func (l *lifecycle[E]) init(key string, event func() E, terminal func(State)) {
	l.Key, l.event, l.terminal = key, event, terminal
	l.state, l.submitted = StateQueued, time.Now().UTC()
}

// servedFromCache makes a just-initialized lifecycle born done with
// cached result bytes.
func (l *lifecycle[E]) servedFromCache(result []byte) {
	l.state, l.cacheHit, l.result, l.finished = StateDone, true, result, l.submitted
}

// name sets the ID the registry assigns.
func (l *lifecycle[E]) name(id string) { l.ID = id }

// State returns the current lifecycle state.
func (l *lifecycle[E]) State() State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state
}

// Result returns the stored result bytes (nil unless StateDone).
func (l *lifecycle[E]) Result() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.result
}

// transition moves a non-terminal lifecycle to state to — only from
// state from, unless from is "" — applies set under the same lock and
// broadcasts the new snapshot, then runs the terminal hook if to is
// terminal. It never leaves a terminal state, so a finish cannot
// overwrite a concurrent cancel, or the reverse. Reports whether the
// move happened.
func (l *lifecycle[E]) transition(from, to State, set func()) bool {
	l.mu.Lock()
	if l.state.Terminal() || (from != "" && l.state != from) {
		l.mu.Unlock()
		return false
	}
	l.state = to
	set()
	l.broadcastLocked(l.event())
	l.mu.Unlock()
	if to.Terminal() {
		l.terminal(to)
	}
	return true
}

// start moves a queued lifecycle to running under cancel; false means it
// was canceled while queued and must not run.
func (l *lifecycle[E]) start(cancel context.CancelCauseFunc) bool {
	return l.transition(StateQueued, StateRunning, func() {
		l.started = time.Now().UTC()
		l.cancel = cancel
	})
}

// end moves the lifecycle (from state from, or any non-terminal state if
// from is "") to terminal state to with its error text and result.
func (l *lifecycle[E]) end(from, to State, msg string, result []byte) bool {
	now := time.Now().UTC()
	return l.transition(from, to, func() {
		l.err, l.result, l.finished, l.cancel = msg, result, now, nil
	})
}

// finish ends a run that started under ctx: done with result, or the
// terminal state and message outcome assigns to err.
func (l *lifecycle[E]) finish(ctx context.Context, result []byte, err error) {
	state, msg := StateDone, ""
	if err != nil {
		state, msg = outcome(ctx, err)
	}
	l.end("", state, msg, result)
}

// requestCancel is the cancel rule of jobs and sweeps alike: a queued one
// is canceled on the spot (and never runs), a running one has its context
// canceled and stops at its next cooperative check. Reports false if the
// lifecycle is already terminal.
func (l *lifecycle[E]) requestCancel() bool {
	if l.end(StateQueued, StateCanceled, "canceled before start", nil) {
		return true
	}
	l.mu.Lock()
	cancel, running := l.cancel, l.state == StateRunning
	l.mu.Unlock()
	if running && cancel != nil {
		cancel(errCanceledByUser)
		return true
	}
	return false
}

// outcome maps a failed run to its terminal state and message, for jobs
// and sweeps alike: a client cancel and a server shutdown are canceled;
// an expired job deadline and every other error (a cell's error, a
// validation or audit failure) failed.
func outcome(ctx context.Context, err error) (State, string) {
	if errors.Is(err, errDeadline) {
		return StateFailed, "job deadline exceeded"
	}
	if !errors.Is(err, scenario.ErrCanceled) && !errors.Is(err, context.Canceled) {
		return StateFailed, err.Error()
	}
	switch cause := context.Cause(ctx); {
	case errors.Is(cause, errCanceledByUser):
		return StateCanceled, "canceled by client"
	case errors.Is(cause, errShutdown):
		return StateCanceled, "server shutting down"
	case cause != nil && !errors.Is(cause, context.Canceled):
		return StateCanceled, cause.Error()
	}
	return StateCanceled, err.Error()
}

// broadcastLocked fans an event out to subscribers; callers hold mu.
func (l *lifecycle[E]) broadcastLocked(ev E) {
	for ch := range l.subs {
		select {
		case ch <- ev:
		default: // subscriber stalled; it resyncs from the next event
		}
	}
}

// subscribe registers a listener whose channel, buffered to buf, first
// carries the current snapshot and then every later event; the second
// return value unsubscribes.
func (l *lifecycle[E]) subscribe(buf int) (<-chan E, func()) {
	ch := make(chan E, buf)
	l.mu.Lock()
	if l.subs == nil {
		l.subs = make(map[chan E]struct{})
	}
	l.subs[ch] = struct{}{}
	ch <- l.event()
	l.mu.Unlock()
	return ch, func() {
		l.mu.Lock()
		delete(l.subs, ch)
		l.mu.Unlock()
	}
}

// entry is what a registry needs of a Job or a Sweep, promoted from the
// lifecycle each embeds.
type entry interface {
	name(id string)
	State() State
}

// registry is the ID-ordered table of one kind of entry, jobs or sweeps.
// IDs run <prefix>-1, <prefix>-2, … in admission order, and only an
// added entry is named, so a rejected submission burns no ID. inFlight
// counts the entries not yet terminal, and states counts each entry
// once as it reaches its terminal state.
type registry[T entry] struct {
	prefix string
	states *promtext.Family

	mu       sync.Mutex
	byID     map[string]T
	order    []T
	inFlight int
}

// add names and records v: a non-terminal v counts as in flight until
// done, a v born terminal is counted on states at once.
func (r *registry[T]) add(v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byID == nil {
		r.byID = make(map[string]T)
	}
	id := fmt.Sprintf("%s-%d", r.prefix, len(r.order)+1)
	v.name(id)
	r.byID[id] = v
	r.order = append(r.order, v)
	if st := v.State(); st.Terminal() {
		r.states.Inc(string(st))
	} else {
		r.inFlight++
	}
}

// done records that one in-flight entry reached terminal state st.
func (r *registry[T]) done(st State) {
	r.mu.Lock()
	r.inFlight--
	r.mu.Unlock()
	r.states.Inc(string(st))
}

// live returns the number of entries not yet terminal.
func (r *registry[T]) live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inFlight
}

// get looks an entry up by ID.
func (r *registry[T]) get(id string) (T, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.byID[id]
	return v, ok
}

// views renders every entry of r through view, in admission order.
func views[T entry, V any](r *registry[T], view func(T) V) []V {
	r.mu.Lock()
	all := slices.Clone(r.order)
	r.mu.Unlock()
	out := make([]V, len(all))
	for i, v := range all {
		out[i] = view(v)
	}
	return out
}
