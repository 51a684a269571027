// Package trace provides packet-lifecycle tracing for simulations: a
// compact event type keyed by packet UID and node ID, composable sinks
// (ring buffer, NDJSON writer, in-memory recorder, filters, fan-out) and
// counters. The scenario package threads a configured sink through every
// layer — routing (originate/forward/deliver/drop/salvage, cache
// insert/evict), MAC (enqueue, ATIM advertisements, the overhearing
// lottery, sleep/wake transitions) and PHY (loss classification) — so a
// packet's whole life can be reconstructed. Tooling (cmd/rcast-sim
// -trace, cmd/rcast-bench -trace, tools/tracediff) renders and diffs the
// streams for debugging protocol behaviour.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"rcast/internal/phy"
	"rcast/internal/sim"
)

// Kind classifies an event. Custom kinds must be plain printable ASCII
// without quotes or backslashes: Writer emits them unescaped.
type Kind string

// Event kinds emitted by the scenario wiring.
const (
	// Routing-level lifecycle.
	KindOriginate  Kind = "originate"   // application packet enters the network
	KindDeliver    Kind = "deliver"     // end-to-end delivery
	KindForward    Kind = "forward"     // data packet relayed
	KindDrop       Kind = "drop"        // data packet lost (Detail = reason)
	KindSalvage    Kind = "salvage"     // data packet re-routed after a link failure
	KindControl    Kind = "control"     // routing control transmission (Detail = class)
	KindCache      Kind = "cache"       // route cache insertion (Detail = route)
	KindCacheEvict Kind = "cache-evict" // route cache capacity eviction (Detail = route)

	// MAC-level lifecycle (PSM family).
	KindEnqueue Kind = "enqueue" // packet queued at the MAC (Detail = dst/class)
	KindAtim    Kind = "atim"    // ATIM advertisement sent (Detail = dst/level)
	KindLottery Kind = "lottery" // overhearing lottery outcome (Detail = from/level/verdict)
	KindWake    Kind = "wake"    // station woke for a beacon's ATIM window
	KindSleep   Kind = "sleep"   // station dozed for a data phase

	// PHY-level loss classification.
	KindPhyDrop Kind = "phy-drop" // frame lost at a receiver (Detail = reason + endpoints)

	// Node lifecycle.
	KindDeath   Kind = "death"   // battery depletion
	KindCrash   Kind = "crash"   // fault-injected node crash (Detail = flushed count)
	KindRecover Kind = "recover" // fault-injected crash recovery
)

// Event is one traced occurrence. Seq is a per-run sequence number
// assigned by the emitting world in scheduler order, so two traces of the
// same configuration align event-for-event and the first differing Seq is
// the first divergence. Pkt, when the event concerns one application data
// packet, is its UID "src:flow:seq" — the same identity the invariant
// auditor uses — so one grep reconstructs a packet's life.
type Event struct {
	Seq    uint64     `json:"seq"`
	At     sim.Time   `json:"atMicros"`
	Node   phy.NodeID `json:"node"`
	Kind   Kind       `json:"kind"`
	Pkt    string     `json:"pkt,omitempty"`
	Detail string     `json:"detail,omitempty"`
}

// PacketUID renders the end-to-end identity of an application data packet
// (source node, flow, per-source sequence number). Built with strconv
// rather than fmt: this runs once per traced routing event and sits on
// the enabled-tracing hot path.
func PacketUID(src phy.NodeID, flow, seq uint64) string {
	b := make([]byte, 0, 24)
	b = strconv.AppendInt(b, int64(src), 10)
	b = append(b, ':')
	b = strconv.AppendUint(b, flow, 10)
	b = append(b, ':')
	b = strconv.AppendUint(b, seq, 10)
	return string(b)
}

// String renders the event for humans.
func (e Event) String() string {
	s := fmt.Sprintf("%12.6fs %-5v %-9s", e.At.Seconds(), e.Node, e.Kind)
	if e.Pkt != "" {
		s += " pkt=" + e.Pkt
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Sink consumes events.
type Sink interface {
	Emit(e Event)
}

// Nop discards all events.
type Nop struct{}

var _ Sink = Nop{}

// Emit implements Sink.
func (Nop) Emit(Event) {}

// Ring keeps the most recent Cap events in memory.
type Ring struct {
	cap    int
	events []Event
	start  int
	total  uint64
}

var _ Sink = (*Ring)(nil)

// NewRing creates a ring buffer holding up to cap events (min 1).
func NewRing(cap int) *Ring {
	if cap < 1 {
		cap = 1
	}
	return &Ring{cap: cap}
}

// Emit implements Sink.
func (r *Ring) Emit(e Event) {
	r.total++
	if len(r.events) < r.cap {
		r.events = append(r.events, e)
		return
	}
	r.events[r.start] = e
	r.start = (r.start + 1) % r.cap
}

// Total returns how many events were emitted (including evicted ones).
func (r *Ring) Total() uint64 { return r.total }

// Events returns the retained events oldest-first.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.start:]...)
	out = append(out, r.events[:r.start]...)
	return out
}

// Recorder retains every emitted event in order — the sink tracediff and
// the golden-trace tests run simulations into. Unlike Ring it is
// unbounded; use it only for runs whose volume is known to fit in memory.
type Recorder struct {
	events []Event
}

var _ Sink = (*Recorder)(nil)

// NewRecorder creates an unbounded recording sink.
func NewRecorder() *Recorder { return &Recorder{} }

// Emit implements Sink.
func (r *Recorder) Emit(e Event) { r.events = append(r.events, e) }

// Events returns the recorded events in emission order. The returned
// slice is the recorder's backing store; do not mutate it.
func (r *Recorder) Events() []Event { return r.events }

// Writer streams events as newline-delimited JSON. The encoder is
// hand-rolled over a reused buffer instead of encoding/json: a full-rate
// trace emits one line per MAC/PHY event and reflective marshalling
// dominated the enabled-tracing overhead. The output is byte-identical
// to what encoding/json produced for these events (ReadEvents accepts
// both, and the golden-trace test pins the bytes).
type Writer struct {
	w   io.Writer
	buf []byte

	// Timestamp render cache: consecutive events frequently share a
	// scheduler instant (every station waking at one beacon tick), so the
	// decimal rendering of At is reused until the clock moves. atCached
	// (not a sentinel At value) marks validity: FuzzReadEvents caught a
	// first event at At == -1 colliding with a -1 sentinel and emitting
	// an empty timestamp.
	lastAt    sim.Time
	lastAtBuf []byte
	atCached  bool
}

var _ Sink = (*Writer)(nil)

// NewWriter creates an NDJSON sink.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, 256)}
}

// Emit implements Sink. Encoding errors are deliberately swallowed: a
// tracing sink must never perturb the simulation.
func (t *Writer) Emit(e Event) {
	if !t.atCached || e.At != t.lastAt {
		t.lastAt = e.At
		t.atCached = true
		t.lastAtBuf = strconv.AppendInt(t.lastAtBuf[:0], int64(e.At), 10)
	}
	b := t.buf[:0]
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"atMicros":`...)
	b = append(b, t.lastAtBuf...)
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, int64(e.Node), 10)
	// Kinds are package constants and never need escaping.
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind...)
	b = append(b, '"')
	if e.Pkt != "" {
		b = append(b, `,"pkt":`...)
		b = appendJSONString(b, e.Pkt)
	}
	if e.Detail != "" {
		b = append(b, `,"detail":`...)
		b = appendJSONString(b, e.Detail)
	}
	b = append(b, '}', '\n')
	t.buf = b
	_, _ = t.w.Write(b)
}

// appendJSONString appends s as a JSON string. Every string the tracer
// emits is plain ASCII without quotes or backslashes, so the fast path is
// a straight copy; anything else (including <, > and & so the bytes match
// encoding/json's HTML-escaping default) defers to encoding/json.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7E || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, err := json.Marshal(s)
			if err != nil {
				return append(b, `""`...)
			}
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// ErrTruncated marks a trace whose final line was cut mid-write — the
// common shape of a crashed or killed producer. ReadEvents returns it
// (wrapped, with the line number) alongside every event parsed before the
// cut, so callers can salvage the prefix: errors.Is(err, ErrTruncated).
var ErrTruncated = errors.New("truncated final line")

// wireEvent mirrors Event with a lazily-decoded detail field, so a
// malformed detail (wrong JSON type, e.g. a bare number from a sloppy
// producer) degrades to its raw text instead of aborting the parse.
type wireEvent struct {
	Seq    uint64          `json:"seq"`
	At     sim.Time        `json:"atMicros"`
	Node   phy.NodeID      `json:"node"`
	Kind   Kind            `json:"kind"`
	Pkt    string          `json:"pkt,omitempty"`
	Detail json.RawMessage `json:"detail,omitempty"`
}

// parseLine decodes one NDJSON line into an Event.
func parseLine(b []byte) (Event, error) {
	var w wireEvent
	if err := json.Unmarshal(b, &w); err != nil {
		return Event{}, err
	}
	e := Event{Seq: w.Seq, At: w.At, Node: w.Node, Kind: w.Kind, Pkt: w.Pkt}
	if len(w.Detail) > 0 {
		if w.Detail[0] == '"' {
			// A well-formed JSON string (the outer unmarshal already
			// validated it) — unquote.
			if err := json.Unmarshal(w.Detail, &e.Detail); err != nil {
				e.Detail = strings.ToValidUTF8(string(w.Detail), "�")
			}
		} else if !bytes.Equal(w.Detail, []byte("null")) {
			// Wrong type (number, bool, object…): keep the raw token so
			// the event survives and the oddity stays visible. Invalid
			// UTF-8 inside the token is coerced to U+FFFD — json.Marshal
			// does that anyway on write-out, so sanitizing here keeps
			// read→write→read byte-stable.
			e.Detail = strings.ToValidUTF8(string(w.Detail), "�")
		}
	}
	return e, nil
}

// ReadEvents parses an NDJSON stream as produced by Writer. Blank and
// whitespace-only lines are skipped and there is no line-length cap (a
// Detail field can legally be arbitrarily long). The first malformed line
// aborts with its line number — except a final line cut off without its
// newline, which returns every event parsed so far plus a wrapped
// ErrTruncated, so a trace from a crashed producer yields its usable
// prefix instead of nothing.
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	br := bufio.NewReaderSize(r, 64*1024)
	line := 0
	for {
		b, err := br.ReadBytes('\n')
		atEOF := err == io.EOF
		if err != nil && !atEOF {
			return out, fmt.Errorf("trace: read: %w", err)
		}
		if len(b) > 0 {
			line++
		}
		b = bytes.TrimSpace(b)
		if len(b) > 0 {
			e, perr := parseLine(b)
			if perr != nil {
				if atEOF {
					// The producer died mid-line: salvage the prefix.
					return out, fmt.Errorf("trace: line %d: %w", line, ErrTruncated)
				}
				return out, fmt.Errorf("trace: line %d: %w", line, perr)
			}
			out = append(out, e)
		}
		if atEOF {
			return out, nil
		}
	}
}

// Filter passes only events the predicate accepts.
type Filter struct {
	Next Sink
	Keep func(Event) bool
}

var _ Sink = Filter{}

// Emit implements Sink.
func (f Filter) Emit(e Event) {
	if f.Next == nil || (f.Keep != nil && !f.Keep(e)) {
		return
	}
	f.Next.Emit(e)
}

// Multi fans events out to several sinks.
type Multi []Sink

var _ Sink = Multi{}

// Emit implements Sink.
func (m Multi) Emit(e Event) {
	for _, s := range m {
		if s != nil {
			s.Emit(e)
		}
	}
}

// Counter tallies events by kind.
type Counter struct {
	counts map[Kind]uint64
}

var _ Sink = (*Counter)(nil)

// NewCounter creates a counting sink.
func NewCounter() *Counter {
	return &Counter{counts: make(map[Kind]uint64)}
}

// Emit implements Sink.
func (c *Counter) Emit(e Event) { c.counts[e.Kind]++ }

// Count returns the tally for one kind.
func (c *Counter) Count(k Kind) uint64 { return c.counts[k] }

// Snapshot returns a copy of every non-zero tally.
func (c *Counter) Snapshot() map[Kind]uint64 {
	out := make(map[Kind]uint64, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

// SyncCounter is a Counter safe for concurrent Emit/Count/Snapshot — the
// sink rcast-serve hangs off running traced jobs, where the simulation
// goroutine emits while HTTP handlers read tallies.
type SyncCounter struct {
	mu     sync.Mutex
	counts map[Kind]uint64
}

var _ Sink = (*SyncCounter)(nil)

// NewSyncCounter creates a concurrency-safe counting sink.
func NewSyncCounter() *SyncCounter {
	return &SyncCounter{counts: make(map[Kind]uint64)}
}

// Emit implements Sink.
func (c *SyncCounter) Emit(e Event) {
	c.mu.Lock()
	c.counts[e.Kind]++
	c.mu.Unlock()
}

// Count returns the tally for one kind.
func (c *SyncCounter) Count(k Kind) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[k]
}

// Snapshot returns a copy of every non-zero tally.
func (c *SyncCounter) Snapshot() map[Kind]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[Kind]uint64, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

// Divergence locates the first difference between two event streams.
type Divergence struct {
	Index int    // 0-based position of the first differing event
	A, B  *Event // nil when that side's stream ended first
}

// Sides renders both sides' events at the divergence, "<end of trace>"
// for a side whose stream ended first.
func (d Divergence) Sides() (a, b string) { return eventOrEnd(d.A), eventOrEnd(d.B) }

func eventOrEnd(e *Event) string {
	if e == nil {
		return "<end of trace>"
	}
	return e.String()
}

// Diff compares two traces event-for-event and returns the first
// divergence; ok is false when the streams are identical. Events are
// compared in full — sequence number, time, node, kind, packet UID and
// detail — so any behavioural difference between two runs surfaces at
// the earliest event it touches. tools/tracediff, tools/tracegate and
// the replay engine all report through this one comparison.
func Diff(a, b []Event) (Divergence, bool) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return Divergence{Index: i, A: &a[i], B: &b[i]}, true
		}
	}
	if len(a) == len(b) {
		return Divergence{}, false
	}
	d := Divergence{Index: n}
	if len(a) > n {
		d.A = &a[n]
	}
	if len(b) > n {
		d.B = &b[n]
	}
	return d, true
}
