package trace

import (
	"errors"
	"strings"
	"testing"
)

// TestReadEventsTruncatedFinalLine pins the salvage behaviour for a
// producer killed mid-write: the complete prefix is returned and the
// error wraps ErrTruncated. The pre-hardening parser (bufio.Scanner +
// hard abort) returned nil events and a generic unmarshal error.
func TestReadEventsTruncatedFinalLine(t *testing.T) {
	in := `{"seq":1,"atMicros":100,"node":0,"kind":"wake"}
{"seq":2,"atMicros":200,"node":1,"kind":"sleep"}
{"seq":3,"atMicros":300,"node":2,"ki`
	evs, err := ReadEvents(strings.NewReader(in))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error does not locate the cut: %v", err)
	}
	if len(evs) != 2 || evs[0].Seq != 1 || evs[1].Kind != KindSleep {
		t.Fatalf("salvaged prefix = %+v, want the 2 complete events", evs)
	}
}

// TestReadEventsFinalLineNoNewline: a last line that is complete JSON but
// lacks its newline is a valid event, not a truncation.
func TestReadEventsFinalLineNoNewline(t *testing.T) {
	in := `{"seq":1,"atMicros":100,"node":0,"kind":"wake"}
{"seq":2,"atMicros":200,"node":1,"kind":"sleep"}`
	evs, err := ReadEvents(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[1].Seq != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
}

// TestReadEventsMalformedDetail: a detail field of the wrong JSON type
// degrades to its raw token instead of aborting the parse. The
// pre-hardening parser unmarshalled straight into Event and errored on
// the whole stream.
func TestReadEventsMalformedDetail(t *testing.T) {
	in := `{"seq":1,"atMicros":100,"node":0,"kind":"crash","detail":12345}
{"seq":2,"atMicros":200,"node":1,"kind":"drop","detail":{"reason":"ttl"}}
{"seq":3,"atMicros":300,"node":2,"kind":"wake","detail":null}
{"seq":4,"atMicros":400,"node":3,"kind":"sleep","detail":"doze"}
`
	evs, err := ReadEvents(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if evs[0].Detail != "12345" {
		t.Fatalf("numeric detail = %q, want raw token \"12345\"", evs[0].Detail)
	}
	if evs[1].Detail != `{"reason":"ttl"}` {
		t.Fatalf("object detail = %q, want raw token", evs[1].Detail)
	}
	if evs[2].Detail != "" {
		t.Fatalf("null detail = %q, want empty", evs[2].Detail)
	}
	if evs[3].Detail != "doze" {
		t.Fatalf("string detail = %q, want \"doze\"", evs[3].Detail)
	}
}

// TestReadEventsNoLineCap: the parser must accept lines far beyond the
// old 4MiB bufio.Scanner cap — Detail has no length contract. The
// pre-hardening parser failed with "token too long".
func TestReadEventsNoLineCap(t *testing.T) {
	detail := strings.Repeat("x", 5*1024*1024)
	in := `{"seq":1,"atMicros":100,"node":0,"kind":"drop","detail":"` + detail + "\"}\n"
	evs, err := ReadEvents(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || len(evs[0].Detail) != len(detail) {
		t.Fatalf("oversized line did not round-trip")
	}
}

// TestReadEventsWhitespaceLines: lines of spaces/tabs/CR are skipped the
// same way blank lines are, and line numbers in errors still count
// physical lines.
func TestReadEventsWhitespaceLines(t *testing.T) {
	in := "  \t \r\n{\"seq\":1,\"atMicros\":1,\"node\":0,\"kind\":\"wake\"}\r\n   \nnope\n"
	evs, err := ReadEvents(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("err = %v, want a line-4 parse error", err)
	}
	if len(evs) != 1 || evs[0].Seq != 1 {
		t.Fatalf("parsed prefix = %+v, want the one good event", evs)
	}
}

// TestWriterFirstEventAtMinusOne pins a FuzzReadEvents find: the
// timestamp render cache used lastAt == -1 as its "empty" sentinel, so a
// first event at At == -1 reused the uninitialized (empty) buffer and
// emitted `"atMicros":,` — invalid JSON.
func TestWriterFirstEventAtMinusOne(t *testing.T) {
	var buf strings.Builder
	w := NewWriter(&buf)
	w.Emit(Event{Seq: 1, At: -1, Node: 0, Kind: KindWake})
	evs, err := ReadEvents(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("writer output unparseable: %v\n%s", err, buf.String())
	}
	if len(evs) != 1 || evs[0].At != -1 {
		t.Fatalf("round trip = %+v", evs)
	}
}

func TestCounterSnapshot(t *testing.T) {
	c := NewCounter()
	c.Emit(Event{Kind: KindDeliver})
	c.Emit(Event{Kind: KindDeliver})
	c.Emit(Event{Kind: KindDrop})
	snap := c.Snapshot()
	if snap[KindDeliver] != 2 || snap[KindDrop] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	snap[KindDeliver] = 99 // must be a copy
	if c.Count(KindDeliver) != 2 {
		t.Fatal("Snapshot aliases the counter's map")
	}
}

func TestSyncCounter(t *testing.T) {
	c := NewSyncCounter()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			c.Emit(Event{Kind: KindDeliver})
		}
		close(done)
	}()
	for i := 0; i < 1000; i++ {
		c.Emit(Event{Kind: KindDrop})
		_ = c.Snapshot()
	}
	<-done
	if c.Count(KindDeliver) != 1000 || c.Count(KindDrop) != 1000 {
		t.Fatalf("counts = %d/%d", c.Count(KindDeliver), c.Count(KindDrop))
	}
}

func TestDiff(t *testing.T) {
	mk := func(n int) []Event {
		evs := make([]Event, n)
		for i := range evs {
			evs[i] = Event{Seq: uint64(i + 1), Kind: KindForward}
		}
		return evs
	}
	if _, diverged := Diff(mk(5), mk(5)); diverged {
		t.Fatal("identical streams diverged")
	}
	b := mk(5)
	b[3].Kind = KindDrop
	d, diverged := Diff(mk(5), b)
	if !diverged || d.Index != 3 || d.A == nil || d.B == nil {
		t.Fatalf("planted divergence: %+v diverged=%v", d, diverged)
	}
	d, diverged = Diff(mk(5), mk(3))
	if !diverged || d.Index != 3 || d.A == nil || d.B != nil {
		t.Fatalf("prefix divergence: %+v diverged=%v", d, diverged)
	}
	if sideA, sideB := d.Sides(); sideA != d.A.String() || sideB != "<end of trace>" {
		t.Fatalf("Sides() = %q, %q", sideA, sideB)
	}
}
