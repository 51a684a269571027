package routing

import (
	"slices"
	"testing"

	"rcast/internal/phy"
	"rcast/internal/sim"
)

type testPacket struct{ Data }

type nullTransport struct{}

func (nullTransport) Send(phy.NodeID, Message, func(bool)) {}

// TestDiscoveryValidate pins the shared knob checks: zero keeps the
// default, negatives and the overflowing attempt counts are refused.
func TestDiscoveryValidate(t *testing.T) {
	for _, tc := range []struct {
		d  Discovery
		ok bool
	}{
		{Discovery{}, true},
		{Discovery{Timeout: sim.Second, MaxAttempts: maxAttempts, BufferCap: 1, Jitter: sim.MaxTime - 1}, true},
		{Discovery{BufferCap: -1}, false},
		{Discovery{MaxAttempts: -1}, false},
		{Discovery{MaxAttempts: maxAttempts + 1}, false},
		{Discovery{Timeout: -1}, false},
		{Discovery{Jitter: -1}, false},
		{Discovery{Jitter: sim.MaxTime}, false},
	} {
		if err := tc.d.Validate(); (err == nil) != tc.ok {
			t.Errorf("%+v: Validate() = %v, want ok=%v", tc.d, err, tc.ok)
		}
	}
}

// TestOnDemandBufferAndCounts checks the zero-knob defaults, the
// destination-then-insertion order of BufferedData, the counters and the
// hand-back on a route and on a crash.
func TestOnDemandBufferAndCounts(t *testing.T) {
	sched := sim.NewScheduler()
	activity := 0
	o := NewOnDemand[*testPacket](0, sched, nil, nullTransport{}, Hooks{DataActivity: func() { activity++ }}, Discovery{},
		func(dst phy.NodeID, id uint64, hopLimit int) Message { return nil })
	if want := (Discovery{Timeout: sim.Second, MaxAttempts: 6, BufferCap: 64}); o.cfg != want {
		t.Fatalf("zero knobs became %+v, want %+v", o.cfg, want)
	}
	var sent []*testPacket
	for _, dst := range []phy.NodeID{5, 2, 5, 0, 2} {
		p := &testPacket{}
		if o.Originate(p, dst, 1, 8) {
			o.Park(p)
			sent = append(sent, p)
		}
	}
	var got []uint64
	for _, d := range o.BufferedData() {
		got = append(got, d.Seq)
	}
	if want := []uint64{2, 5, 1, 3}; !slices.Equal(got, want) {
		t.Fatalf("BufferedData seqs %v, want %v (by destination, then insertion)", got, want)
	}
	if back := o.RouteFound(2); len(back) != 2 || back[0].Pkt != sent[1] || back[1].Pkt != sent[3] || o.Waiting(2) {
		t.Fatalf("RouteFound(2) handed back %v", back)
	}
	o.Drop(&sent[0].Data, "test")
	if c := o.Counts(); c != (Counts{RREQSent: 2, Delivered: 1, Dropped: 1}) || activity != 1 {
		t.Fatalf("counts %+v, activity %d", c, activity)
	}
	if flushed := o.Crash(); len(flushed) != 2 || !o.Down() || o.Waiting(5) {
		t.Fatalf("Crash flushed %v", flushed)
	}
}
