package mac

import (
	"testing"

	"rcast/internal/core"
	"rcast/internal/phy"
	"rcast/internal/sim"
)

// contentionRig builds PSM stations under ATIM contention with the given
// slot count.
func contentionRig(t *testing.T, n int, gap float64, slots int) (*rig, []*PSM) {
	t.Helper()
	r := newRig(t, n, gap)
	p := DefaultParams()
	p.ATIMContention = true
	p.ATIMSlots = slots
	r.coord = NewCoordinator(r.sched, r.ch, p, sim.Stream(7, "atim"), 3600*sim.Second)
	var macs []*PSM
	for i := 0; i < n; i++ {
		m := NewPSM(r.sched, r.ch, r.radios[i], r.meters[i], core.Rcast{},
			sim.Stream(int64(i), "mac"), p, r.recs[i])
		r.coord.AddStation(m)
		macs = append(macs, m)
	}
	return r, macs
}

func TestATIMContentionDeliversWithAmpleSlots(t *testing.T) {
	r, macs := contentionRig(t, 2, 100, 64)
	r.coord.Start()
	ok := false
	macs[0].Send(Packet{Dst: 1, Class: core.ClassData, Bytes: 512,
		OnResult: func(d bool) { ok = d }})
	r.sched.RunUntil(2 * sim.Second)
	if !ok {
		t.Fatal("packet not delivered under contention with a lone announcement")
	}
	if len(r.recs[1].received) != 1 {
		t.Fatal("receiver upcall missing")
	}
}

func TestATIMContentionSingleSlotAlwaysCollides(t *testing.T) {
	// With exactly one slot, two simultaneous announcements in range of
	// each other's destinations always collide: after ATIMRetryLimit
	// beacons both packets are dropped as link failures.
	r, macs := contentionRig(t, 3, 100, 1)
	r.coord.Start()
	okA, okB := true, true
	gotA, gotB := false, false
	macs[0].Send(Packet{Dst: 1, Class: core.ClassData, Bytes: 512,
		OnResult: func(d bool) { okA, gotA = d, true }})
	macs[2].Send(Packet{Dst: 1, Class: core.ClassData, Bytes: 512,
		OnResult: func(d bool) { okB, gotB = d, true }})
	r.sched.RunUntil(5 * sim.Second)
	if !gotA || !gotB {
		t.Fatal("results not reported")
	}
	if okA || okB {
		t.Fatal("delivery succeeded despite guaranteed ATIM collisions")
	}
	if macs[0].Stats().AtimFailures != 1 || macs[2].Stats().AtimFailures != 1 {
		t.Fatalf("AtimFailures = %d/%d, want 1/1",
			macs[0].Stats().AtimFailures, macs[2].Stats().AtimFailures)
	}
	if r.coord.ATIMCollisions() == 0 {
		t.Fatal("coordinator counted no collisions")
	}
}

func TestATIMContentionLoneSenderNeverCollides(t *testing.T) {
	// A single announcing sender cannot collide even with one slot.
	r, macs := contentionRig(t, 2, 100, 1)
	r.coord.Start()
	ok := false
	macs[0].Send(Packet{Dst: 1, Class: core.ClassData, Bytes: 512,
		OnResult: func(d bool) { ok = d }})
	r.sched.RunUntil(2 * sim.Second)
	if !ok {
		t.Fatal("lone announcement collided")
	}
	if r.coord.ATIMCollisions() != 0 {
		t.Fatal("phantom collision counted")
	}
}

func TestATIMContentionOutOfRangeDestinationFailsAfterRetries(t *testing.T) {
	// The destination never hears the ATIM: the sender gives up after
	// ATIMRetryLimit beacons and reports link failure — the path mobility
	// uses to surface broken links under contention.
	r, macs := contentionRig(t, 2, 400, 64) // out of range
	r.coord.Start()
	ok := true
	got := false
	macs[0].Send(Packet{Dst: 1, Class: core.ClassData, Bytes: 512,
		OnResult: func(d bool) { ok, got = d, true }})
	r.sched.RunUntil(5 * sim.Second)
	if !got || ok {
		t.Fatalf("got=%v ok=%v, want failure report", got, ok)
	}
	// Failure should take about ATIMRetryLimit beacon intervals.
	if macs[0].Stats().AtimFailures != 1 {
		t.Fatalf("AtimFailures = %d", macs[0].Stats().AtimFailures)
	}
}

func TestATIMContentionBroadcastAlwaysAdmitted(t *testing.T) {
	r, macs := contentionRig(t, 3, 100, 64)
	r.coord.Start()
	ok := false
	macs[0].Send(Packet{Dst: phy.Broadcast, Class: core.ClassRREQ, Bytes: 64,
		OnResult: func(d bool) { ok = d }})
	r.sched.RunUntil(2 * sim.Second)
	if !ok {
		t.Fatal("broadcast not transmitted under contention")
	}
	if len(r.recs[1].received) != 1 || len(r.recs[2].received) != 1 {
		t.Fatalf("broadcast receptions = %d/%d",
			len(r.recs[1].received), len(r.recs[2].received))
	}
}

func TestATIMContentionCongestionDegradesAdmission(t *testing.T) {
	// Many senders, small slot space: a noticeable fraction of
	// advertisements collide, deferring (or dropping) their packets —
	// the paper's own caveat about heavy traffic (§4.1).
	const n = 8
	r, macs := contentionRig(t, n, 10, 4) // everyone in range, 4 slots
	r.coord.Start()
	delivered := 0
	for i := 0; i < n-1; i++ {
		macs[i].Send(Packet{Dst: phy.NodeID(n - 1), Class: core.ClassData, Bytes: 256,
			OnResult: func(d bool) {
				if d {
					delivered++
				}
			}})
	}
	r.sched.RunUntil(20 * sim.Second)
	if r.coord.ATIMCollisions() == 0 {
		t.Fatal("no ATIM collisions despite 7 senders in 2 slots")
	}
	if delivered == 0 {
		t.Fatal("nothing delivered at all")
	}
}

func TestReliableModeIgnoresATIMOutcome(t *testing.T) {
	// In the default reliable mode ATIMOutcome is never called by the
	// coordinator; calling it directly must be a no-op.
	r := newRig(t, 2, 100)
	m := r.psm(0, core.Rcast{})
	m.ATIMOutcome(0, nil)
	m.Send(Packet{Dst: 1, Class: core.ClassData, Bytes: 64})
	r.psm(1, core.Rcast{})
	r.run(2 * sim.Second)
	if len(r.recs[1].received) != 1 {
		t.Fatal("reliable-mode delivery broken by ATIMOutcome no-op")
	}
}

func TestATIMReachUsesSenderTxPower(t *testing.T) {
	// The sender transmits the ATIM, so its transmit range decides who
	// decodes it: a high-power sender's announcement reaches a receiver
	// beyond the receiver's own reach, and the receiver stays awake for
	// the frame.
	r := newRig(t, 2, 400) // beyond the nominal 250 m
	r.radios[0].SetTxRangeScale(2)
	m := r.psm(0, core.Rcast{})
	r.psm(1, core.Rcast{})
	m.Send(Packet{Dst: phy.Broadcast, Class: core.ClassRREQ, Bytes: 64})
	r.run(2 * sim.Second)
	if len(r.recs[1].received) != 1 {
		t.Fatalf("receiver beyond its own reach got %d broadcasts from a 2x-range sender, want 1",
			len(r.recs[1].received))
	}
}
