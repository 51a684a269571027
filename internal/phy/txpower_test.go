package phy

import (
	"sort"
	"testing"

	"rcast/internal/geom"
	"rcast/internal/mobility"
	"rcast/internal/sim"
)

// TestTxRangeScaleAsymmetricLink: a radio transmitting at reduced power has
// a shorter reach, but its receive behaviour is unchanged — so A at half
// range 200 m from B cannot reach B while B still reaches A. The PHY must
// model that asymmetry per direction.
func TestTxRangeScaleAsymmetricLink(t *testing.T) {
	sched, ch, radios, caps := lineup(t, 2, 200, 250)
	radios[0].SetTxRangeScale(0.5) // reach 125 m < 200 m gap

	if ch.InRange(radios[0], radios[1], 0) {
		t.Fatal("InRange(quiet→normal) true across a 200 m gap with 125 m reach")
	}
	if !ch.InRange(radios[1], radios[0], 0) {
		t.Fatal("InRange(normal→quiet) false: receive range must be unaffected")
	}

	ch.Transmit(radios[0], Frame{From: 0, To: 1, Bytes: 64}, 2)
	sched.Run()
	if len(caps[1].frames) != 0 {
		t.Fatal("frame delivered beyond the transmitter's reduced reach")
	}
	// A receiverless transmission schedules no event, so the clock never
	// advanced: delay the reverse frame past A's half-duplex window.
	sched.After(5*sim.Millisecond, func() {
		ch.Transmit(radios[1], Frame{From: 1, To: 0, Bytes: 64}, 2)
	})
	sched.Run()
	if len(caps[0].frames) != 1 {
		t.Fatal("reverse direction lost: the quiet radio still hears full-power frames")
	}
}

// TestTxRangeScaleDefaultsToUnity: an unset or invalid scale is the
// identity, keeping default configs byte-identical.
func TestTxRangeScaleDefaultsToUnity(t *testing.T) {
	_, ch, radios, _ := lineup(t, 2, 100, 250)
	if s := radios[0].TxRangeScale(); s != 1 {
		t.Fatalf("fresh radio scale = %v, want 1", s)
	}
	radios[0].SetTxRangeScale(-2)
	if s := radios[0].TxRangeScale(); s != 1 {
		t.Fatalf("invalid scale stored as %v, want clamp to 1", s)
	}
	if !ch.InRange(radios[0], radios[1], 0) {
		t.Fatal("unit scale changed reachability")
	}
}

// TestTxRangeScaleNeighborsGridVsScan: reach lists must honour a boosted
// radio's enlarged reach (larger than the grid cell edge) and a quiet
// radio's shrunken one, with the motion bound declared and without.
func TestTxRangeScaleNeighborsGridVsScan(t *testing.T) {
	for _, scale := range []float64{0.5, 1, 2.5} {
		// Build twice: with the motion bound declared and without.
		var got [2][]NodeID
		for pass, bound := range []bool{true, false} {
			sched := sim.NewScheduler()
			ch := NewChannel(sched, 250)
			if bound {
				ch.SetMotionBound(20)
			}
			var center *Radio
			for i := 0; i < 40; i++ {
				r := ch.AddRadio(NodeID(i), mobility.Static{P: geom.Point{X: float64(i%8) * 110, Y: float64(i/8) * 110}})
				if i == 0 {
					center = r
				}
			}
			center.SetTxRangeScale(scale)
			ids := ch.Neighbors(center, 0)
			sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
			got[pass] = ids
		}
		if len(got[0]) != len(got[1]) {
			t.Fatalf("scale %v: grid found %d neighbors, scan %d", scale, len(got[0]), len(got[1]))
		}
		for i := range got[0] {
			if got[0][i] != got[1][i] {
				t.Fatalf("scale %v: grid/scan neighbor sets differ: %v vs %v", scale, got[0], got[1])
			}
		}
	}
}

type txRecord struct {
	now     sim.Time
	tx      NodeID
	airtime sim.Time
}

type txRecorder struct{ events []txRecord }

func (o *txRecorder) FrameTransmitted(now sim.Time, tx NodeID, airtime sim.Time) {
	o.events = append(o.events, txRecord{now, tx, airtime})
}

// TestTxObserverSeesEveryTransmission: the observer fires once per
// Transmit with the frame's airtime, including frames nobody receives.
func TestTxObserverSeesEveryTransmission(t *testing.T) {
	sched, ch, radios, _ := lineup(t, 2, 100, 250)
	rec := &txRecorder{}
	ch.SetTxObserver(rec)
	ch.Transmit(radios[0], Frame{From: 0, To: 1, Bytes: 512}, 2)
	sched.Run()
	ch.Transmit(radios[1], Frame{From: 1, To: 9, Bytes: 64}, 2) // addressee does not exist
	sched.Run()
	if len(rec.events) != 2 {
		t.Fatalf("observer saw %d transmissions, want 2", len(rec.events))
	}
	if rec.events[0].tx != 0 || rec.events[0].airtime != Airtime(512, 2) {
		t.Fatalf("first event = %+v", rec.events[0])
	}
	if rec.events[1].tx != 1 || rec.events[1].airtime != Airtime(64, 2) {
		t.Fatalf("second event = %+v", rec.events[1])
	}
}
