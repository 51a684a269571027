package mac

import (
	"testing"

	"rcast/internal/core"
	"rcast/internal/geom"
	"rcast/internal/mobility"
	"rcast/internal/phy"
	"rcast/internal/sim"
)

// The churn rate must normalize by the real time since the previous sample,
// not by the beacon interval, and the first sample must only record the
// baseline neighbor set (there is no interval to rate over yet).
func TestChurnNormalizesByElapsedTime(t *testing.T) {
	r := newRig(t, 1, 10)
	m := r.psm(0, core.Rcast{})

	// First sample: one neighbor appears "out of nowhere" relative to the
	// empty baseline; it must not register as churn.
	r.ch.AddRadio(phy.NodeID(1), mobility.Static{P: geom.Point{X: 10}})
	m.updateChurn(0)
	if m.LinkChangesPerSec() != 0 {
		t.Fatalf("baseline sample moved churn to %v, want 0", m.LinkChangesPerSec())
	}

	// One link change over 10 s: rate 0.1/s, EWMA (alpha 0.2) = 0.02 — not
	// the 1/BeaconInterval = 4/s a fixed-interval divisor would produce.
	r.ch.AddRadio(phy.NodeID(2), mobility.Static{P: geom.Point{X: 20}})
	m.updateChurn(10 * sim.Second)
	if got, want := m.LinkChangesPerSec(), 0.2*0.1; !almostEqual(got, want) {
		t.Errorf("churn after 1 change / 10 s = %v, want %v", got, want)
	}

	// A stable neighborhood decays the estimate regardless of sample gap.
	m.updateChurn(12 * sim.Second)
	if got, want := m.LinkChangesPerSec(), 0.8*0.2*0.1; !almostEqual(got, want) {
		t.Errorf("churn after stable sample = %v, want %v", got, want)
	}

	// Zero-elapsed resample is a no-op, not a divide-by-zero.
	m.updateChurn(12 * sim.Second)
	if got, want := m.LinkChangesPerSec(), 0.8*0.2*0.1; !almostEqual(got, want) {
		t.Errorf("churn after zero-dt sample = %v, want %v", got, want)
	}
}

func almostEqual(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}

// TestChurnIndependentOfMapIterationOrder pins the map-iteration audit
// (DESIGN.md §9): updateChurn ranges over the current and previous
// neighbor-set maps, the only map iteration in this package, and the churn
// estimate must be a pure set-difference count — identical however Go
// happens to order the maps. Fifty fresh stations walk the same neighbor
// evolution; a hidden order dependence would make at least one diverge.
func TestChurnIndependentOfMapIterationOrder(t *testing.T) {
	sample := func() float64 {
		r := newRig(t, 1, 10)
		m := r.psm(0, core.Rcast{})
		// Baseline: neighbors 1..8.
		for i := 1; i <= 8; i++ {
			r.ch.AddRadio(phy.NodeID(i), mobility.Static{P: geom.Point{X: float64(10 * i)}})
		}
		m.updateChurn(0)
		// Second sample: 9..12 appear (4 joins); move 1..4 out of range
		// is not possible with Static, so churn is join-only here.
		for i := 9; i <= 12; i++ {
			r.ch.AddRadio(phy.NodeID(i), mobility.Static{P: geom.Point{X: float64(10 * i)}})
		}
		m.updateChurn(10 * sim.Second)
		return m.LinkChangesPerSec()
	}
	want := sample()
	if want == 0 {
		t.Fatal("scenario produced no churn; test is vacuous")
	}
	for i := 1; i < 50; i++ {
		if got := sample(); got != want {
			t.Fatalf("run %d: churn %v != %v — map iteration order leaked into the estimate", i, got, want)
		}
	}
}

// The per-beacon churn sample is a neighbor query per station, so it is
// taken only for a policy that reads the link-change rate: a policy that
// declares it does not (Rcast) keeps a zero estimate, while one that
// declares it, or declares nothing, tracks the neighbor that appears.
func TestChurnSampledOnlyWhenPolicyReadsIt(t *testing.T) {
	r := newRig(t, 3, 10)
	reads := r.psm(0, core.Mobility{})
	skips := r.psm(1, core.Rcast{})
	silent := r.psm(2, struct{ core.Policy }{core.Rcast{}}) // hides Reads
	r.sched.After(sim.Second, func() {
		r.ch.AddRadio(phy.NodeID(3), mobility.Static{P: geom.Point{X: 40}})
	})
	r.run(3 * sim.Second)
	if reads.LinkChangesPerSec() == 0 || silent.LinkChangesPerSec() == 0 {
		t.Fatalf("churn not tracked: mobility %v, undeclared %v", reads.LinkChangesPerSec(), silent.LinkChangesPerSec())
	}
	if got := skips.LinkChangesPerSec(); got != 0 {
		t.Fatalf("rcast sampled churn (%v) though it does not read it", got)
	}
}
