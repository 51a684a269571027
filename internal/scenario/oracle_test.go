package scenario

import (
	"reflect"
	"testing"

	"rcast/internal/core"
	"rcast/internal/sim"
)

// assertResultsEqual demands two runs produced bit-identical metrics.
func assertResultsEqual(t *testing.T, a, b *Result) {
	t.Helper()
	if reflect.DeepEqual(a, b) {
		return
	}
	// Localize the divergence field by field for a readable failure.
	va, vb := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			t.Errorf("results diverge in %s: %v vs %v",
				va.Type().Field(i).Name, va.Field(i).Interface(), vb.Field(i).Interface())
		}
	}
	if !t.Failed() {
		t.Error("results diverge (unlocalized)")
	}
}

// TestOracleFixedProbOneEqualsUnconditional is the first differential
// oracle from DESIGN.md §8: Rcast's randomized machinery with the
// stay-awake probability pinned to 1 must reproduce the Unconditional
// policy exactly. sim.Bernoulli short-circuits at p >= 1 without
// consuming randomness, so both policies keep every listener awake and
// leave every RNG stream in the same state — the two runs must agree on
// every metric. Only MACTotal.Announced may differ: FixedProb advertises
// Rcast's per-class levels and announcement dedup is keyed by
// (destination, level).
func TestOracleFixedProbOneEqualsUnconditional(t *testing.T) {
	base := PaperDefaults()
	base.Scheme = SchemePSM
	base.Nodes = 30
	base.Connections = 6
	base.Duration = 90 * sim.Second
	base.Audit = true

	uncond := base
	uncond.Policy = core.Unconditional{}
	ru, err := Run(uncond)
	if err != nil {
		t.Fatalf("unconditional run failed audit: %v", err)
	}

	fixed := base
	fixed.Policy = core.FixedProb{P: 1}
	rf, err := Run(fixed)
	if err != nil {
		t.Fatalf("fixed-prob run failed audit: %v", err)
	}

	if ru.Delivered == 0 {
		t.Fatal("oracle run delivered nothing; scenario too sparse to be meaningful")
	}
	ru.MACTotal.Announced = 0
	rf.MACTotal.Announced = 0
	assertResultsEqual(t, ru, rf)
}

// TestOracleUnconditionalPSMMatchesAlwaysOnDelivery is the second
// differential oracle: in a static, well-connected network with a drain
// window before the end of the run, PSM with unconditional overhearing
// must deliver exactly what an always-on stack delivers — buffering at
// beacon boundaries may defer packets but must never lose them. Both
// stacks are expected to deliver every originated packet.
func TestOracleUnconditionalPSMMatchesAlwaysOnDelivery(t *testing.T) {
	base := PaperDefaults()
	base.Nodes = 20
	base.FieldW = 600
	base.FieldH = 300
	base.Connections = 5
	base.PacketRate = 1
	base.Duration = 80 * sim.Second
	base.TrafficStop = 60 * sim.Second
	base.Pause = base.Duration // static scenario
	base.MinSpeed, base.MaxSpeed = 0, 0
	base.Audit = true

	on := base
	on.Scheme = SchemeAlwaysOn
	ron, err := Run(on)
	if err != nil {
		t.Fatalf("always-on run failed audit: %v", err)
	}

	psm := base
	psm.Scheme = SchemePSM
	rpsm, err := Run(psm)
	if err != nil {
		t.Fatalf("psm run failed audit: %v", err)
	}

	if ron.Originated == 0 || rpsm.Originated == 0 {
		t.Fatal("oracle runs originated no traffic")
	}
	if ron.Originated != rpsm.Originated {
		t.Errorf("originated diverge: always-on %d, psm %d", ron.Originated, rpsm.Originated)
	}
	if ron.PDR != 1 {
		t.Errorf("always-on PDR = %v (delivered %d/%d), want 1",
			ron.PDR, ron.Delivered, ron.Originated)
	}
	if rpsm.PDR != 1 {
		t.Errorf("psm PDR = %v (delivered %d/%d, drops %v), want 1",
			rpsm.PDR, rpsm.Delivered, rpsm.Originated, rpsm.Drops)
	}
	if ron.Delivered != rpsm.Delivered {
		t.Errorf("delivered diverge: always-on %d, psm %d", ron.Delivered, rpsm.Delivered)
	}
}
