package scenario

import (
	"math/rand"
	"reflect"
	"testing"

	"rcast/internal/core"
	"rcast/internal/sim"
)

// runPair runs the same scenario under two policy names and returns both
// results for equivalence checks.
func runPair(t *testing.T, cfg Config, a, b string) (*Result, *Result) {
	t.Helper()
	ca, cb := cfg, cfg
	ca.PolicyName, cb.PolicyName = a, b
	ra, err := Run(ca)
	if err != nil {
		t.Fatalf("policy %q: %v", a, err)
	}
	rb, err := Run(cb)
	if err != nil {
		t.Fatalf("policy %q: %v", b, err)
	}
	return ra, rb
}

// TestPolicyPinBatteryAtFullCharge: with unlimited batteries every node
// reports full remaining energy, so the battery policy's scaling factor is
// exactly 1 and its lottery draws — and therefore the whole run — must be
// identical to plain Rcast.
func TestPolicyPinBatteryAtFullCharge(t *testing.T) {
	cfg := quickConfig(SchemeRcast)
	cfg.BatteryJoules = 0 // unlimited: RemainingEnergy pinned at 1
	a, b := runPair(t, cfg, "battery", "rcast")
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("battery policy at full charge diverged from rcast:\nbattery: %+v\nrcast:   %+v", a, b)
	}
}

// TestPolicyPinMobilityAtZeroChurn: in a static scenario no link ever
// changes, so the mobility policy's damping factor is exactly 1 and the run
// must be identical to plain Rcast.
func TestPolicyPinMobilityAtZeroChurn(t *testing.T) {
	cfg := quickConfig(SchemeRcast)
	cfg.Pause = cfg.Duration // static: LinkChangesPerSec pinned at 0
	a, b := runPair(t, cfg, "mobility", "rcast")
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("mobility policy at zero churn diverged from rcast:\nmobility: %+v\nrcast:    %+v", a, b)
	}
}

// TestPolicyPinSenderIDAllHeard: sender-id only departs from Rcast when an
// announcement arrives from a sender not heard within the recency window.
// A full-run pin cannot hold — the first data frame from any sender always
// fires the certainty boost — so the pin is at the decision level: with the
// sender recently heard, sender-id must advertise and draw exactly like
// Rcast for every class, level and neighborhood size; with the sender
// unheard it must overhear with certainty without touching the RNG.
func TestPolicyPinSenderIDAllHeard(t *testing.T) {
	for _, class := range []core.Class{core.ClassData, core.ClassRREQ, core.ClassRREP, core.ClassRERR} {
		if got, want := (core.SenderID{}).AdvertiseLevel(class), (core.Rcast{}).AdvertiseLevel(class); got != want {
			t.Fatalf("class %v: sender-id advertises %v, rcast %v", class, got, want)
		}
	}
	ra := rand.New(rand.NewSource(7))
	rb := rand.New(rand.NewSource(7))
	heard := core.ListenContext{SenderRecentlyHeard: true}
	for i := 0; i < 1000; i++ {
		heard.Neighbors = 1 + i%9
		lvl := core.LevelRandomized
		if i%5 == 0 {
			lvl = core.LevelUnconditional
		}
		a := core.SenderID{}.ShouldOverhear(ra, lvl, heard)
		b := core.Rcast{}.ShouldOverhear(rb, lvl, heard)
		if a != b {
			t.Fatalf("draw %d: sender-id %v, rcast %v", i, a, b)
		}
	}
	if ra.Int63() != rb.Int63() {
		t.Fatal("sender-id consumed a different number of RNG draws than rcast")
	}
	// Unheard sender: certainty, no draw.
	unheard := core.ListenContext{Neighbors: 8}
	rng := rand.New(rand.NewSource(7))
	state := rand.New(rand.NewSource(7))
	if !(core.SenderID{}).ShouldOverhear(rng, core.LevelRandomized, unheard) {
		t.Fatal("sender-id skipped an unheard sender")
	}
	if rng.Int63() != state.Int63() {
		t.Fatal("certainty boost consumed an RNG draw")
	}
}

// TestPolicyReadsChangeNoResult pins the MAC's use of ContextReader
// declarations: a policy that declares its ListenContext reads skips the
// churn sample and, unless it reads it, the neighbor count, and must still
// produce a Result identical to the same policy with its declaration hidden
// (every field computed), on a mobile cell over both the disk and the
// fading channel.
func TestPolicyReadsChangeNoResult(t *testing.T) {
	for _, channel := range []string{"disk", "fading"} {
		for _, p := range core.Policies() {
			cfg := quickConfig(SchemeRcast)
			cfg.Channel = channel
			cfg.Duration = 40 * sim.Second
			cfg.Pause = 10 * sim.Second
			declared, hidden := cfg, cfg
			declared.PolicyName = p.Name()
			hidden.Policy = struct{ core.Policy }{p}
			a, err := Run(declared)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(hidden)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s on %s: declared reads changed the result:\ndeclared: %+v\nhidden:   %+v", p.Name(), channel, a, b)
			}
		}
	}
}
