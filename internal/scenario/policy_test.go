package scenario

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rcast/internal/core"
	"rcast/internal/mac"
	"rcast/internal/phy"
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
// sender recently heard, sender-id must advertise like Rcast for every
// class and give Rcast's probability for every neighborhood size; with the
// sender unheard it must give a certain coin, which draws nothing.
func TestPolicyPinSenderIDAllHeard(t *testing.T) {
	for _, class := range []core.Class{core.ClassData, core.ClassRREQ, core.ClassRREP, core.ClassRERR} {
		if got, want := (core.SenderID{}).AdvertiseLevel(class), (core.Rcast{}).AdvertiseLevel(class); got != want {
			t.Fatalf("class %v: sender-id advertises %v, rcast %v", class, got, want)
		}
	}
	heard := core.ListenContext{SenderRecentlyHeard: true}
	for n := 0; n <= 40; n++ {
		heard.Neighbors = n
		if a, b := (core.SenderID{}).OverhearProbability(heard), (core.Rcast{}).OverhearProbability(heard); a != b {
			t.Fatalf("neighbors=%d: sender-id p=%v, rcast p=%v", n, a, b)
		}
	}
	// Unheard sender: certainty, no draw.
	unheard := core.ListenContext{Neighbors: 8}
	if p := (core.SenderID{}).OverhearProbability(unheard); p < 1 {
		t.Fatalf("sender-id gave an unheard sender p=%v, want certainty", p)
	}
	rng := rand.New(rand.NewSource(7))
	state := rand.New(rand.NewSource(7))
	if !sim.Bernoulli(rng, (core.SenderID{}).OverhearProbability(unheard)) {
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

// calibratedRcast is core.Rcast that sums, over every probability it
// gives, p and the coin's variance p(1−p).
type calibratedRcast struct {
	core.Rcast
	asked      int
	sumP, sumV float64
}

func (c *calibratedRcast) OverhearProbability(ctx core.ListenContext) float64 {
	p := c.Rcast.OverhearProbability(ctx)
	c.asked++
	c.sumP += p
	c.sumV += p * (1 - p)
	return p
}

// TestOverhearingCoinsMatchPolicyProbabilities checks the drawn coins
// against the probabilities the policy gave, over whole Rcast runs: the
// randomized coins that came up heads, counted through a pass-through
// lottery hook, must lie within 4 standard deviations of Σp. Each
// randomized coin must ask the policy exactly once.
func TestOverhearingCoinsMatchPolicyProbabilities(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		pol := &calibratedRcast{}
		coins, heads := 0, 0
		cfg := quickConfig(SchemeRcast)
		cfg.Seed = seed
		cfg.Policy = pol
		cfg.Replay = &ReplayHooks{Lottery: func(_ sim.Time, _ phy.NodeID, a mac.Announcement, stay bool) bool {
			if a.Level == core.LevelRandomized {
				coins++
				if stay {
					heads++
				}
			}
			return stay
		}}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		if pol.asked != coins {
			t.Fatalf("seed %d: policy asked %d times for %d randomized coins", seed, pol.asked, coins)
		}
		if pol.sumV < 25 {
			t.Fatalf("seed %d: Σp(1−p) = %.1f over %d coins, too few random coins to test", seed, pol.sumV, coins)
		}
		z := (float64(heads) - pol.sumP) / math.Sqrt(pol.sumV)
		if math.Abs(z) > 4 {
			t.Fatalf("seed %d: %d heads in %d coins against Σp = %.1f (z = %.2f)", seed, heads, coins, pol.sumP, z)
		}
		t.Logf("seed %d: %d coins, %d heads, Σp = %.1f, Σp(1−p) = %.1f, z = %+.2f", seed, coins, heads, pol.sumP, pol.sumV, z)
	}
}
