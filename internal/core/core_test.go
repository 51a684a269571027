package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newRNG() *rand.Rand { return rand.New(rand.NewSource(1)) }

func TestLevelSubtypeRoundTrip(t *testing.T) {
	tests := []struct {
		lvl     Level
		subtype uint8
	}{
		{LevelNone, 0b1001},
		{LevelRandomized, 0b1110},
		{LevelUnconditional, 0b1111},
	}
	for _, tt := range tests {
		if got := tt.lvl.Subtype(); got != tt.subtype {
			t.Errorf("%v.Subtype() = %04b, want %04b", tt.lvl, got, tt.subtype)
		}
		if got := LevelFromSubtype(tt.subtype); got != tt.lvl {
			t.Errorf("LevelFromSubtype(%04b) = %v, want %v", tt.subtype, got, tt.lvl)
		}
	}
	// Unknown subtype: conforming readers treat it as a standard ATIM.
	if got := LevelFromSubtype(0b0000); got != LevelNone {
		t.Errorf("LevelFromSubtype(0) = %v, want none", got)
	}
}

func TestStrings(t *testing.T) {
	if LevelNone.String() != "none" || LevelRandomized.String() != "randomized" ||
		LevelUnconditional.String() != "unconditional" || Level(9).String() != "Level(9)" {
		t.Error("Level.String broken")
	}
	if ClassData.String() != "data" || ClassRREQ.String() != "rreq" ||
		ClassRREP.String() != "rrep" || ClassRERR.String() != "rerr" || Class(9).String() != "Class(9)" {
		t.Error("Class.String broken")
	}
}

func TestClassIsControl(t *testing.T) {
	if ClassData.IsControl() {
		t.Error("data marked control")
	}
	for _, c := range []Class{ClassRREQ, ClassRREP, ClassRERR} {
		if !c.IsControl() {
			t.Errorf("%v not marked control", c)
		}
	}
}

func TestRcastAdvertiseLevels(t *testing.T) {
	// Paper §3.3: RREP and data randomized, RERR unconditional.
	p := Rcast{}
	tests := []struct {
		give Class
		want Level
	}{
		{ClassData, LevelRandomized},
		{ClassRREP, LevelRandomized},
		{ClassRERR, LevelUnconditional},
		{ClassRREQ, LevelUnconditional},
	}
	for _, tt := range tests {
		if got := p.AdvertiseLevel(tt.give); got != tt.want {
			t.Errorf("AdvertiseLevel(%v) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestRcastOverhearProbabilityMatchesInverseNeighbors(t *testing.T) {
	// Paper §3.2: "if a node has five neighbors ... it overhears randomly
	// with the probability P_R of 0.2".
	p := Rcast{}
	rng := newRNG()
	const trials = 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if p.ShouldOverhear(rng, LevelRandomized, ListenContext{Neighbors: 5}) {
			hits++
		}
	}
	got := float64(hits) / trials
	if got < 0.18 || got > 0.22 {
		t.Fatalf("empirical P_R = %v, want ~0.2", got)
	}
}

func TestRcastLevelSemantics(t *testing.T) {
	p := Rcast{}
	rng := newRNG()
	ctx := ListenContext{Neighbors: 50}
	for i := 0; i < 100; i++ {
		if p.ShouldOverhear(rng, LevelNone, ctx) {
			t.Fatal("overheard under LevelNone")
		}
		if !p.ShouldOverhear(rng, LevelUnconditional, ctx) {
			t.Fatal("slept under LevelUnconditional")
		}
	}
}

func TestRcastIsolatedNodeAlwaysOverhears(t *testing.T) {
	// With ≤1 neighbor P_R = 1: the single neighbor is the only possible
	// cache carrier.
	p := Rcast{}
	rng := newRNG()
	for _, n := range []int{0, 1} {
		if !p.ShouldOverhear(rng, LevelRandomized, ListenContext{Neighbors: n}) {
			t.Fatalf("neighbors=%d: should always overhear", n)
		}
	}
}

func TestUnconditionalAndNonePolicies(t *testing.T) {
	rng := newRNG()
	ctx := ListenContext{Neighbors: 10}
	u := Unconditional{}
	if u.AdvertiseLevel(ClassData) != LevelUnconditional {
		t.Error("Unconditional.AdvertiseLevel broken")
	}
	if !u.ShouldOverhear(rng, LevelNone, ctx) {
		t.Error("Unconditional listener must always stay awake")
	}
	n := None{}
	if n.AdvertiseLevel(ClassRERR) != LevelNone {
		t.Error("None.AdvertiseLevel broken")
	}
	if n.ShouldOverhear(rng, LevelRandomized, ctx) {
		t.Error("None listener overheard a randomized advertisement")
	}
	if !n.ShouldOverhear(rng, LevelUnconditional, ctx) {
		t.Error("None listener must honour an unconditional advertisement")
	}
}

func TestSenderIDBoostsUnheardSenders(t *testing.T) {
	p := SenderID{}
	rng := newRNG()
	unheard := ListenContext{Neighbors: 50, SenderRecentlyHeard: false}
	for i := 0; i < 100; i++ {
		if !p.ShouldOverhear(rng, LevelRandomized, unheard) {
			t.Fatal("unheard sender must be overheard with certainty")
		}
	}
	heard := ListenContext{Neighbors: 50, SenderRecentlyHeard: true}
	hits := 0
	for i := 0; i < 10000; i++ {
		if p.ShouldOverhear(rng, LevelRandomized, heard) {
			hits++
		}
	}
	if got := float64(hits) / 10000; got > 0.05 {
		t.Fatalf("recently-heard sender overheard with p=%v, want ~0.02", got)
	}
}

func TestBatteryScalesDown(t *testing.T) {
	p := Battery{}
	rng := newRNG()
	count := func(e float64) int {
		hits := 0
		for i := 0; i < 20000; i++ {
			if p.ShouldOverhear(rng, LevelRandomized, ListenContext{Neighbors: 4, RemainingEnergy: e}) {
				hits++
			}
		}
		return hits
	}
	full, low := count(1.0), count(0.2)
	if low >= full {
		t.Fatalf("low battery (%d) should overhear less than full (%d)", low, full)
	}
	if empty := count(0); empty != 0 {
		t.Fatalf("empty battery overheard %d times, want 0", empty)
	}
	// Out-of-range inputs are clamped, not propagated.
	if !p.ShouldOverhear(rng, LevelUnconditional, ListenContext{Neighbors: 1, RemainingEnergy: -3}) {
		t.Fatal("unconditional must win regardless of battery")
	}
}

func TestMobilityDamps(t *testing.T) {
	p := Mobility{}
	rng := newRNG()
	count := func(rate float64) int {
		hits := 0
		for i := 0; i < 20000; i++ {
			if p.ShouldOverhear(rng, LevelRandomized, ListenContext{Neighbors: 4, LinkChangesPerSec: rate}) {
				hits++
			}
		}
		return hits
	}
	calm, churny := count(0), count(9)
	if churny >= calm/2 {
		t.Fatalf("high mobility (%d) should damp overhearing well below calm (%d)", churny, calm)
	}
}

func TestCombinedRespectsAllFactors(t *testing.T) {
	p := Combined{}
	rng := newRNG()
	// Unheard sender wins outright.
	if !p.ShouldOverhear(rng, LevelRandomized, ListenContext{Neighbors: 100, RemainingEnergy: 0.01}) {
		t.Fatal("combined: unheard sender must be overheard")
	}
	// Heard sender, low battery, high churn: essentially never.
	ctx := ListenContext{Neighbors: 20, SenderRecentlyHeard: true, RemainingEnergy: 0.1, LinkChangesPerSec: 9}
	hits := 0
	for i := 0; i < 10000; i++ {
		if p.ShouldOverhear(rng, LevelRandomized, ctx) {
			hits++
		}
	}
	if hits > 50 {
		t.Fatalf("combined overheard %d/10000 under adverse context", hits)
	}
}

func TestPolicyNames(t *testing.T) {
	policies := []Policy{Rcast{}, Unconditional{}, None{}, SenderID{}, Battery{}, Mobility{}, Combined{}}
	seen := make(map[string]bool, len(policies))
	for _, p := range policies {
		name := p.Name()
		if name == "" || seen[name] {
			t.Fatalf("duplicate or empty policy name %q", name)
		}
		seen[name] = true
	}
}

func TestBroadcastGossip(t *testing.T) {
	g := BroadcastGossip{Fanout: 3}
	rng := newRNG()
	// Sparse neighborhoods always rebroadcast.
	for _, n := range []int{0, 1, 2, 3} {
		if !g.ShouldRebroadcast(rng, n) {
			t.Fatalf("neighbors=%d: sparse node must rebroadcast", n)
		}
	}
	// Dense neighborhoods damp towards fanout/neighbors.
	hits := 0
	for i := 0; i < 30000; i++ {
		if g.ShouldRebroadcast(rng, 30) {
			hits++
		}
	}
	got := float64(hits) / 30000
	if got < 0.07 || got > 0.13 {
		t.Fatalf("empirical rebroadcast p = %v, want ~0.1", got)
	}
	// Fanout below 1 is clamped to 1.
	weak := BroadcastGossip{Fanout: 0}
	if !weak.ShouldRebroadcast(rng, 1) {
		t.Fatal("fanout clamp broken")
	}
}

// Property: ShouldOverhear respects level ordering — whenever a policy
// overhears under LevelNone semantics it must also overhear under
// unconditional; randomized always allows unconditional.
func TestLevelMonotonicityProperty(t *testing.T) {
	policies := []Policy{Rcast{}, SenderID{}, Battery{}, Mobility{}, Combined{}}
	prop := func(nbrs uint8, energy float64, churn float64, heard bool, pick uint8) bool {
		p := policies[int(pick)%len(policies)]
		ctx := ListenContext{
			Neighbors:           int(nbrs),
			SenderRecentlyHeard: heard,
			RemainingEnergy:     energy,
			LinkChangesPerSec:   churn,
		}
		rng := newRNG()
		if p.ShouldOverhear(rng, LevelNone, ctx) {
			return false // none must never overhear for these policies
		}
		return p.ShouldOverhear(rng, LevelUnconditional, ctx)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBroadcastGossipFractionalFanout pins down the boundary between the
// always-rebroadcast regime and the probabilistic one when Fanout is not an
// integer: the guarantee applies to neighborhoods of at most ⌊fanout⌋
// nodes, and the first probabilistic neighborhood size is ⌊fanout⌋+1.
func TestBroadcastGossipFractionalFanout(t *testing.T) {
	g := BroadcastGossip{Fanout: 3.5}
	rng := newRNG()
	// neighbors <= ⌊3.5⌋ = 3: certain rebroadcast, no randomness drawn.
	for _, n := range []int{0, 1, 2, 3} {
		for i := 0; i < 100; i++ {
			if !g.ShouldRebroadcast(rng, n) {
				t.Fatalf("neighbors=%d below fractional fanout must rebroadcast", n)
			}
		}
	}
	// neighbors = 4 crosses the boundary: probabilistic at 3.5/4 = 0.875.
	hits := 0
	const trials = 30000
	for i := 0; i < trials; i++ {
		if g.ShouldRebroadcast(rng, 4) {
			hits++
		}
	}
	got := float64(hits) / trials
	if got < 0.85 || got > 0.90 {
		t.Fatalf("empirical rebroadcast p = %v at the fractional boundary, want ~0.875", got)
	}
	if hits == trials {
		t.Fatal("boundary neighborhood rebroadcast with certainty; gossip damping is off")
	}

	// A sub-unit fractional fanout clamps to 1: two neighbors damp at 1/2.
	weak := BroadcastGossip{Fanout: 0.4}
	hits = 0
	for i := 0; i < trials; i++ {
		if weak.ShouldRebroadcast(rng, 2) {
			hits++
		}
	}
	got = float64(hits) / trials
	if got < 0.47 || got > 0.53 {
		t.Fatalf("clamped fanout: empirical p = %v, want ~0.5", got)
	}
}

// TestPolicyReadsAreExact checks every built-in policy's ContextReader
// declaration: over random contexts, scrambling a costly field the policy
// does not declare must leave both its verdict and its RNG draws
// unchanged, and a declared field must be able to change the verdict (no
// over-declaration either).
func TestPolicyReadsAreExact(t *testing.T) {
	policies := append(Policies(), FixedProb{P: 0.3}, FixedProb{P: 1})
	fields := []struct {
		bit      Reads
		scramble func(*ListenContext, *rand.Rand)
	}{
		{ReadsNeighbors, func(c *ListenContext, r *rand.Rand) { c.Neighbors = r.Intn(40) }},
		{ReadsLinkChanges, func(c *ListenContext, r *rand.Rand) { c.LinkChangesPerSec = 5 * r.Float64() }},
	}
	levels := []Level{LevelNone, LevelRandomized, LevelUnconditional}
	for _, p := range policies {
		reads := PolicyReads(p)
		moved := Reads(0)
		src := rand.New(rand.NewSource(7))
		for i := 0; i < 3000; i++ {
			ctx := ListenContext{SenderRecentlyHeard: src.Intn(2) == 0, RemainingEnergy: src.Float64()}
			for _, f := range fields {
				f.scramble(&ctx, src)
			}
			lvl := levels[i%len(levels)]
			seed := src.Int63()
			// decide returns the verdict and the RNG's next value, which
			// differs when the call consumed a different number of draws.
			decide := func(c ListenContext) (bool, int64) {
				rng := rand.New(rand.NewSource(seed))
				stay := p.ShouldOverhear(rng, lvl, c)
				return stay, rng.Int63()
			}
			want, wantNext := decide(ctx)
			for _, f := range fields {
				alt := ctx
				f.scramble(&alt, src)
				got, gotNext := decide(alt)
				if reads&f.bit != 0 {
					if got != want {
						moved |= f.bit
					}
					continue
				}
				if got != want || gotNext != wantNext {
					t.Fatalf("%s: undeclared field %02b changed the verdict or the draws (%+v vs %+v)", p.Name(), f.bit, ctx, alt)
				}
			}
		}
		if moved != reads {
			t.Errorf("%s declares %02b but only %02b ever moved a verdict", p.Name(), reads, moved)
		}
	}
}

func TestPolicyReadsDefaultsToAll(t *testing.T) {
	undeclared := struct{ Policy }{Rcast{}} // hides Rcast's Reads
	if got := PolicyReads(undeclared); got != ReadsAll {
		t.Fatalf("PolicyReads of a policy without a declaration = %02b, want ReadsAll", got)
	}
}
