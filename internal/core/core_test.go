package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

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
	if got := (Rcast{}).OverhearProbability(ListenContext{Neighbors: 5}); got != 0.2 {
		t.Fatalf("P_R with 5 neighbors = %v, want 0.2", got)
	}
}

func TestRcastIsolatedNodeAlwaysOverhears(t *testing.T) {
	// With ≤1 neighbor P_R = 1: the single neighbor is the only possible
	// cache carrier.
	for _, n := range []int{0, 1} {
		if got := (Rcast{}).OverhearProbability(ListenContext{Neighbors: n}); got != 1 {
			t.Fatalf("neighbors=%d: P_R = %v, want 1", n, got)
		}
	}
}

// TestRcastLevelSemantics pins the §3.2 listener rule for Rcast: a LevelNone
// advertisement tosses no coin, an unconditional one a certain coin, and a
// randomized one a coin with P_R; only the randomized level fills the
// context. An unknown level is a standard ATIM, like LevelNone.
func TestRcastLevelSemantics(t *testing.T) {
	tests := []struct {
		lvl    Level
		p      float64
		coin   bool
		filled bool
	}{
		{LevelNone, 0, false, false},
		{LevelRandomized, 0.02, true, true},
		{LevelUnconditional, 1, true, false},
		{Level(9), 0, false, false},
	}
	for _, tt := range tests {
		filled := false
		ctx := func() ListenContext {
			filled = true
			return ListenContext{Neighbors: 50}
		}
		p, coin := ListenerChance(Rcast{}, tt.lvl, ctx)
		if p != tt.p || coin != tt.coin {
			t.Errorf("%v: ListenerChance = (%v, %v), want (%v, %v)", tt.lvl, p, coin, tt.p, tt.coin)
		}
		if filled != tt.filled {
			t.Errorf("%v: context filled = %v, want %v", tt.lvl, filled, tt.filled)
		}
	}
}

// TestLevelMonotonicityProperty checks, for every policy and any context,
// that a LevelNone advertisement never keeps a listener awake and an
// unconditional one always does, without asking the policy; a randomized
// one gives the policy's own probability.
func TestLevelMonotonicityProperty(t *testing.T) {
	policies := []Policy{Rcast{}, Unconditional{}, None{}, SenderID{}, Battery{}, Mobility{}, Combined{}}
	prop := func(nbrs uint8, energy, churn, fixed float64, heard bool, pick uint8) bool {
		all := append(policies, FixedProb{P: fixed})
		pol := all[int(pick)%len(all)]
		lc := ListenContext{
			Neighbors:           int(nbrs),
			SenderRecentlyHeard: heard,
			RemainingEnergy:     energy,
			LinkChangesPerSec:   churn,
		}
		asked := 0
		ctx := func() ListenContext { asked++; return lc }
		if _, coin := ListenerChance(pol, LevelNone, ctx); coin || asked != 0 {
			return false // none must never overhear
		}
		if p, coin := ListenerChance(pol, LevelUnconditional, ctx); !coin || p < 1 || asked != 0 {
			return false // unconditional must always overhear
		}
		p, coin := ListenerChance(pol, LevelRandomized, ctx)
		return coin && asked == 1 && p == pol.OverhearProbability(lc)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnconditionalAndNonePolicies(t *testing.T) {
	ctx := ListenContext{Neighbors: 10}
	u := Unconditional{}
	if u.AdvertiseLevel(ClassData) != LevelUnconditional {
		t.Error("Unconditional.AdvertiseLevel broken")
	}
	if u.OverhearProbability(ctx) != 1 {
		t.Error("Unconditional listener must always stay awake")
	}
	n := None{}
	if n.AdvertiseLevel(ClassRERR) != LevelNone {
		t.Error("None.AdvertiseLevel broken")
	}
	if n.OverhearProbability(ctx) != 0 {
		t.Error("None listener overheard a randomized advertisement")
	}
}

func TestSenderIDBoostsUnheardSenders(t *testing.T) {
	p := SenderID{}
	if got := p.OverhearProbability(ListenContext{Neighbors: 50}); got != 1 {
		t.Fatalf("unheard sender overheard with p=%v, want certainty", got)
	}
	if got := p.OverhearProbability(ListenContext{Neighbors: 50, SenderRecentlyHeard: true}); got != 0.02 {
		t.Fatalf("recently-heard sender overheard with p=%v, want 0.02", got)
	}
}

func TestBatteryScalesDown(t *testing.T) {
	p := Battery{}
	prob := func(e float64) float64 {
		return p.OverhearProbability(ListenContext{Neighbors: 4, RemainingEnergy: e})
	}
	if full, low := prob(1), prob(0.2); low >= full || full != 0.25 {
		t.Fatalf("low battery (p=%v) should overhear less than full (p=%v, want 0.25)", low, full)
	}
	// Out-of-range inputs are clamped, not propagated.
	if prob(0) != 0 || prob(-3) != 0 || prob(7) != 0.25 {
		t.Fatalf("battery clamp broken: p(0)=%v p(-3)=%v p(7)=%v", prob(0), prob(-3), prob(7))
	}
}

func TestMobilityDamps(t *testing.T) {
	p := Mobility{}
	prob := func(rate float64) float64 {
		return p.OverhearProbability(ListenContext{Neighbors: 4, LinkChangesPerSec: rate})
	}
	if calm, churny := prob(0), prob(9); calm != 0.25 || churny >= calm/2 {
		t.Fatalf("high mobility (p=%v) should damp overhearing well below calm (p=%v)", churny, calm)
	}
}

func TestCombinedRespectsAllFactors(t *testing.T) {
	p := Combined{}
	// Unheard sender wins outright.
	if got := p.OverhearProbability(ListenContext{Neighbors: 100, RemainingEnergy: 0.01}); got != 1 {
		t.Fatalf("combined: unheard sender overheard with p=%v, want certainty", got)
	}
	// Heard sender, low battery, high churn: essentially never.
	ctx := ListenContext{Neighbors: 20, SenderRecentlyHeard: true, RemainingEnergy: 0.1, LinkChangesPerSec: 9}
	if got := p.OverhearProbability(ctx); got > 0.005 {
		t.Fatalf("combined overhears with p=%v under adverse context", got)
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
	// Sparse neighborhoods always rebroadcast.
	for _, n := range []int{0, 1, 2, 3} {
		if p := g.Probability(n); p != 1 {
			t.Fatalf("neighbors=%d: sparse node rebroadcasts with p=%v, want 1", n, p)
		}
	}
	// Dense neighborhoods damp towards fanout/neighbors.
	if p := g.Probability(30); p != 0.1 {
		t.Fatalf("rebroadcast p = %v, want 0.1", p)
	}
	// Fanout below 1 is clamped to 1.
	if p := (BroadcastGossip{Fanout: 0}).Probability(1); p != 1 {
		t.Fatal("fanout clamp broken")
	}
}

// TestBroadcastGossipFractionalFanout pins down the boundary between the
// always-rebroadcast regime and the probabilistic one when Fanout is not an
// integer: the guarantee applies to neighborhoods of at most ⌊fanout⌋
// nodes, and the first probabilistic neighborhood size is ⌊fanout⌋+1.
func TestBroadcastGossipFractionalFanout(t *testing.T) {
	g := BroadcastGossip{Fanout: 3.5}
	// neighbors <= ⌊3.5⌋ = 3: certain rebroadcast, so no coin is drawn.
	for _, n := range []int{0, 1, 2, 3} {
		if p := g.Probability(n); p != 1 {
			t.Fatalf("neighbors=%d below fractional fanout rebroadcasts with p=%v", n, p)
		}
	}
	// neighbors = 4 crosses the boundary: probabilistic at 3.5/4 = 0.875.
	if p := g.Probability(4); p != 0.875 {
		t.Fatalf("rebroadcast p = %v at the fractional boundary, want 0.875", p)
	}
	// A sub-unit fractional fanout clamps to 1: two neighbors damp at 1/2.
	if p := (BroadcastGossip{Fanout: 0.4}).Probability(2); p != 0.5 {
		t.Fatalf("clamped fanout: p = %v, want 0.5", p)
	}
}

// TestPolicyReadsAreExact checks every built-in policy's ContextReader
// declaration: over random contexts, scrambling a costly field the policy
// does not declare must leave its probability unchanged, and a declared
// field must be able to change it (no over-declaration either).
func TestPolicyReadsAreExact(t *testing.T) {
	policies := append(Policies(), FixedProb{P: 0.3}, FixedProb{P: 1})
	fields := []struct {
		bit      Reads
		scramble func(*ListenContext, *rand.Rand)
	}{
		{ReadsNeighbors, func(c *ListenContext, r *rand.Rand) { c.Neighbors = r.Intn(40) }},
		{ReadsLinkChanges, func(c *ListenContext, r *rand.Rand) { c.LinkChangesPerSec = 5 * r.Float64() }},
	}
	for _, p := range policies {
		reads := PolicyReads(p)
		moved := Reads(0)
		src := rand.New(rand.NewSource(7))
		for i := 0; i < 3000; i++ {
			ctx := ListenContext{SenderRecentlyHeard: src.Intn(2) == 0, RemainingEnergy: src.Float64()}
			for _, f := range fields {
				f.scramble(&ctx, src)
			}
			want := p.OverhearProbability(ctx)
			for _, f := range fields {
				alt := ctx
				f.scramble(&alt, src)
				got := p.OverhearProbability(alt)
				if reads&f.bit != 0 {
					if got != want {
						moved |= f.bit
					}
					continue
				}
				if got != want {
					t.Fatalf("%s: undeclared field %02b changed the probability (%+v vs %+v)", p.Name(), f.bit, ctx, alt)
				}
			}
		}
		if moved != reads {
			t.Errorf("%s declares %02b but only %02b ever moved a probability", p.Name(), reads, moved)
		}
	}
}

func TestPolicyReadsDefaultsToAll(t *testing.T) {
	undeclared := struct{ Policy }{Rcast{}} // hides Rcast's Reads
	if got := PolicyReads(undeclared); got != ReadsAll {
		t.Fatalf("PolicyReads of a policy without a declaration = %02b, want ReadsAll", got)
	}
}
