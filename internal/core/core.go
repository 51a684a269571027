// Package core implements the paper's primary contribution: the RandomCast
// (Rcast) overhearing model.
//
// Under IEEE 802.11 PSM a sender advertises each buffered packet with an
// ATIM frame during the ATIM window. Rcast (§3.2 of the paper) repurposes
// two reserved management-frame subtypes so the sender can state the desired
// level of overhearing for the advertised packet:
//
//	subtype 1001₂ — no overhearing (standard ATIM)
//	subtype 1110₂ — randomized overhearing
//	subtype 1111₂ — unconditional overhearing
//
// A non-addressed neighbor that receives the advertisement consults the
// level: under LevelNone it sleeps, under LevelUnconditional it stays awake,
// and under LevelRandomized it stays awake with probability P_R.
// ListenerChance applies this rule, a Policy supplies P_R and the MAC draws
// the coin. The paper
// evaluates P_R = 1 / (number of neighbors) and names three further factors
// (sender ID, mobility, remaining battery energy) as future work; this
// package implements all of them.
package core

import "fmt"

// Level is the overhearing level a sender advertises for a packet,
// corresponding to the ATIM subtype encodings above.
type Level int

// Overhearing levels.
const (
	LevelNone Level = iota + 1
	LevelRandomized
	LevelUnconditional
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelRandomized:
		return "randomized"
	case LevelUnconditional:
		return "unconditional"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Subtype returns the 4-bit IEEE 802.11 management-frame subtype the level
// is encoded as in the ATIM frame control field (paper Fig. 4).
func (l Level) Subtype() uint8 {
	switch l {
	case LevelRandomized:
		return 0b1110
	case LevelUnconditional:
		return 0b1111
	default:
		return 0b1001 // standard ATIM
	}
}

// LevelFromSubtype decodes a management-frame subtype into a Level.
// Unknown subtypes decode as LevelNone, the standard-conforming reading.
func LevelFromSubtype(s uint8) Level {
	switch s {
	case 0b1110:
		return LevelRandomized
	case 0b1111:
		return LevelUnconditional
	default:
		return LevelNone
	}
}

// Class is the routing-layer packet class; the sender-side half of a policy
// maps it to an advertised Level (paper §3.3).
type Class int

// Packet classes.
const (
	ClassData Class = iota + 1
	ClassRREQ
	ClassRREP
	ClassRERR
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassData:
		return "data"
	case ClassRREQ:
		return "rreq"
	case ClassRREP:
		return "rrep"
	case ClassRERR:
		return "rerr"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// IsControl reports whether the class is a routing control packet (used by
// the normalized-routing-overhead metric).
func (c Class) IsControl() bool {
	return c == ClassRREQ || c == ClassRREP || c == ClassRERR
}

// ListenContext carries the local state a listener may consult when making
// the randomized overhearing decision — one field per factor in §3.2.
type ListenContext struct {
	// Neighbors is the listener's current neighbor count (≥ 0).
	Neighbors int
	// SenderRecentlyHeard reports whether the announcing sender has been
	// heard or overheard within the recency window (sender-ID factor).
	SenderRecentlyHeard bool
	// RemainingEnergy is the listener's battery fraction in [0, 1].
	RemainingEnergy float64
	// LinkChangesPerSec estimates local mobility as the rate of neighbor-set
	// churn observed by the listener.
	LinkChangesPerSec float64
}

// Policy is an overhearing policy: the sender side chooses an advertised
// level per packet class, and the listener side gives the chance that a
// non-addressed node stays awake for a randomized advertisement.
// ListenerChance applies the rest of the §3.2 rule; the MAC draws the coin
// (sim.Bernoulli).
type Policy interface {
	// AdvertiseLevel returns the level a sender advertises for class c.
	AdvertiseLevel(c Class) Level
	// OverhearProbability returns the chance that a non-addressed listener
	// stays awake for a LevelRandomized advertisement, given ctx. Values
	// of 1 or more keep it awake and values of 0 or less let it sleep,
	// both without a draw. The MAC asks once per randomized advertisement,
	// and never for another level: an unconditional advertisement keeps
	// every listener awake and a LevelNone one lets every listener sleep.
	OverhearProbability(ctx ListenContext) float64
	// Name returns a short identifier for reports.
	Name() string
}

// ListenerChance applies the §3.2 listener rule for a non-addressed node
// that hears an advertisement at level lvl. It returns the chance that the
// node stays awake and whether a coin is tossed at all: LevelUnconditional
// is a certain coin, LevelRandomized a coin with pol's probability for the
// context ctx returns, and any other level a standard ATIM that tosses no
// coin. ctx is called, and pol asked, only for LevelRandomized, so a
// listener fills its context only when a policy needs it.
func ListenerChance(pol Policy, lvl Level, ctx func() ListenContext) (p float64, coin bool) {
	switch lvl {
	case LevelUnconditional:
		return 1, true
	case LevelRandomized:
		return pol.OverhearProbability(ctx()), true
	default:
		return 0, false
	}
}

// Reads is a set of the ListenContext fields that cost the MAC neighbor
// queries to fill: the neighbor count one per lottery, the link-change
// rate one per station per beacon. The other fields are always filled.
type Reads uint8

// Costly ListenContext fields, one bit each.
const (
	ReadsNeighbors Reads = 1 << iota
	ReadsLinkChanges

	// ReadsAll is every costly field: what a policy that declares nothing
	// is given.
	ReadsAll = ReadsNeighbors | ReadsLinkChanges
)

// ContextReader is implemented by a Policy that declares which costly
// ListenContext fields its OverhearProbability consults. The MAC leaves the
// undeclared ones zero instead of computing them. A declaration must be
// exact: the probability may not depend on an undeclared field.
type ContextReader interface {
	Reads() Reads
}

// PolicyReads returns the fields p declares it reads, or ReadsAll when p
// declares nothing.
func PolicyReads(p Policy) Reads {
	if r, ok := p.(ContextReader); ok {
		return r.Reads()
	}
	return ReadsAll
}

// invNeighbors returns the paper's base probability P_R = 1/neighbors.
func invNeighbors(n int) float64 {
	if n <= 1 {
		return 1
	}
	return 1 / float64(n)
}

// Rcast is the policy evaluated in the paper (§3.3): randomized overhearing
// for RREP and data packets, unconditional for RERR, with
// P_R = 1/(number of neighbors). The §5 policies below embed it for its
// sender side and replace its listener side.
type Rcast struct{}

var _ Policy = Rcast{}

// AdvertiseLevel implements Policy.
func (Rcast) AdvertiseLevel(c Class) Level {
	switch c {
	case ClassRERR:
		return LevelUnconditional
	case ClassData, ClassRREP:
		return LevelRandomized
	default:
		return LevelUnconditional // broadcasts (RREQ) must propagate
	}
}

// OverhearProbability implements Policy.
func (Rcast) OverhearProbability(ctx ListenContext) float64 {
	return invNeighbors(ctx.Neighbors)
}

// Reads implements ContextReader.
func (Rcast) Reads() Reads { return ReadsNeighbors }

// Name implements Policy.
func (Rcast) Name() string { return "rcast" }

// Unconditional models unmodified IEEE 802.11 PSM carrying DSR: because DSR
// needs overhearing, every unicast keeps all neighbors awake.
type Unconditional struct{}

var _ Policy = Unconditional{}

// AdvertiseLevel implements Policy.
func (Unconditional) AdvertiseLevel(Class) Level { return LevelUnconditional }

// OverhearProbability implements Policy.
func (Unconditional) OverhearProbability(ListenContext) float64 { return 1 }

// Reads implements ContextReader.
func (Unconditional) Reads() Reads { return 0 }

// Name implements Policy.
func (Unconditional) Name() string { return "unconditional" }

// None is the naive no-overhearing integration: nodes receive only packets
// addressed to them. The paper's §1 predicts this hurts routing because
// caches starve and RREQ floods multiply. Its listener still honours an
// unconditional advertisement, as every listener does (standard nodes
// never send one, so that only matters in mixed runs).
type None struct{}

var _ Policy = None{}

// AdvertiseLevel implements Policy.
func (None) AdvertiseLevel(Class) Level { return LevelNone }

// OverhearProbability implements Policy.
func (None) OverhearProbability(ListenContext) float64 { return 0 }

// Reads implements ContextReader.
func (None) Reads() Reads { return 0 }

// Name implements Policy.
func (None) Name() string { return "none" }

// SenderID is the §5 future-work policy the authors call "the most
// compelling": overhear with certainty when the announcing sender has not
// been heard for a while (new traffic, or too many skipped packets), and
// fall back to 1/neighbors when its route information is likely redundant.
type SenderID struct{ Rcast }

var _ Policy = SenderID{}

// OverhearProbability implements Policy.
func (SenderID) OverhearProbability(ctx ListenContext) float64 {
	if !ctx.SenderRecentlyHeard {
		return 1
	}
	return invNeighbors(ctx.Neighbors)
}

// Name implements Policy.
func (SenderID) Name() string { return "sender-id" }

// Battery scales the overhearing probability by remaining battery energy:
// nodes running low overhear less, extending device and network lifetime.
type Battery struct{ Rcast }

var _ Policy = Battery{}

// OverhearProbability implements Policy.
func (Battery) OverhearProbability(ctx ListenContext) float64 {
	return invNeighbors(ctx.Neighbors) * clampUnit(ctx.RemainingEnergy)
}

// Name implements Policy.
func (Battery) Name() string { return "battery" }

// Mobility overhears more conservatively when the local link-change rate is
// high, since freshly overheard routes go stale quickly under mobility.
type Mobility struct{ Rcast }

var _ Policy = Mobility{}

// OverhearProbability implements Policy.
func (Mobility) OverhearProbability(ctx ListenContext) float64 {
	damp := 1 / (1 + ctx.LinkChangesPerSec)
	return invNeighbors(ctx.Neighbors) * damp
}

// Reads implements ContextReader.
func (Mobility) Reads() Reads { return ReadsNeighbors | ReadsLinkChanges }

// Name implements Policy.
func (Mobility) Name() string { return "mobility" }

// Combined folds all four §3.2 factors together: the 1/neighbors base rate,
// boosted to certainty for unheard senders, damped by low battery and by
// high mobility.
type Combined struct{ Rcast }

var _ Policy = Combined{}

// OverhearProbability implements Policy.
func (Combined) OverhearProbability(ctx ListenContext) float64 {
	if !ctx.SenderRecentlyHeard {
		return 1
	}
	return invNeighbors(ctx.Neighbors) * clampUnit(ctx.RemainingEnergy) / (1 + ctx.LinkChangesPerSec)
}

// Reads implements ContextReader.
func (Combined) Reads() Reads { return ReadsAll }

// Name implements Policy.
func (Combined) Name() string { return "combined" }

// FixedProb advertises like Rcast but overhears randomized advertisements
// with a fixed probability P instead of 1/neighbors. It exists for
// calibration and differential testing: P >= 1 never consults the rng
// (sim.Bernoulli draws nothing for a certain coin), which makes
// FixedProb{P: 1} listeners bit-identical to Unconditional ones — the
// scenario-level oracle tests rely on exactly that.
type FixedProb struct {
	Rcast
	// P is the stay-awake probability for LevelRandomized advertisements;
	// values are used as-is (a P outside [0, 1] is a certain coin).
	P float64
}

var _ Policy = FixedProb{}

// OverhearProbability implements Policy.
func (f FixedProb) OverhearProbability(ListenContext) float64 { return f.P }

// Reads implements ContextReader.
func (FixedProb) Reads() Reads { return 0 }

// Name implements Policy.
func (f FixedProb) Name() string { return fmt.Sprintf("fixed-%.2f", f.P) }

// clampUnit clamps a battery fraction to [0, 1].
func clampUnit(e float64) float64 {
	return min(max(e, 0), 1)
}

// BroadcastGossip implements the §5 extension of applying Rcast to
// broadcast packets (RREQ) to damp redundant rebroadcasts in dense networks
// (the broadcast-storm problem, Ni et al.). A node rebroadcasts with
// probability min(1, Fanout/neighbors): conservative, so floods still
// propagate, but dense neighborhoods suppress duplicates.
type BroadcastGossip struct {
	// Fanout is the expected number of rebroadcasting neighbors to retain;
	// values below 1 are treated as 1. The paper stresses the decision
	// "must be made conservatively"; 3–4 keeps floods reliable.
	Fanout float64
}

// Probability returns the chance that a node with the given neighbor count
// forwards a flooded packet: certain up to ⌊fanout⌋ neighbors, and
// fanout/neighbors (below 1) beyond.
func (b BroadcastGossip) Probability(neighbors int) float64 {
	fanout := max(b.Fanout, 1)
	if neighbors <= int(fanout) {
		return 1
	}
	return fanout / float64(neighbors)
}
