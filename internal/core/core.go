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
// and under LevelRandomized it stays awake with probability P_R. The paper
// evaluates P_R = 1 / (number of neighbors) and names three further factors
// (sender ID, mobility, remaining battery energy) as future work; this
// package implements all of them.
package core

import (
	"fmt"
	"math/rand"
)

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
// level per packet class, and the listener side decides whether a
// non-addressed node stays awake for an advertisement.
type Policy interface {
	// AdvertiseLevel returns the level a sender advertises for class c.
	AdvertiseLevel(c Class) Level
	// ShouldOverhear decides whether a non-addressed listener stays awake
	// for an advertisement with level lvl. It must be deterministic given
	// rng state and ctx.
	ShouldOverhear(rng *rand.Rand, lvl Level, ctx ListenContext) bool
	// Name returns a short identifier for reports.
	Name() string
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
// ListenContext fields its ShouldOverhear consults. The MAC leaves the
// undeclared ones zero instead of computing them. A declaration must be
// exact: verdicts and RNG draws may not depend on an undeclared field.
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

// probRandomized applies lvl semantics around a randomized-case probability.
func probRandomized(rng *rand.Rand, lvl Level, p float64) bool {
	switch lvl {
	case LevelUnconditional:
		return true
	case LevelRandomized:
		if p >= 1 {
			return true
		}
		if p <= 0 {
			return false
		}
		return rng.Float64() < p
	default:
		return false
	}
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
// P_R = 1/(number of neighbors).
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

// ShouldOverhear implements Policy.
func (Rcast) ShouldOverhear(rng *rand.Rand, lvl Level, ctx ListenContext) bool {
	return probRandomized(rng, lvl, invNeighbors(ctx.Neighbors))
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

// ShouldOverhear implements Policy.
func (Unconditional) ShouldOverhear(*rand.Rand, Level, ListenContext) bool { return true }

// Reads implements ContextReader.
func (Unconditional) Reads() Reads { return 0 }

// Name implements Policy.
func (Unconditional) Name() string { return "unconditional" }

// None is the naive no-overhearing integration: nodes receive only packets
// addressed to them. The paper's §1 predicts this hurts routing because
// caches starve and RREQ floods multiply.
type None struct{}

var _ Policy = None{}

// AdvertiseLevel implements Policy.
func (None) AdvertiseLevel(Class) Level { return LevelNone }

// ShouldOverhear implements Policy.
func (None) ShouldOverhear(_ *rand.Rand, lvl Level, _ ListenContext) bool {
	// Even a naive node honours an explicit unconditional advertisement
	// (standard nodes never send one, so this only matters in mixed runs).
	return lvl == LevelUnconditional
}

// Reads implements ContextReader.
func (None) Reads() Reads { return 0 }

// Name implements Policy.
func (None) Name() string { return "none" }

// SenderID is the §5 future-work policy the authors call "the most
// compelling": overhear with certainty when the announcing sender has not
// been heard for a while (new traffic, or too many skipped packets), and
// fall back to 1/neighbors when its route information is likely redundant.
type SenderID struct{}

var _ Policy = SenderID{}

// AdvertiseLevel implements Policy.
func (SenderID) AdvertiseLevel(c Class) Level { return Rcast{}.AdvertiseLevel(c) }

// ShouldOverhear implements Policy.
func (SenderID) ShouldOverhear(rng *rand.Rand, lvl Level, ctx ListenContext) bool {
	if lvl == LevelRandomized && !ctx.SenderRecentlyHeard {
		return true
	}
	return probRandomized(rng, lvl, invNeighbors(ctx.Neighbors))
}

// Reads implements ContextReader.
func (SenderID) Reads() Reads { return ReadsNeighbors }

// Name implements Policy.
func (SenderID) Name() string { return "sender-id" }

// Battery scales the overhearing probability by remaining battery energy:
// nodes running low overhear less, extending device and network lifetime.
type Battery struct{}

var _ Policy = Battery{}

// AdvertiseLevel implements Policy.
func (Battery) AdvertiseLevel(c Class) Level { return Rcast{}.AdvertiseLevel(c) }

// ShouldOverhear implements Policy.
func (Battery) ShouldOverhear(rng *rand.Rand, lvl Level, ctx ListenContext) bool {
	e := ctx.RemainingEnergy
	if e < 0 {
		e = 0
	} else if e > 1 {
		e = 1
	}
	return probRandomized(rng, lvl, invNeighbors(ctx.Neighbors)*e)
}

// Reads implements ContextReader.
func (Battery) Reads() Reads { return ReadsNeighbors }

// Name implements Policy.
func (Battery) Name() string { return "battery" }

// Mobility overhears more conservatively when the local link-change rate is
// high, since freshly overheard routes go stale quickly under mobility.
type Mobility struct{}

var _ Policy = Mobility{}

// AdvertiseLevel implements Policy.
func (Mobility) AdvertiseLevel(c Class) Level { return Rcast{}.AdvertiseLevel(c) }

// ShouldOverhear implements Policy.
func (Mobility) ShouldOverhear(rng *rand.Rand, lvl Level, ctx ListenContext) bool {
	damp := 1 / (1 + ctx.LinkChangesPerSec)
	return probRandomized(rng, lvl, invNeighbors(ctx.Neighbors)*damp)
}

// Reads implements ContextReader.
func (Mobility) Reads() Reads { return ReadsNeighbors | ReadsLinkChanges }

// Name implements Policy.
func (Mobility) Name() string { return "mobility" }

// Combined folds all four §3.2 factors together: the 1/neighbors base rate,
// boosted to certainty for unheard senders, damped by low battery and by
// high mobility.
type Combined struct{}

var _ Policy = Combined{}

// AdvertiseLevel implements Policy.
func (Combined) AdvertiseLevel(c Class) Level { return Rcast{}.AdvertiseLevel(c) }

// ShouldOverhear implements Policy.
func (Combined) ShouldOverhear(rng *rand.Rand, lvl Level, ctx ListenContext) bool {
	if lvl == LevelRandomized && !ctx.SenderRecentlyHeard {
		return true
	}
	e := ctx.RemainingEnergy
	if e < 0 {
		e = 0
	} else if e > 1 {
		e = 1
	}
	p := invNeighbors(ctx.Neighbors) * e / (1 + ctx.LinkChangesPerSec)
	return probRandomized(rng, lvl, p)
}

// Reads implements ContextReader.
func (Combined) Reads() Reads { return ReadsAll }

// Name implements Policy.
func (Combined) Name() string { return "combined" }

// FixedProb advertises like Rcast but overhears randomized advertisements
// with a fixed probability P instead of 1/neighbors. It exists for
// calibration and differential testing: P >= 1 never consults the rng
// (probRandomized short-circuits), which makes FixedProb{P: 1} listeners
// bit-identical to Unconditional ones — the scenario-level oracle tests
// rely on exactly that.
type FixedProb struct {
	// P is the stay-awake probability for LevelRandomized advertisements;
	// values are used as-is (clamped only by probRandomized's semantics).
	P float64
}

var _ Policy = FixedProb{}

// AdvertiseLevel implements Policy.
func (FixedProb) AdvertiseLevel(c Class) Level { return Rcast{}.AdvertiseLevel(c) }

// ShouldOverhear implements Policy.
func (f FixedProb) ShouldOverhear(rng *rand.Rand, lvl Level, _ ListenContext) bool {
	return probRandomized(rng, lvl, f.P)
}

// Reads implements ContextReader.
func (FixedProb) Reads() Reads { return 0 }

// Name implements Policy.
func (f FixedProb) Name() string { return fmt.Sprintf("fixed-%.2f", f.P) }

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

// ShouldRebroadcast decides whether a node forwards a flooded packet.
func (b BroadcastGossip) ShouldRebroadcast(rng *rand.Rand, neighbors int) bool {
	fanout := b.Fanout
	if fanout < 1 {
		fanout = 1
	}
	if neighbors <= int(fanout) {
		return true
	}
	return rng.Float64() < fanout/float64(neighbors)
}
