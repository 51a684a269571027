package phy

import (
	"math"

	"rcast/internal/geom"
	"rcast/internal/sim"
)

// Every "who hears whom" query — Transmit, Neighbors, VisitNeighbors,
// CountNeighbors — walks the querying radio's reach list instead of
// scanning for candidates. A radio's list holds, in registration order,
// every other radio within its reach plus a skin at the build instant,
// each with its distance d0 at that instant. With a declared motion bound
// v, no pair's distance can have moved more than drift = 2·v·|now − built|
// since, so an entry is
//
//   - certainly in when d0 ≤ reach − drift − reachEps,
//   - certainly out when d0 > reach + drift + reachEps,
//   - and exact-checked in the band between, with the same distance
//     expression the exhaustive scan used.
//
// The lists are rebuilt, all at once and only at a query, once the drift
// plus reachEps could exceed the skin: until then no radio outside a list
// can have come within reach. At the build instant itself, and forever on
// a static channel (v = 0), d0 is bitwise the exact distance, so every
// entry is decided by it. An undeclared bound is infinite drift: the lists
// are rebuilt at every new query instant and decided by d0 there. See
// DESIGN.md §20.

// reachEps (metres) widens the band around the reach so that rounding in
// positions, distances and the drift bound cannot turn a certain verdict
// into a different one than the exact expression gives.
const reachEps = 1e-6

// skinFrac sizes the skin of a mobile channel's lists as a fraction of the
// nominal reach: a thicker skin rebuilds less often but walks longer lists
// with wider bands. 1/8 measured fastest on the mobile paper cell.
const skinFrac = 1.0 / 8

// reachLists is every radio's reach list in CSR form: radio i's entries
// are idx[start[i]:start[i+1]], ascending, with distances d0 alongside.
type reachLists struct {
	valid   bool
	builtAt sim.Time
	skin    float64 // metres past each radio's reach the lists extend
	start   []int32
	idx     []int32
	d0      []float64
	g       grid    // spatial index for builds
	cand    []int32 // scratch: grid candidates of one radio
}

// reach returns how far r's transmissions carry: the decode radius, or the
// model's MaxRange, stretched by r's transmit range scale.
func (c *Channel) reach(r *Radio) float64 {
	if c.prop != nil {
		return c.maxRange * r.txScale
	}
	return c.rangeM * r.txScale
}

// listMargin returns how far any pair's distance at now may differ from
// its listed d0, rebuilding the lists first when they are invalid or the
// drift since their build could exceed the skin.
func (c *Channel) listMargin(now sim.Time) float64 {
	l := &c.lists
	if l.valid {
		if now == l.builtAt || c.motionBound == 0 {
			return 0
		}
		dt := now - l.builtAt
		if dt < 0 {
			dt = -dt
		}
		if m := 2*c.motionBound*dt.Seconds() + reachEps; m <= l.skin {
			return m
		}
	}
	c.buildLists(now)
	return 0
}

// buildLists rebuilds every radio's reach list from positions at now.
func (c *Channel) buildLists(now sim.Time) {
	l := &c.lists
	l.valid, l.builtAt = true, now
	nominal := c.rangeM
	if c.prop != nil {
		nominal = c.maxRange
	}
	l.skin = 0
	if v := c.motionBound; v > 0 && !math.IsInf(v, 1) {
		l.skin = skinFrac * nominal
	}
	l.g.cell = nominal
	if !(l.g.cell > 0) {
		l.g.cell = 1
	}
	l.g.rebin(c.radios, now)
	l.start, l.idx, l.d0 = l.start[:0], l.idx[:0], l.d0[:0]
	for i, r := range c.radios {
		l.start = append(l.start, int32(len(l.idx)))
		p := r.Position(now)
		limit := c.reach(r) + l.skin
		l.cand = l.g.candidates(p, limit, l.cand)
		for _, j := range l.cand {
			if int(j) == i {
				continue
			}
			if d := p.DistanceTo(c.radios[j].Position(now)); d <= limit {
				l.idx = append(l.idx, j)
				l.d0 = append(l.d0, d)
			}
		}
	}
	l.start = append(l.start, int32(len(l.idx)))
}

// reached returns the indices (into c.radios) of every other radio within
// tx's reach at now, in registration order, and — with a propagation model
// installed — each one's exact distance. The slices live in channel
// scratch or in the lists themselves: callers must not modify them, and
// must not query the channel while walking them.
func (c *Channel) reached(tx *Radio, now sim.Time) (idx []int32, dist []float64) {
	margin := c.listMargin(now)
	l := &c.lists
	reach := c.reach(tx)
	lo, hi := reach-margin, reach+margin
	model := c.prop != nil
	s, e := l.start[tx.idx], l.start[tx.idx+1]
	if margin == 0 && l.skin == 0 {
		// Every entry is within reach, at exactly its d0: the list is the
		// answer.
		return l.idx[s:e], l.d0[s:e]
	}
	d0s := l.d0[s:e]
	hits, dist := c.hits[:0], c.hitDist[:0]
	var p geom.Point
	posOK := false
	for k, j := range l.idx[s:e] {
		d := d0s[k]
		if d > hi {
			continue
		}
		if margin > 0 && (model || d > lo) {
			if !posOK {
				p, posOK = tx.Position(now), true
			}
			if d = p.DistanceTo(c.radios[j].Position(now)); d > reach {
				continue
			}
		}
		hits = append(hits, j)
		if model {
			dist = append(dist, d)
		}
	}
	c.hits, c.hitDist = hits, dist
	return hits, dist
}

// neighbors returns the radios that decode r's transmissions at now: the
// reached radios, less those the propagation model declines. Same scratch
// contract as reached.
func (c *Channel) neighbors(r *Radio, now sim.Time) []int32 {
	hits, dist := c.reached(r, now)
	if c.prop == nil {
		return hits
	}
	// Filter into the scratch: in place when hits is the scratch, never
	// into the lists.
	kept := c.hits[:0]
	for k, j := range hits {
		if c.prop.Decodable(now, r.id, c.radios[j].id, dist[k]/r.txScale) {
			kept = append(kept, j)
		}
	}
	c.hits = kept
	return kept
}
