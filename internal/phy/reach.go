package phy

import (
	"math"

	"rcast/internal/geom"
	"rcast/internal/mobility"
	"rcast/internal/sim"
)

// Every "who hears whom" query — Transmit, Neighbors, VisitNeighbors,
// CountNeighbors — walks the querying radio's reach list instead of
// scanning for candidates. A radio's list holds, in registration order,
// every other radio within its reach plus a skin at the build instant,
// each with its distance d0 at that instant.
//
// Each radio is anchored at its build position together with its still
// span: the instants over which its mobility model reports that position
// bitwise (mobility.Stiller), at least the build instant itself. A radio
// queried inside its span has not moved and has drift 0; outside it, with
// a declared motion bound v, it has drift v·(time since it left the span).
// An entry whose two radios both have drift 0 is decided by d0 alone,
// which is then bitwise the exact distance. Any other entry, with margin
// drift_i + drift_j + reachEps, is
//
//   - certainly in when d0 ≤ reach − margin,
//   - certainly out when d0 > reach + margin,
//   - and exact-checked in the band between, with the same distance
//     expression the exhaustive scan used.
//
// Under a model with fixed link radii (LinkRanger) each entry is settled
// the same way against its own decode threshold too (see linked).
//
// The lists are rebuilt, only at a query, once the two largest drifts
// plus reachEps could exceed the skin: until then no radio outside a list
// can have come within reach. A rebuild keeps every pair of radios that
// have not moved, with its d0, and recomputes only the pairs of those
// that have. A static channel (v = 0) never rebuilds. An undeclared bound
// is infinite drift: a radio that moves forces a rebuild at the next new
// query instant. See DESIGN.md §20.

// reachEps (metres) widens the band around the reach so that rounding in
// positions, distances and the drift bound cannot turn a certain verdict
// into a different one than the exact expression gives.
const reachEps = 1e-6

// skinFrac sizes the skin of a mobile channel's lists as a fraction of the
// nominal reach: a thicker skin rebuilds less often but walks longer lists
// with wider bands. 1/8 measured fastest on the mobile paper cell.
const skinFrac = 1.0 / 8

// ReachStats counts the reach lists' work. The counts follow the queries a
// run makes, so they are as deterministic as the run; they are kept apart
// from Stats so that no Result carries them.
type ReachStats struct {
	Builds     uint64 // full builds: every radio's row from scratch
	Rebuilds   uint64 // drift-triggered rebuilds, redoing only movers' pairs
	Recomputed uint64 // pair distances computed by builds and rebuilds
	Walked     uint64 // list entries visited by queries that walked a row
	Exact      uint64 // entries decided by a freshly computed distance
	Settled    uint64 // queries answered by an in-reach run without a walk
}

// ReachStats returns the reach lists' work counters.
func (c *Channel) ReachStats() ReachStats { return c.lists.stats }

// span is a closed interval of instants.
type span struct{ lo, hi sim.Time }

func (s span) holds(t sim.Time) bool { return s.lo <= t && t <= s.hi }

func (s span) meet(o span) span { return span{max(s.lo, o.lo), min(s.hi, o.hi)} }

// still is the span over which a radio holds its anchor, with both ends
// also as v·seconds for the channel's motion bound v, so that a query
// prices a radio's drift with one subtraction.
type still struct {
	span
	vlo, vhi float64
}

func stillOver(s span, v float64) still { return still{s, v * s.lo.Seconds(), v * s.hi.Seconds()} }

var forever = span{math.MinInt64, math.MaxInt64}

// drift bounds how far a radio anchored over s can be from its anchor at
// now, given vnow = v·now in seconds.
func (s *still) drift(now sim.Time, vnow float64) float64 {
	switch {
	case now > s.hi:
		return vnow - s.vhi
	case now < s.lo:
		return s.vlo - vnow
	}
	return 0
}

// entry is one listed pair: the other radio and the distance d0.
type entry struct {
	j int32
	d float64
}

// rows is a set of reach-list rows in CSR form: row i is idx[start[i]:
// start[i+1]], ascending, with the distances d0 alongside.
type rows struct {
	start, idx []int32
	d0         []float64
}

func (r *rows) reset() { r.start, r.idx, r.d0 = r.start[:0], r.idx[:0], r.d0[:0] }

func (r *rows) add(j int32, d float64) {
	r.idx = append(r.idx, j)
	r.d0 = append(r.d0, d)
}

func (r *rows) row(i int) ([]int32, []float64) {
	s, e := r.start[i], r.start[i+1]
	return r.idx[s:e], r.d0[s:e]
}

// reachLists is every radio's reach list, and each row's in-reach run:
// its entries with d0 within the radio's reach.
type reachLists struct {
	valid bool
	skin  float64 // metres past each radio's reach the lists extend
	list  rows
	in    rows
	spare rows // the previous build's rows, reused by the next

	// Per radio: its position at the last build, the span over which it
	// holds that position, its reach plus the skin, and the span over
	// which it and every radio in its row all hold — where its in-reach
	// run is its answer.
	pos     []geom.Point
	still   []still
	limit   []float64
	settled []still
	// The two largest span starts and the two smallest span ends among
	// all radios: the two largest drifts, before and after the last build.
	top      [2]still
	maxLimit float64

	stats ReachStats

	g      grid      // spatial index for builds
	cand   []int32   // scratch: grid candidates of one radio
	moved  []bool    // scratch: radios re-anchored by this build
	fresh  rows      // scratch: the movers' rows
	joined [][]entry // scratch: movers joining each unmoved row
}

// reach returns how far r's transmissions carry: the decode radius, or the
// model's MaxRange, stretched by r's transmit range scale.
func (c *Channel) reach(r *Radio) float64 {
	if c.prop != nil {
		return c.maxRange * r.txScale
	}
	return c.rangeM * r.txScale
}

// refreshLists builds the lists when they are invalid, and rebuilds them
// when the drift some pair could have accumulated since the last build
// might exceed the skin.
func (c *Channel) refreshLists(now sim.Time) {
	l := &c.lists
	if !l.valid {
		c.buildLists(now, true)
		return
	}
	vnow := c.motionBound * now.Seconds()
	if d := l.top[0].drift(now, vnow) + l.top[1].drift(now, vnow); d != 0 && !(d+reachEps <= l.skin) {
		c.buildLists(now, false)
	}
}

// buildLists rebuilds the lists at now. A full build anchors every radio
// afresh; otherwise only the radios whose still span ended re-anchor, and
// only pairs involving one of them get a new distance. Either way the rows
// come out as a full build at now would make them: for a pair of radios
// that both hold their anchors, the old d0 is the distance at now.
func (c *Channel) buildLists(now sim.Time, full bool) {
	l := &c.lists
	n := len(c.radios)
	v := c.motionBound
	if full {
		l.valid = true
		l.stats.Builds++
		nominal := c.rangeM
		if c.prop != nil {
			nominal = c.maxRange
		}
		l.skin = 0
		if v > 0 && !math.IsInf(v, 1) {
			l.skin = skinFrac * nominal
		}
		l.g.cell = nominal
		if !(l.g.cell > 0) {
			l.g.cell = 1
		}
		l.pos = resize(l.pos, n)
		l.still = resize(l.still, n)
		l.limit = resize(l.limit, n)
		l.settled = resize(l.settled, n)
		l.moved = resize(l.moved, n)
		l.joined = resize(l.joined, n)
		l.maxLimit = 0
		for i, r := range c.radios {
			l.limit[i] = c.reach(r) + l.skin
			l.maxLimit = max(l.maxLimit, l.limit[i])
		}
		if c.ranger != nil && len(c.links) == 0 {
			c.fillLinks()
		}
	} else {
		l.stats.Rebuilds++
	}

	// Re-anchor the movers, and find the spans that end first and start
	// last. On a channel declared static every radio holds forever.
	los := [2]sim.Time{math.MinInt64, math.MinInt64}
	his := [2]sim.Time{math.MaxInt64, math.MaxInt64}
	for i, r := range c.radios {
		l.moved[i] = full || !l.still[i].holds(now)
		if l.moved[i] {
			s := forever
			if v == 0 {
				l.pos[i] = r.Position(now)
			} else {
				l.pos[i], s = r.anchor(now)
			}
			l.still[i] = stillOver(s, v)
		}
		s := l.still[i].span
		if s.lo > los[0] {
			los[0], los[1] = s.lo, los[0]
		} else if s.lo > los[1] {
			los[1] = s.lo
		}
		if s.hi < his[0] {
			his[0], his[1] = s.hi, his[0]
		} else if s.hi < his[1] {
			his[1] = s.hi
		}
	}
	for k := range l.top {
		l.top[k] = stillOver(span{los[k], his[k]}, v)
	}

	// The movers' rows, and the movers joining each unmoved row: one grid
	// search per mover, wide enough for any radio's limit. DistanceTo is
	// symmetric bitwise, so one distance serves both directions.
	l.g.rebin(l.pos)
	l.fresh.reset()
	for i := range l.joined {
		l.joined[i] = l.joined[i][:0]
	}
	for j := range c.radios {
		if !l.moved[j] {
			continue
		}
		l.fresh.start = append(l.fresh.start, int32(len(l.fresh.idx)))
		p := l.pos[j]
		l.cand = l.g.candidates(p, l.maxLimit, l.cand)
		for _, i := range l.cand {
			if int(i) == j {
				continue
			}
			d := p.DistanceTo(l.pos[i])
			l.stats.Recomputed++
			if d <= l.limit[j] {
				l.fresh.add(i, d)
			}
			if !l.moved[i] && d <= l.limit[i] {
				l.joined[i] = append(l.joined[i], entry{int32(j), d})
			}
		}
	}
	l.fresh.start = append(l.fresh.start, int32(len(l.fresh.idx)))

	// Emit every row in registration order: a mover's fresh row, or an
	// unmoved radio's old entries for unmoved radios merged with the
	// movers that joined it.
	old := l.list
	next := l.spare
	next.reset()
	l.in.reset()
	mover := 0
	for i := range c.radios {
		next.start = append(next.start, int32(len(next.idx)))
		if l.moved[i] {
			idx, d0 := l.fresh.row(mover)
			mover++
			next.idx = append(next.idx, idx...)
			next.d0 = append(next.d0, d0...)
		} else {
			idx, d0 := old.row(i)
			join := l.joined[i]
			a, b := 0, 0
			for a < len(idx) || b < len(join) {
				if b == len(join) || (a < len(idx) && idx[a] < join[b].j) {
					if !l.moved[idx[a]] {
						next.add(idx[a], d0[a])
					}
					a++
				} else {
					next.add(join[b].j, join[b].d)
					b++
				}
			}
		}
	}
	next.start = append(next.start, int32(len(next.idx)))
	l.list, l.spare = next, old

	// Each row's in-reach run and settled span.
	for i, r := range c.radios {
		reach := c.reach(r)
		settled := l.still[i].span
		l.in.start = append(l.in.start, int32(len(l.in.idx)))
		idx, d0 := l.list.row(i)
		for k, j := range idx {
			settled = settled.meet(l.still[j].span)
			if d0[k] <= reach {
				l.in.add(j, d0[k])
			}
		}
		l.settled[i] = stillOver(settled, v)
	}
	l.in.start = append(l.in.start, int32(len(l.in.idx)))
}

// resize returns s with length n, reusing its storage when it can.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reached returns the indices (into c.radios) of every other radio within
// tx's reach at now, in registration order, and — with a propagation model
// installed — each one's exact distance. The slices live in channel
// scratch or in the lists themselves: callers must not modify them, and
// must not query the channel while walking them.
func (c *Channel) reached(tx *Radio, now sim.Time) (idx []int32, dist []float64) {
	c.refreshLists(now)
	l := &c.lists
	i := int(tx.idx)
	if l.settled[i].holds(now) {
		// Neither tx nor any radio in its list has moved: the in-reach
		// run is the answer, at exactly its d0.
		l.stats.Settled++
		return l.in.row(i)
	}
	// The row's own drift bounds every entry's, so its margin settles most
	// entries at a glance; only those in its band price their own.
	vnow := c.motionBound * now.Seconds()
	reach := c.reach(tx)
	dtx := l.still[i].drift(now, vnow)
	rowM := dtx + l.settled[i].drift(now, vnow) + reachEps
	lo, hi := reach-rowM, reach+rowM
	model := c.prop != nil
	list, d0s := l.list.row(i)
	l.stats.Walked += uint64(len(list))
	hits, dist := c.hits[:0], c.hitDist[:0]
	var p geom.Point
	posOK := false
	for k, j := range list {
		d := d0s[k]
		if d > hi {
			continue
		}
		if model || !(d <= lo) {
			if m := dtx + l.still[j].drift(now, vnow); m == 0 {
				if d > reach {
					continue
				}
			} else if m += reachEps; d > reach+m {
				continue
			} else if model || !(d <= reach-m) {
				if !posOK {
					p, posOK = tx.Position(now), true
				}
				l.stats.Exact++
				if d = p.DistanceTo(c.radios[j].Position(now)); d > reach {
					continue
				}
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

// fillLinks asks the model for every pair's radius, once per unordered
// pair, and stores it in both directions.
func (c *Channel) fillLinks() {
	n := len(c.radios)
	c.links = resize(c.links, n*n)
	for i, a := range c.radios {
		for j := i + 1; j < n; j++ {
			r := c.ranger.LinkRange(a.id, c.radios[j].id)
			c.links[i*n+j], c.links[j*n+i] = r, r
		}
	}
}

// linked is reached for a model with fixed link radii: the radios within
// tx's reach at now, in registration order, each with whether it decodes
// — or, unless lossy, only the radios that decode. An entry has two
// thresholds, the reach and its link radius L·s, and each is settled by
// reached's rules: d0 decides when both radios hold their anchors, a
// margin of their drifts plus reachEps decides certain verdicts, and
// only an entry in the band of a threshold its answer needs gets its
// exact distance. The decode verdict is then d/s <= L, the comparison
// Decodable makes. Same scratch contract as reached.
func (c *Channel) linked(tx *Radio, now sim.Time, lossy bool) (idx []int32, ok []bool) {
	c.refreshLists(now)
	l := &c.lists
	i := int(tx.idx)
	n := len(c.radios)
	radii := c.links[i*n : i*n+n]
	s := tx.txScale
	hits, oks := c.hits[:0], c.hitOK[:0]
	if l.settled[i].holds(now) {
		// Every entry holds its anchor: d0 is its exact distance.
		l.stats.Settled++
		in, d0s := l.in.row(i)
		for k, j := range in {
			if dec := d0s[k]/s <= radii[j]; lossy {
				oks = append(oks, dec)
			} else if dec {
				hits = append(hits, j)
			}
		}
		if lossy {
			c.hitOK = oks
			return in, oks
		}
		c.hits = hits
		return hits, nil
	}
	vnow := c.motionBound * now.Seconds()
	reach := c.reach(tx)
	dtx := l.still[i].drift(now, vnow)
	rowM := dtx + l.settled[i].drift(now, vnow) + reachEps
	list, d0s := l.list.row(i)
	l.stats.Walked += uint64(len(list))
	var p geom.Point
	posOK := false
	for k, j := range list {
		d := d0s[k]
		if d > reach+rowM {
			continue
		}
		t := radii[j] * s
		in, dec, sure := classify(d, reach, t, rowM, lossy)
		if !sure {
			// d0 is exact when both radios hold their anchors; otherwise
			// the entry's own margin may settle it, or its distance must.
			if m := dtx + l.still[j].drift(now, vnow); m != 0 {
				if in, dec, sure = classify(d, reach, t, m+reachEps, lossy); !sure {
					if !posOK {
						p, posOK = tx.Position(now), true
					}
					l.stats.Exact++
					d = p.DistanceTo(c.radios[j].Position(now))
				}
			}
			if !sure {
				in = d <= reach
				dec = in && d/s <= radii[j]
			}
		}
		if !lossy {
			if dec {
				hits = append(hits, j)
			}
		} else if in {
			hits = append(hits, j)
			oks = append(oks, dec)
		}
	}
	c.hits, c.hitOK = hits, oks
	return hits, oks
}

// classify settles an entry at listed distance d, at most m from its
// exact distance, against the reach and its link threshold t = L·s: sure
// reports whether the margin decides every verdict the query needs —
// whether it decodes, and when lossy whether it is within the reach.
func classify(d, reach, t, m float64, lossy bool) (in, dec, sure bool) {
	switch {
	case d > reach+m:
		return false, false, true
	case d > t+m:
		return d <= reach-m, false, !lossy || d <= reach-m
	case d <= t-m && d <= reach-m:
		return true, true, true
	}
	return false, false, false
}

// neighbors returns the radios that decode r's transmissions at now: the
// reached radios, less those the propagation model declines. Same scratch
// contract as reached.
func (c *Channel) neighbors(r *Radio, now sim.Time) []int32 {
	if c.ranger != nil {
		hits, _ := c.linked(r, now, false)
		return hits
	}
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

// anchor returns r's position at now and the span over which its model
// reports that position, widening r's position cache to the span.
func (r *Radio) anchor(now sim.Time) (geom.Point, span) {
	p := r.Position(now)
	from, until := mobility.StillInterval(r.mob, now)
	r.posFrom, r.posUntil = from, until
	return p, span{from, until - 1}
}
