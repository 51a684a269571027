// Package mobility implements node movement models. The primary model is
// the random waypoint model used by the paper (Johnson & Maltz): a node
// travels to a uniformly chosen destination at a uniformly chosen speed,
// pauses for a fixed time, and repeats.
//
// Positions are computed analytically from a lazily extended list of
// movement legs, so queries at arbitrary instants are exact and no periodic
// "mobility tick" events are needed.
//
// A model may also implement the optional Stiller interface and report the
// still interval around an instant: the stretch over which its position is
// bitwise constant. Static is still forever, a Waypoint on each pause, a
// group Member while its reference and its wander both are, and a Shifted
// where its base is and every shift factor is constant; GaussMarkov never
// is. StillInterval answers for any Model, treating one that cannot say
// as still only at the instant asked about. The channel's reach lists use
// the intervals to settle links between radios that have not moved.
package mobility

import (
	"math"
	"math/rand"

	"rcast/internal/geom"
	"rcast/internal/sim"
)

// Model yields a node's position at any simulated instant. Implementations
// must be monotone-query friendly but are required to answer arbitrary
// (including repeated or out-of-order) instants consistently.
type Model interface {
	// PositionAt returns the node position at instant t >= 0.
	PositionAt(t sim.Time) geom.Point
}

// Stiller is implemented by models that can tell when they stand still.
type Stiller interface {
	// StillInterval returns an interval [from, until) containing t over
	// which PositionAt returns a bitwise-identical point.
	StillInterval(t sim.Time) (from, until sim.Time)
}

// StillInterval returns m's still interval around t, or [t, t+1) — still
// only at t itself — when m does not implement Stiller.
func StillInterval(m Model, t sim.Time) (from, until sim.Time) {
	if s, ok := m.(Stiller); ok {
		return s.StillInterval(t)
	}
	return t, t + 1
}

// Static pins a node at a fixed point. It models the paper's "static
// scenario" (pause time = simulation length).
type Static struct {
	P geom.Point
}

var _ Model = Static{}

// PositionAt implements Model.
func (s Static) PositionAt(sim.Time) geom.Point { return s.P }

// StillInterval implements Stiller: a static node is still forever.
func (Static) StillInterval(sim.Time) (from, until sim.Time) {
	return math.MinInt64, math.MaxInt64
}

// Waypoint is the random waypoint model.
//
// Each leg moves in a straight line from the previous waypoint to a fresh
// uniform destination at a speed drawn uniformly from [MinSpeed, MaxSpeed],
// then pauses for Pause. MinSpeed defaults to 0.1 m/s to avoid the
// well-known random-waypoint artifact of nodes becoming permanently stuck at
// near-zero speed.
type Waypoint struct {
	field    geom.Rect
	minSpeed float64
	maxSpeed float64
	pause    sim.Time
	rng      *rand.Rand

	legs []leg // covers [0, legs[len-1].end)
}

var _ Model = (*Waypoint)(nil)

type leg struct {
	start, end sim.Time
	from, to   geom.Point // equal while pausing
}

// WaypointConfig parameterizes NewWaypoint.
type WaypointConfig struct {
	Field    geom.Rect
	MinSpeed float64  // m/s; defaults to 0.1 if <= 0
	MaxSpeed float64  // m/s; must be >= MinSpeed
	Pause    sim.Time // dwell time at each waypoint
	Start    geom.Point
}

// NewWaypoint creates a random waypoint model. The rng must be dedicated to
// this node (see sim.Stream) to keep trajectories reproducible.
func NewWaypoint(cfg WaypointConfig, rng *rand.Rand) *Waypoint {
	minSpeed := cfg.MinSpeed
	if minSpeed <= 0 {
		minSpeed = 0.1
	}
	maxSpeed := cfg.MaxSpeed
	if maxSpeed < minSpeed {
		maxSpeed = minSpeed
	}
	w := &Waypoint{
		field:    cfg.Field,
		minSpeed: minSpeed,
		maxSpeed: maxSpeed,
		pause:    cfg.Pause,
		rng:      rng,
	}
	// Nodes begin paused at their start position, matching ns-2 setdest.
	w.legs = append(w.legs, leg{start: 0, end: cfg.Pause, from: cfg.Start, to: cfg.Start})
	return w
}

// PositionAt implements Model.
func (w *Waypoint) PositionAt(t sim.Time) geom.Point {
	if t < 0 {
		t = 0
	}
	w.extendTo(t)
	return legPosition(w.legs, t)
}

// StillInterval implements Stiller: the leg around t when it is a pause.
// It reads only the legs PositionAt(t) materializes, so it draws nothing
// a position query would not.
func (w *Waypoint) StillInterval(t sim.Time) (from, until sim.Time) {
	if t < 0 {
		return t, t + 1
	}
	w.extendTo(t)
	if l := w.legs[legAt(w.legs, t)]; l.from == l.to {
		return l.start, l.end
	}
	return t, t + 1
}

// legAt returns the index of the leg covering instant t in a leg list
// (binary search; legs are contiguous and sorted by time).
func legAt(legs []leg, t sim.Time) int {
	lo, hi := 0, len(legs)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if legs[mid].end <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// legPosition interpolates a position on a leg list covering instant t.
func legPosition(legs []leg, t sim.Time) geom.Point {
	l := legs[legAt(legs, t)]
	if l.from == l.to || l.end == l.start {
		return l.from
	}
	f := float64(t-l.start) / float64(l.end-l.start)
	if f > 1 {
		f = 1
	}
	return l.from.Lerp(l.to, f)
}

// extendTo appends legs until the trajectory covers instant t.
func (w *Waypoint) extendTo(t sim.Time) {
	for w.legs[len(w.legs)-1].end <= t {
		last := w.legs[len(w.legs)-1]
		from := last.to
		to := w.field.RandomPoint(w.rng)
		speed := w.minSpeed + w.rng.Float64()*(w.maxSpeed-w.minSpeed)
		dist := from.DistanceTo(to)
		dur := sim.FromSeconds(dist / speed)
		if dur < sim.Microsecond {
			dur = sim.Microsecond
		}
		move := leg{start: last.end, end: last.end + dur, from: from, to: to}
		w.legs = append(w.legs, move)
		if w.pause > 0 {
			w.legs = append(w.legs, leg{
				start: move.end, end: move.end + w.pause, from: to, to: to,
			})
		}
	}
}
