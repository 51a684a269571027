package mobility

import (
	"rcast/internal/geom"
	"rcast/internal/sim"
)

// Member is one node of a reference-point group mobility (RPGM) group
// (Hong et al.): the whole group follows a shared reference trajectory —
// typically a Waypoint over the full field — while each member wanders on
// its own local trajectory inside a box around the reference point. The
// member position is
//
//	Clamp(ref(t) + local(t) - center)
//
// where center is the middle of the local box, so the local trajectory
// contributes a zero-centred offset bounded by the box half-extent (the
// group radius). Clamping keeps members on the field when the reference
// point travels near an edge.
//
// Member composes pure-function-of-time models, so it is itself pure —
// the property the radio's position cache relies on. The reference model
// is shared by every member of a group; sharing is safe because all model
// code runs on the single-threaded simulation kernel.
type Member struct {
	Field  geom.Rect
	Ref    Model      // shared per-group reference trajectory
	Local  Model      // per-node trajectory inside the local box
	Center geom.Point // middle of the local box (its half-extent)
}

var _ Model = Member{}

// PositionAt implements Model.
func (m Member) PositionAt(t sim.Time) geom.Point {
	return m.Field.Clamp(m.Ref.PositionAt(t).Add(m.Local.PositionAt(t).Sub(m.Center)))
}

// StillInterval implements Stiller: a member stands still while both its
// reference and its wander do.
func (m Member) StillInterval(t sim.Time) (from, until sim.Time) {
	from, until = StillInterval(m.Ref, t)
	lf, lu := StillInterval(m.Local, t)
	return max(from, lf), min(until, lu)
}
