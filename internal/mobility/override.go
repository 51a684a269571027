package mobility

import (
	"math"

	"rcast/internal/geom"
	"rcast/internal/sim"
)

// Shift is a timed displacement window: between Start and Stop the node's
// position is offset by Offset, ramping linearly in over [Start, Start+Ramp]
// and out over [Stop-Ramp, Stop]. The ramp bounds the extra speed the shift
// adds (Offset.Norm()/Ramp), which callers must fold into the channel's
// declared motion bound. A Shift with Ramp <= 0 degenerates to an
// instantaneous (unbounded-speed) jump and is rejected by MaxExtraSpeed
// returning +Inf; construct shifts with a positive ramp.
type Shift struct {
	Start, Stop sim.Time
	Ramp        sim.Time
	Offset      geom.Point
}

// factor returns the displacement fraction in [0, 1] applied at instant t.
func (s Shift) factor(t sim.Time) float64 {
	if t <= s.Start || t >= s.Stop {
		return 0
	}
	if s.Ramp <= 0 {
		return 1
	}
	if d := t - s.Start; d < s.Ramp {
		return float64(d) / float64(s.Ramp)
	}
	if d := s.Stop - t; d < s.Ramp {
		return float64(d) / float64(s.Ramp)
	}
	return 1
}

// constantAround returns an interval containing t over which the shift
// factor is constant: before the window opens, after it closes, or on the
// plateau between the ramps. On a ramp only t itself qualifies.
func (s Shift) constantAround(t sim.Time) (from, until sim.Time) {
	switch {
	case t <= s.Start:
		return math.MinInt64, s.Start + 1
	case t >= s.Stop:
		return s.Stop, math.MaxInt64
	case s.Ramp <= 0:
		return s.Start + 1, s.Stop
	case t-s.Start >= s.Ramp && s.Stop-t >= s.Ramp:
		return s.Start + s.Ramp, s.Stop - s.Ramp + 1
	}
	return t, t + 1
}

// MaxExtraSpeed returns the largest speed (m/s) the shift adds on top of
// the base model's own motion.
func (s Shift) MaxExtraSpeed() float64 {
	if s.Ramp <= 0 {
		return math.Inf(1)
	}
	return s.Offset.Norm() / s.Ramp.Seconds()
}

// Shifted wraps a base model with timed displacement overrides (partition
// faults). Like every Model it is a pure function of time: the shift factor
// is computed analytically, so arbitrary and out-of-order queries stay
// consistent and the position cache in phy remains valid.
type Shifted struct {
	Base   Model
	Shifts []Shift
}

var _ Model = (*Shifted)(nil)

// PositionAt implements Model.
func (s *Shifted) PositionAt(t sim.Time) geom.Point {
	p := s.Base.PositionAt(t)
	for _, sh := range s.Shifts {
		if f := sh.factor(t); f > 0 {
			p = p.Add(sh.Offset.Scale(f))
		}
	}
	return p
}

// StillInterval implements Stiller: the base model's still interval, cut
// to where every shift factor is constant.
func (s *Shifted) StillInterval(t sim.Time) (from, until sim.Time) {
	from, until = StillInterval(s.Base, t)
	for _, sh := range s.Shifts {
		f, u := sh.constantAround(t)
		from, until = max(from, f), min(until, u)
	}
	return from, until
}
