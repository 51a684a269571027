package mobility

import (
	"math/rand"
	"testing"

	"rcast/internal/geom"
	"rcast/internal/sim"
)

// stillModel builds one of the composed models the simulator uses from a
// seed: a waypoint, a group member, or either (or a static node) under
// partition-style shifts with random windows and ramps, zero ramps and
// windows that close before they open included. Calling it twice with the
// same arguments gives two independent models with equal trajectories.
func stillModel(seed int64, kind uint8, pause sim.Time) Model {
	rng := rand.New(rand.NewSource(seed))
	start := testField.RandomPoint(rng)
	wp := func(field geom.Rect, s int64) Model {
		return NewWaypoint(WaypointConfig{
			Field:    field,
			MinSpeed: 1,
			MaxSpeed: 20,
			Pause:    pause,
			Start:    field.RandomPoint(rand.New(rand.NewSource(s))),
		}, sim.Stream(s, "still"))
	}
	member := func() Model {
		box := geom.Rect{W: 100, H: 100}
		return Member{Field: testField, Ref: wp(testField, seed+1), Local: wp(box, seed+2), Center: geom.Point{X: 50, Y: 50}}
	}
	var base Model
	switch kind % 4 {
	case 0:
		return wp(testField, seed)
	case 1:
		return member()
	case 2:
		base = wp(testField, seed)
	default:
		base = Static{P: start}
		if rng.Intn(2) == 0 {
			base = member()
		}
	}
	shifts := make([]Shift, 1+rng.Intn(3))
	for i := range shifts {
		s := sim.Time(rng.Int63n(int64(200 * sim.Second)))
		shifts[i] = Shift{
			Start:  s,
			Stop:   s + sim.Time(rng.Int63n(int64(100*sim.Second))) - 10*sim.Second,
			Ramp:   sim.Time(rng.Int63n(int64(20*sim.Second))) - 2*sim.Second,
			Offset: geom.Point{X: 100 * rng.Float64(), Y: 50 * rng.Float64()},
		}
	}
	return &Shifted{Base: base, Shifts: shifts}
}

// FuzzStillIntervals checks the Stiller contract on the composed models:
// a reported interval contains the instant asked about, and the position
// is bitwise constant over it — at both ends and at random instants
// inside, asked of a second, untouched copy of the model.
func FuzzStillIntervals(f *testing.F) {
	f.Add(int64(1), uint8(0), uint32(10_000))
	f.Add(int64(2), uint8(1), uint32(30_000))
	f.Add(int64(3), uint8(2), uint32(5_000))
	f.Add(int64(4), uint8(3), uint32(60_000))
	f.Add(int64(5), uint8(1), uint32(0))
	f.Add(int64(6), uint8(2), uint32(1))
	f.Add(int64(7), uint8(3), uint32(120_000))
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, pauseMs uint32) {
		pause := sim.Time(pauseMs%600_000) * sim.Millisecond
		probe, ref := stillModel(seed, kind, pause), stillModel(seed, kind, pause)
		rng := rand.New(rand.NewSource(seed))
		const horizon = 400 * sim.Second
		for k := 0; k < 50; k++ {
			at := sim.Time(rng.Int63n(int64(horizon)))
			from, until := StillInterval(probe, at)
			if !(from <= at && at < until) {
				t.Fatalf("still interval [%v, %v) misses %v", from, until, at)
			}
			want := ref.PositionAt(at)
			lo, hi := max(from, at-horizon), min(until, at+horizon)
			for _, when := range []sim.Time{from, until - 1, lo + sim.Time(rng.Int63n(int64(hi-lo))), lo + sim.Time(rng.Int63n(int64(hi-lo)))} {
				if got := ref.PositionAt(when); got != want {
					t.Fatalf("at %v, inside the still interval [%v, %v) around %v, position %v differs from %v",
						when, from, until, at, got, want)
				}
			}
		}
	})
}
