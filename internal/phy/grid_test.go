package phy

import (
	"math/rand"
	"testing"

	"rcast/internal/geom"
	"rcast/internal/mobility"
	"rcast/internal/sim"
)

// bruteNeighbors recomputes a radio's neighbor list by exhaustive pairwise
// distance checks, the reference the reach lists must reproduce exactly.
func bruteNeighbors(ch *Channel, of *Radio, now sim.Time) []NodeID {
	p := of.Position(now)
	var out []NodeID
	for _, r := range ch.radios {
		if r == of {
			continue
		}
		if p.DistanceTo(r.Position(now)) <= ch.rangeM {
			out = append(out, r.id)
		}
	}
	return out
}

func sameIDs(t *testing.T, got, want []NodeID, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, want %v", context, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: got %v, want %v", context, got, want)
		}
	}
}

// TestGridMatchesBruteForceStatic places radios uniformly at random and
// checks that Neighbors/CountNeighbors/InRange agree with the exhaustive
// scan for every node, including positions near grid cell boundaries and
// outside the nominal field.
func TestGridMatchesBruteForceStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		sched := sim.NewScheduler()
		rangeM := 50 + 300*rng.Float64()
		ch := NewChannel(sched, rangeM)
		ch.SetMotionBound(0) // static: the reach lists are never rebuilt
		n := 2 + rng.Intn(120)
		for i := 0; i < n; i++ {
			// Deliberately spread beyond one grid cell and into negative
			// coordinates to exercise the floor-based binning.
			p := geom.Point{
				X: -200 + 2000*rng.Float64(),
				Y: -200 + 800*rng.Float64(),
			}
			ch.AddRadio(NodeID(i), mobility.Static{P: p})
		}
		for _, r := range ch.radios {
			want := bruteNeighbors(ch, r, 0)
			sameIDs(t, ch.Neighbors(r, 0), want, "Neighbors")
			if got := ch.CountNeighbors(r, 0); got != len(want) {
				t.Fatalf("CountNeighbors(%v) = %d, want %d", r.id, got, len(want))
			}
		}
		a, b := ch.radios[0], ch.radios[n-1]
		inRange := a.Position(0).DistanceTo(b.Position(0)) <= rangeM
		if ch.InRange(a, b, 0) != inRange {
			t.Fatalf("InRange(%v, %v) = %v, want %v", a.id, b.id, !inRange, inRange)
		}
	}
}

// TestGridMatchesBruteForceMobile drives waypoint-mobile radios across
// many reach-list rebuilds and checks queries against the exhaustive scan at
// every probe instant.
func TestGridMatchesBruteForceMobile(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, 250)
	const maxSpeed = 20.0
	ch.SetMotionBound(maxSpeed)
	field := geom.Rect{W: 1500, H: 300}
	for i := 0; i < 60; i++ {
		mob := mobility.NewWaypoint(mobility.WaypointConfig{
			Field:    field,
			MinSpeed: 1,
			MaxSpeed: maxSpeed,
			Start:    geom.Point{X: field.W * float64(i) / 60, Y: field.H * float64(i%7) / 7},
		}, sim.Stream(int64(i), "grid-test"))
		ch.AddRadio(NodeID(i), mob)
	}
	// Probe at irregular instants spanning several staleness windows (the
	// slack of 250/4 m at 20 m/s is exceeded after ~3 s).
	for _, sec := range []float64{0, 0.5, 2.9, 3.4, 10, 30, 31, 95} {
		now := sim.FromSeconds(sec)
		sched.RunUntil(now)
		for _, r := range ch.radios {
			want := bruteNeighbors(ch, r, now)
			sameIDs(t, ch.Neighbors(r, now), want, "Neighbors @"+now.String())
			if got := ch.CountNeighbors(r, now); got != len(want) {
				t.Fatalf("CountNeighbors(%v) @%v = %d, want %d", r.id, now, got, len(want))
			}
		}
	}
}

// TestGridCSRMatchesBruteForce pushes the population past gridScanThreshold
// so queries take the CSR-index path (the quick experiment profiles never
// do), and checks every query agrees with the exhaustive scan — including
// the registration-order visiting contract VisitNeighbors promises.
func TestGridCSRMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sched := sim.NewScheduler()
	ch := NewChannel(sched, 180)
	ch.SetMotionBound(0)
	n := gridScanThreshold + 60
	for i := 0; i < n; i++ {
		p := geom.Point{
			X: -300 + 3000*rng.Float64(),
			Y: -300 + 1500*rng.Float64(),
		}
		ch.AddRadio(NodeID(i), mobility.Static{P: p})
	}
	for step := 0; step < n; step += 23 {
		r := ch.radios[step]
		want := bruteNeighbors(ch, r, 0)
		sameIDs(t, ch.Neighbors(r, 0), want, "Neighbors (CSR)")
		var visited []NodeID
		ch.VisitNeighbors(r, 0, func(id NodeID) { visited = append(visited, id) })
		sameIDs(t, visited, want, "VisitNeighbors (CSR)")
		if got := ch.CountNeighbors(r, 0); got != len(want) {
			t.Fatalf("CountNeighbors(%v) = %d, want %d", r.id, got, len(want))
		}
	}
}

// TestVisitNeighborsMatchesNeighbors checks the allocation-free visitor
// against the slice-returning query across reach-list rebuilds of a
// mobile scenario (the small-population grid path).
func TestVisitNeighborsMatchesNeighbors(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, 250)
	const maxSpeed = 20.0
	ch.SetMotionBound(maxSpeed)
	field := geom.Rect{W: 1500, H: 300}
	for i := 0; i < 50; i++ {
		mob := mobility.NewWaypoint(mobility.WaypointConfig{
			Field:    field,
			MinSpeed: 1,
			MaxSpeed: maxSpeed,
			Start:    geom.Point{X: field.W * float64(i) / 50, Y: field.H * float64(i%5) / 5},
		}, sim.Stream(int64(i), "visit-test"))
		ch.AddRadio(NodeID(i), mob)
	}
	for _, sec := range []float64{0, 1.5, 4, 20, 60} {
		now := sim.FromSeconds(sec)
		sched.RunUntil(now)
		for _, r := range ch.radios {
			want := ch.Neighbors(r, now)
			var got []NodeID
			ch.VisitNeighbors(r, now, func(id NodeID) { got = append(got, id) })
			sameIDs(t, got, want, "VisitNeighbors @"+now.String())
		}
	}
}

// TestGridTransmitMatchesLinear runs the same broadcast on a channel with a
// declared motion bound and on one without (whose reach lists are rebuilt
// at every query instant) and checks the delivery sets match.
func TestGridTransmitMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	points := make([]geom.Point, 80)
	for i := range points {
		points[i] = geom.Point{X: 1500 * rng.Float64(), Y: 300 * rng.Float64()}
	}
	deliveries := func(useGrid bool) []int {
		sched := sim.NewScheduler()
		ch := NewChannel(sched, 250)
		if useGrid {
			ch.SetMotionBound(0)
		}
		caps := make([]*capture, len(points))
		radios := make([]*Radio, len(points))
		for i, p := range points {
			radios[i] = ch.AddRadio(NodeID(i), mobility.Static{P: p})
			caps[i] = &capture{}
			radios[i].SetReceiver(caps[i])
		}
		ch.Transmit(radios[0], Frame{From: 0, To: Broadcast, Bytes: 512}, 2)
		sched.Run()
		var got []int
		for i, c := range caps {
			if len(c.frames) > 0 {
				got = append(got, i)
			}
		}
		return got
	}
	grid, linear := deliveries(true), deliveries(false)
	if len(grid) != len(linear) {
		t.Fatalf("grid delivered to %v, linear to %v", grid, linear)
	}
	for i := range grid {
		if grid[i] != linear[i] {
			t.Fatalf("grid delivered to %v, linear to %v", grid, linear)
		}
	}
}
