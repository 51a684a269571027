package phy_test

import (
	"math/rand"
	"testing"

	"rcast/internal/geom"
	"rcast/internal/mobility"
	"rcast/internal/phy"
	"rcast/internal/propagation"
	"rcast/internal/sim"
)

// buildChannel assembles a propagation-model channel over n radios, mobile
// when maxSpeed > 0, with deterministic layout drawn from seed.
func buildChannel(seed int64, model string, sigma float64, n int, maxSpeed float64) (*phy.Channel, *sim.Scheduler, propagation.Model, error) {
	sched := sim.NewScheduler()
	const rangeM = 250.0
	ch := phy.NewChannel(sched, rangeM)
	// The waypoints below never go slower than MinSpeed = 1 m/s, so that
	// is the least bound that holds.
	if maxSpeed > 0 {
		ch.SetMotionBound(max(maxSpeed, 1))
	} else {
		ch.SetMotionBound(0)
	}
	m, err := propagation.Parse(model, rangeM, sigma, sim.DeriveSeed(seed, "prop"))
	if err != nil {
		return nil, nil, nil, err
	}
	ch.SetPropagation(m)
	rng := rand.New(rand.NewSource(seed))
	field := geom.Rect{W: 1500, H: 300}
	for i := 0; i < n; i++ {
		start := geom.Point{
			X: -100 + (field.W+200)*rng.Float64(),
			Y: -100 + (field.H+200)*rng.Float64(),
		}
		if maxSpeed > 0 {
			ch.AddRadio(phy.NodeID(i), mobility.NewWaypoint(mobility.WaypointConfig{
				Field:    field,
				MinSpeed: 1,
				MaxSpeed: maxSpeed,
				Start:    field.Clamp(start),
			}, sim.Stream(seed+int64(i), "fuzz-prop")))
		} else {
			ch.AddRadio(phy.NodeID(i), mobility.Static{P: start})
		}
	}
	return ch, sched, m, nil
}

// FuzzPropagationGrid fuzzes the reach lists against the exhaustive pairwise
// reference under variable effective range: with a propagation model
// installed, a link can extend past the nominal radius (constructive
// shadowing/fading draws) or break inside it, and every neighbor query —
// Neighbors, VisitNeighbors, CountNeighbors, InRange — must still agree
// with brute force at every probe instant.
func FuzzPropagationGrid(f *testing.F) {
	f.Add(int64(1), uint8(0), 6.0, 30, 0.0)
	f.Add(int64(2), uint8(1), 4.0, 40, 20.0)
	f.Add(int64(3), uint8(1), 12.0, 80, 0.0)
	f.Add(int64(4), uint8(2), 0.0, 60, 20.0)
	f.Add(int64(5), uint8(2), 0.0, 220, 0.0)
	f.Add(int64(6), uint8(1), 0.0, 25, 10.0)
	f.Fuzz(func(t *testing.T, seed int64, modelIdx uint8, sigma float64, n int, maxSpeed float64) {
		names := propagation.Names()
		model := names[int(modelIdx)%len(names)]
		if sigma < 0 || sigma > 16 {
			sigma = 4
		}
		if n < 2 || n > 260 {
			n = 2 + int(uint(n)%259)
		}
		if maxSpeed < 0 || maxSpeed > 40 {
			maxSpeed = 0
		}
		ch, sched, m, err := buildChannel(seed, model, sigma, n, maxSpeed)
		if err != nil {
			t.Fatal(err)
		}
		probes := []sim.Time{0}
		if maxSpeed > 0 {
			// Span several skin lifetimes so list rebuilds are exercised.
			probes = append(probes, sim.FromSeconds(2.9), sim.FromSeconds(10), sim.FromSeconds(31))
		}
		radios := ch.Radios()
		for _, now := range probes {
			sched.RunUntil(now)
			for _, r := range radios {
				p := r.Position(now)
				var want []phy.NodeID
				for _, o := range radios {
					if o == r {
						continue
					}
					if m.Decodable(now, r.ID(), o.ID(), p.DistanceTo(o.Position(now))) {
						want = append(want, o.ID())
					}
				}
				got := ch.Neighbors(r, now)
				if len(got) != len(want) {
					t.Fatalf("Neighbors(%v) @%v = %v, want %v", r.ID(), now, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("Neighbors(%v) @%v = %v, want %v", r.ID(), now, got, want)
					}
				}
				if c := ch.CountNeighbors(r, now); c != len(want) {
					t.Fatalf("CountNeighbors(%v) @%v = %d, want %d", r.ID(), now, c, len(want))
				}
				var visited []phy.NodeID
				ch.VisitNeighbors(r, now, func(id phy.NodeID) { visited = append(visited, id) })
				for i := range want {
					if visited[i] != want[i] {
						t.Fatalf("VisitNeighbors(%v) @%v = %v, want %v", r.ID(), now, visited, want)
					}
				}
				if len(visited) != len(want) {
					t.Fatalf("VisitNeighbors(%v) @%v visited %d, want %d", r.ID(), now, len(visited), len(want))
				}
			}
			// InRange spot checks, including pairs beyond MaxRange.
			a := radios[0]
			for _, b := range radios[1:] {
				d := a.Position(now).DistanceTo(b.Position(now))
				if ch.InRange(a, b, now) != m.Decodable(now, a.ID(), b.ID(), d) {
					t.Fatalf("InRange(%v,%v) @%v disagrees with model at dist %v", a.ID(), b.ID(), now, d)
				}
			}
		}
	})
}
