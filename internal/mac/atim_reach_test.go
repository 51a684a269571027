package mac

import (
	"math/rand"
	"slices"
	"testing"

	"rcast/internal/core"
	"rcast/internal/geom"
	"rcast/internal/mobility"
	"rcast/internal/phy"
	"rcast/internal/sim"
)

// annStation is a scripted PSM participant: it advertises a random batch
// each beacon and hands its ATIM-window close to a hook.
type annStation struct {
	radio *phy.Radio
	rng   *rand.Rand
	dsts  []phy.NodeID // advertisement destinations to draw from
	anns  []Announcement
	onEnd func(now sim.Time)
}

func (s *annStation) BeaconStart(sim.Time) []Announcement {
	s.anns = s.anns[:0]
	for k := s.rng.Intn(4); k > 0; k-- {
		s.anns = append(s.anns, Announcement{
			From:  s.radio.ID(),
			To:    s.dsts[s.rng.Intn(len(s.dsts))],
			Level: core.Level(1 + s.rng.Intn(3)),
		})
	}
	return s.anns
}

func (s *annStation) ATIMEnd(now sim.Time, _ []Announcement, _ sim.Time) {
	if s.onEnd != nil {
		s.onEnd(now)
	}
}

func (s *annStation) ATIMOutcome(sim.Time, []Announcement) {}
func (s *annStation) Radio() *phy.Radio                    { return s.radio }

// refATIM is the reach resolution atimEnd replaced: for every receiver,
// test every announcement's sender with InRange, then drop same-slot
// announcements under contention.
func refATIM(c *Coordinator, at sim.Time) (heard, admitted [][]Announcement, collisions uint64) {
	heard = make([][]Announcement, len(c.stations))
	decoded := make([]bool, len(c.anns))
	for ri, r := range c.stations {
		var receivable []int
		for gi, t := range c.anns {
			if t.sender != ri && c.ch.InRange(c.stations[t.sender].Radio(), r.Radio(), at) {
				receivable = append(receivable, gi)
			}
		}
		if c.p.ATIMContention {
			perSlot := map[int]int{}
			for _, gi := range receivable {
				perSlot[c.anns[gi].slot]++
			}
			var kept []int
			for _, gi := range receivable {
				if perSlot[c.anns[gi].slot] == 1 {
					kept = append(kept, gi)
				} else {
					collisions++
				}
			}
			receivable = kept
		}
		for _, gi := range receivable {
			if c.anns[gi].ann.To == r.Radio().ID() {
				decoded[gi] = true
			}
			heard[ri] = append(heard[ri], c.anns[gi].ann)
		}
	}
	if c.p.ATIMContention {
		admitted = make([][]Announcement, len(c.stations))
		for gi, t := range c.anns {
			if t.ann.To == phy.Broadcast || decoded[gi] {
				admitted[t.sender] = append(admitted[t.sender], t.ann)
			}
		}
	}
	return heard, admitted, collisions
}

// TestATIMReachMatchesPairwiseScan checks that walking each sender's reach
// resolves the ATIM window exactly as testing every (receiver,
// announcement) pair with InRange did: the same heard lists in the same
// order, the same admissions and the same slot-collision count. Topologies
// are random and partly mobile, radios transmit at mixed powers, station
// order differs from radio order and some radios host no station.
func TestATIMReachMatchesPairwiseScan(t *testing.T) {
	heardTotal, collisionsTotal := 0, uint64(0)
	for trial := 0; trial < 24; trial++ {
		contention := trial%2 == 1
		rng := rand.New(rand.NewSource(int64(trial)))
		sched := sim.NewScheduler()
		ch := phy.NewChannel(sched, 250)
		if trial%3 != 0 {
			ch.SetMotionBound(20)
		}
		field := geom.Rect{W: 1000, H: 400}
		n := 4 + rng.Intn(30)
		var radios []*phy.Radio
		for i := 0; i < n; i++ {
			var mob mobility.Model = mobility.Static{P: field.RandomPoint(rng)}
			if trial%3 != 0 && rng.Intn(2) == 0 {
				mob = mobility.NewWaypoint(mobility.WaypointConfig{
					Field:    field,
					MinSpeed: 1,
					MaxSpeed: 20,
					Start:    field.RandomPoint(rng),
				}, sim.Stream(int64(trial*100+i), "atim-reach"))
			}
			r := ch.AddRadio(phy.NodeID(i), mob)
			if rng.Intn(3) == 0 {
				r.SetTxRangeScale([]float64{0.5, 1.5, 2}[rng.Intn(3)])
			}
			radios = append(radios, r)
		}
		p := DefaultParams()
		p.ATIMContention = contention
		p.ATIMSlots = 1 + rng.Intn(8)
		c := NewCoordinator(sched, ch, p, sim.Stream(int64(trial), "atim"), 10*sim.Second)
		dsts := []phy.NodeID{phy.Broadcast}
		for _, r := range radios {
			dsts = append(dsts, r.ID())
		}
		var stations []*annStation
		for _, i := range rng.Perm(n) {
			if i%5 == 4 {
				continue // a radio without a station
			}
			s := &annStation{radio: radios[i], rng: rand.New(rand.NewSource(int64(i))), dsts: dsts}
			stations = append(stations, s)
			c.AddStation(s)
		}
		var prevCollisions uint64
		// The first station's ATIMEnd runs once the window is resolved
		// and before anything else changes: compare it there.
		stations[0].onEnd = func(now sim.Time) {
			heard, admitted, collisions := refATIM(c, now)
			for ri := range heard {
				if !slices.Equal(c.heard[ri], heard[ri]) {
					t.Fatalf("trial %d @%v: station %d heard %v, want %v", trial, now, ri, c.heard[ri], heard[ri])
				}
				heardTotal += len(heard[ri])
			}
			if contention {
				for si := range admitted {
					if !slices.Equal(c.admitted[si], admitted[si]) {
						t.Fatalf("trial %d @%v: station %d admitted %v, want %v", trial, now, si, c.admitted[si], admitted[si])
					}
				}
			}
			if got := c.ATIMCollisions() - prevCollisions; got != collisions {
				t.Fatalf("trial %d @%v: %d ATIM collisions, want %d", trial, now, got, collisions)
			}
			prevCollisions = c.ATIMCollisions()
		}
		c.Start()
		sched.RunUntil(10 * sim.Second)
		collisionsTotal += prevCollisions
	}
	if heardTotal == 0 || collisionsTotal == 0 {
		t.Fatalf("the trials heard %d announcements with %d collisions; want both non-zero", heardTotal, collisionsTotal)
	}
}
