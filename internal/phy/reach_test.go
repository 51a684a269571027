package phy_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"rcast/internal/geom"
	"rcast/internal/mobility"
	"rcast/internal/phy"
	"rcast/internal/propagation"
	"rcast/internal/sim"
)

// linear moves at a constant velocity over an unbounded plane, so its
// speed is exactly |vel|: two of them moving apart make the reach lists'
// pair-drift bound tight.
type linear struct{ p0, vel geom.Point }

func (m linear) PositionAt(t sim.Time) geom.Point {
	s := t.Seconds()
	return geom.Point{X: m.p0.X + m.vel.X*s, Y: m.p0.Y + m.vel.Y*s}
}

// scripted takes turns holding still and moving: leg k begins at
// starts[k] (the first at the dawn of time) at point at[k], and moves at
// vel[k] unless that is zero. A moving leg has a nanosecond's motion on it
// already at its first instant, so a radio taken as still one instant past
// its still interval is somewhere else.
type scripted struct {
	starts  []sim.Time
	at, vel []geom.Point
}

// script returns a radio that holds still at p and, from each boundary on
// in turn, moves at vel or holds still where that left it.
func script(p, vel geom.Point, bounds ...sim.Time) *scripted {
	m := &scripted{starts: []sim.Time{math.MinInt64}, at: []geom.Point{p}, vel: []geom.Point{{}}}
	for i, b := range bounds {
		v := vel
		if i%2 == 1 {
			v = geom.Point{}
		}
		m.at = append(m.at, m.PositionAt(b-1))
		m.starts = append(m.starts, b)
		m.vel = append(m.vel, v)
	}
	return m
}

func (m *scripted) leg(t sim.Time) int {
	k := 0
	for k+1 < len(m.starts) && m.starts[k+1] <= t {
		k++
	}
	return k
}

func (m *scripted) PositionAt(t sim.Time) geom.Point {
	k := m.leg(t)
	if m.vel[k] == (geom.Point{}) {
		return m.at[k]
	}
	s := (t - m.starts[k] + 1).Seconds()
	return geom.Point{X: m.at[k].X + m.vel[k].X*s, Y: m.at[k].Y + m.vel[k].Y*s}
}

func (m *scripted) StillInterval(t sim.Time) (from, until sim.Time) {
	k := m.leg(t)
	if m.vel[k] != (geom.Point{}) {
		return t, t + 1
	}
	until = math.MaxInt64
	if k+1 < len(m.starts) {
		until = m.starts[k+1]
	}
	return m.starts[k], until
}

// bruteReach is the exhaustive scan the reach lists replace: the radios a
// transmission from r at now reaches, and those of them that decode it.
// Positions come from the mobility models themselves, past any cache the
// channel keeps.
func bruteReach(ch *phy.Channel, m phy.Propagation, r *phy.Radio, now sim.Time) (reached, decoded []phy.NodeID) {
	p := r.Mobility().PositionAt(now)
	s := r.TxRangeScale()
	reach := ch.Range() * s
	if m != nil {
		reach = m.MaxRange() * s
	}
	for _, o := range ch.Radios() {
		if o == r {
			continue
		}
		d := p.DistanceTo(o.Mobility().PositionAt(now))
		if d > reach {
			continue
		}
		reached = append(reached, o.ID())
		if m == nil || m.Decodable(now, r.ID(), o.ID(), d/s) {
			decoded = append(decoded, o.ID())
		}
	}
	return reached, decoded
}

// checkQueries compares every neighbor query of every radio at now with
// the exhaustive scan.
func checkQueries(t *testing.T, ch *phy.Channel, m phy.Propagation, now sim.Time) {
	t.Helper()
	radios := ch.Radios()
	for _, r := range radios {
		_, want := bruteReach(ch, m, r, now)
		if got := ch.Neighbors(r, now); !slices.Equal(got, want) {
			t.Fatalf("Neighbors(%v) @%v = %v, want %v", r.ID(), now, got, want)
		}
		if got := ch.CountNeighbors(r, now); got != len(want) {
			t.Fatalf("CountNeighbors(%v) @%v = %d, want %d", r.ID(), now, got, len(want))
		}
		var visited []phy.NodeID
		ch.VisitNeighbors(r, now, func(id phy.NodeID) { visited = append(visited, id) })
		if !slices.Equal(visited, want) {
			t.Fatalf("VisitNeighbors(%v) @%v = %v, want %v", r.ID(), now, visited, want)
		}
		for _, o := range radios {
			if o != r && ch.InRange(r, o, now) != slices.Contains(want, o.ID()) {
				t.Fatalf("InRange(%v, %v) @%v disagrees with the scan", r.ID(), o.ID(), now)
			}
		}
	}
}

// rxLog records, per transmission, who decoded the frame and who lost it
// to the propagation model.
type rxLog struct{ delivered, chanLost []phy.NodeID }

func (l *rxLog) FrameDelivered(_ sim.Time, rx phy.NodeID, _ bool, _ phy.Frame) {
	l.delivered = append(l.delivered, rx)
}

func (l *rxLog) FrameLost(_ sim.Time, rx phy.NodeID, _ phy.Frame, reason string) {
	if reason == phy.LossChannel {
		l.chanLost = append(l.chanLost, rx)
	}
}

// checkTransmit broadcasts one frame from r at the scheduler's instant and
// requires the deliveries and channel losses the exhaustive scan predicts.
// Every radio is awake and the clock moves past the frame's end before the
// next one starts (a frame nobody receives schedules no event), so nothing
// else can claim a receiver.
func checkTransmit(t *testing.T, ch *phy.Channel, sched *sim.Scheduler, m phy.Propagation, log *rxLog, r *phy.Radio) {
	t.Helper()
	now := sched.Now()
	reached, decoded := bruteReach(ch, m, r, now)
	var lost []phy.NodeID
	for _, id := range reached {
		if !slices.Contains(decoded, id) {
			lost = append(lost, id)
		}
	}
	log.delivered, log.chanLost = log.delivered[:0], log.chanLost[:0]
	ch.Transmit(r, phy.Frame{From: r.ID(), To: phy.Broadcast, Bytes: 64}, 2)
	sched.RunUntil(now + phy.Airtime(64, 2))
	if !slices.Equal(log.delivered, decoded) || !slices.Equal(log.chanLost, lost) {
		t.Fatalf("Transmit(%v) @%v delivered %v, chan-lost %v; want %v, %v",
			r.ID(), now, log.delivered, log.chanLost, decoded, lost)
	}
}

// FuzzReachLists drives the reach lists against the exhaustive scan where
// their shortcuts are most likely to slip: pairs whose distance crosses the
// reach within a few ulps of a query instant, at a pair drift just below
// and just above the skin, pairs at the reach whose pause ends within a
// nanosecond of a query instant, radios that pause and move in turn and
// are queried in a different still interval than the build saw, queries
// before the build instant, a model, transmit scales and registrations
// changed after the first query, static and mobile channels (the motion
// bound declared or not), and the disk fast path as well as the
// propagation models.
func FuzzReachLists(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(0), 20.0, true)
	f.Add(int64(2), uint8(30), uint8(1), 20.0, true)
	f.Add(int64(3), uint8(20), uint8(0), 0.0, true)
	f.Add(int64(4), uint8(20), uint8(1), 0.0, true)
	f.Add(int64(5), uint8(40), uint8(2), 5.0, true)
	f.Add(int64(6), uint8(40), uint8(3), 30.0, true)
	f.Add(int64(7), uint8(15), uint8(0), 20.0, false)
	f.Add(int64(8), uint8(15), uint8(3), 0.0, true)
	f.Add(int64(9), uint8(50), uint8(0), 1.5, true)
	f.Add(int64(10), uint8(25), uint8(1), 3.0, true)
	f.Add(int64(11), uint8(25), uint8(0), 0.7, true)
	f.Add(int64(12), uint8(25), uint8(0), 12.0, true)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, modelIdx uint8, speed float64, declare bool) {
		const rangeM = 250.0
		v := speed
		if !(v >= 0 && v <= 40) {
			v = 0
		}
		rng := rand.New(rand.NewSource(seed))
		sched := sim.NewScheduler()
		ch := phy.NewChannel(sched, rangeM)
		var m phy.Propagation
		if k := int(modelIdx % 4); k > 0 {
			var err error
			if m, err = propagation.Parse(propagation.Names()[k-1], rangeM, 6, seed); err != nil {
				t.Fatal(err)
			}
		}
		if declare {
			ch.SetMotionBound(v)
		}
		reach := rangeM
		if m != nil {
			reach = m.MaxRange()
		}
		add := func(mob mobility.Model) *phy.Radio {
			return ch.AddRadio(phy.NodeID(len(ch.Radios())), mob)
		}

		// The build instant, and the instants whose drift since it sits at
		// the interesting places: a hair, half the skin, and either side of
		// the instant the skin runs out.
		t0 := sim.FromSeconds(1 + 4*rng.Float64())
		probes := []sim.Time{t0, t0 - sim.Millisecond, t0 + 1, t0 + sim.Millisecond}
		if v > 0 {
			crit := sim.FromSeconds((phy.SkinFrac*reach - phy.ReachEps) / (2 * v))
			probes = append(probes, t0+crit/2, t0+crit-1, t0+crit, t0+crit+1, t0+3*crit/2, t0-min(crit/2, t0))
		}

		// Pairs that cross the reach within a few ulps of a probe: one
		// radio moves at speed v straight away from the other, which moves
		// the opposite way, so their distance grows at exactly 2v.
		y := 0.0
		for _, tq := range probes[2:] {
			sq := tq.Seconds()
			for k := -3; k <= 3; k++ {
				gap := nudge(reach-2*v*sq, k)
				x := 1000 * rng.Float64()
				add(linear{p0: geom.Point{X: x, Y: y}, vel: geom.Point{X: -v}})
				add(linear{p0: geom.Point{X: x + gap, Y: y}, vel: geom.Point{X: v}})
				y += 1.5 * reach // keep the pairs out of each other's reach
			}
		}
		// A pair closing at 2v from a metre outside each other's lists:
		// only the sum of both radios' drifts, not the larger alone, sees
		// it within reach by the time each has moved 3/4 of the skin.
		if v > 0 {
			gap := reach + phy.SkinFrac*reach + 1 + 2*v*t0.Seconds()
			add(linear{p0: geom.Point{Y: y}, vel: geom.Point{X: v}})
			add(linear{p0: geom.Point{X: gap, Y: y}, vel: geom.Point{X: -v}})
			y += 1.5 * reach
		}
		// Pairs at exactly the reach, or an ulp past it, where one radio
		// stops pausing within a nanosecond of a probe — moving away from
		// the other or towards it — and pauses again a millisecond later,
		// so later probes query a still interval the build did not see.
		// Under an undeclared bound the movers may go at any speed.
		sv := v
		if !declare && sv == 0 {
			sv = 20
		}
		for _, tq := range probes {
			for k := sim.Time(-1); k <= 1; k++ {
				add(script(geom.Point{Y: y}, geom.Point{X: -sv}, tq+k, tq+k+sim.Millisecond))
				add(mobility.Static{P: geom.Point{X: reach, Y: y}})
				y += 1.5 * reach
				add(script(geom.Point{Y: y}, geom.Point{X: sv}, tq+k, tq+k+sim.Millisecond))
				add(mobility.Static{P: geom.Point{X: math.Nextafter(reach, math.Inf(1)), Y: y}})
				y += 1.5 * reach
			}
		}
		// Under a model with fixed link radii, pairs at their own link's
		// threshold L·s, or within three ulps of it, with the transmitter
		// at a random power: held still, where d0 decides, and moving
		// apart at 2v to be there at a probe, where the margins must not.
		var linkTx []*phy.Radio
		if lr, ok := m.(phy.LinkRanger); ok {
			pair := func(at sim.Time, k int, vel float64) {
				a := phy.NodeID(len(ch.Radios()))
				sc := 0.5 + 2*rng.Float64()
				gap := nudge(lr.LinkRange(a, a+1)*sc-2*vel*at.Seconds(), k)
				tx := add(linear{p0: geom.Point{Y: y}, vel: geom.Point{X: -vel}})
				add(linear{p0: geom.Point{X: gap, Y: y}, vel: geom.Point{X: vel}})
				tx.SetTxRangeScale(sc)
				linkTx = append(linkTx, tx)
				y += 1.5 * reach * max(sc, 1)
			}
			for k := -3; k <= 3; k++ {
				pair(0, k, 0)
				for _, tq := range probes[2:] {
					if v > 0 {
						pair(tq, k, v)
					}
				}
			}
		}
		// A random crowd around the pairs, some pausing and moving in
		// turn, some at non-nominal power.
		for i := 0; i < 4+int(n%60); i++ {
			p := geom.Point{X: 1500 * rng.Float64(), Y: y * rng.Float64()}
			a := 2 * math.Pi * rng.Float64()
			sp := v
			if rng.Intn(2) == 0 {
				sp *= rng.Float64()
			}
			vel := geom.Point{X: sp * math.Cos(a), Y: sp * math.Sin(a)}
			var mob mobility.Model = linear{p0: p, vel: vel}
			if rng.Intn(3) == 0 {
				at := func() sim.Time { return probes[rng.Intn(len(probes))] + sim.Time(rng.Intn(3)-1) }
				b1, b2 := at(), at()
				mob = script(p, vel, min(b1, b2), max(b1, b2)+1)
			}
			r := add(mob)
			if rng.Intn(4) == 0 {
				r.SetTxRangeScale([]float64{0.5, 1.5, 2}[rng.Intn(3)])
			}
		}

		// A model installed after a first query must rebuild the lists at
		// its own reach.
		if m != nil {
			checkQueries(t, ch, nil, t0)
			ch.SetPropagation(m)
		}
		for _, now := range probes {
			checkQueries(t, ch, m, now)
		}
		// Changes after the first query must invalidate the lists.
		radios := ch.Radios()
		radios[rng.Intn(len(radios))].SetTxRangeScale(0.5 + 2*rng.Float64())
		checkQueries(t, ch, m, probes[len(probes)-1])
		near := radios[0].Position(t0)
		add(mobility.Static{P: geom.Point{X: near.X + reach*rng.Float64(), Y: near.Y}})
		checkQueries(t, ch, m, t0)
		radios = ch.Radios()

		log := &rxLog{}
		ch.SetDeliveryObserver(log)
		ch.SetDropObserver(log)
		slices.Sort(probes)
		for _, now := range probes {
			if now < sched.Now() {
				continue
			}
			sched.RunUntil(now)
			for i := 0; i < 3; i++ {
				checkTransmit(t, ch, sched, m, log, radios[rng.Intn(len(radios))])
			}
		}
		for _, r := range linkTx {
			checkTransmit(t, ch, sched, m, log, r)
		}
	})
}

// nudge moves x by k ulps: up when k > 0, down when k < 0.
func nudge(x float64, k int) float64 {
	for ; k > 0; k-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; k < 0; k++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// TestRebuildsFollowTheMovers pins what a rebuild costs when few radios
// move: among 40 static radios one moves, and the rebuild its drift
// forces computes distances for its own pairs only, while every answer
// still matches the exhaustive scan.
func TestRebuildsFollowTheMovers(t *testing.T) {
	const n = 40
	sched := sim.NewScheduler()
	ch := phy.NewChannel(sched, 250)
	ch.SetMotionBound(20)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		ch.AddRadio(phy.NodeID(i), mobility.Static{P: geom.Point{X: 1500 * rng.Float64(), Y: 300 * rng.Float64()}})
	}
	ch.AddRadio(n, linear{p0: geom.Point{X: 750, Y: 150}, vel: geom.Point{X: 20}})
	checkQueries(t, ch, nil, 0)
	built := ch.ReachStats()
	// 2 s at 20 m/s is 40 m, past the skin of R/8 = 31.25 m.
	checkQueries(t, ch, nil, 2*sim.Second)
	st := ch.ReachStats()
	if st.Builds != 1 || st.Rebuilds != 1 {
		t.Fatalf("got %d builds and %d rebuilds, want 1 and 1", st.Builds, st.Rebuilds)
	}
	if got := st.Recomputed - built.Recomputed; got == 0 || got > n {
		t.Fatalf("the rebuild computed %d distances, want the mover's pairs only (at most %d)", got, n)
	}
	if st.Settled == built.Settled {
		t.Fatal("no query was answered by an in-reach run after the rebuild")
	}
}

// countingShadowing counts the channel's calls into a shadowing model.
type countingShadowing struct {
	*propagation.Shadowing
	links, verdicts int
}

func (m *countingShadowing) LinkRange(a, b phy.NodeID) float64 {
	m.links++
	return m.Shadowing.LinkRange(a, b)
}

func (m *countingShadowing) Decodable(now sim.Time, a, b phy.NodeID, dist float64) bool {
	m.verdicts++
	return m.Shadowing.Decodable(now, a, b, dist)
}

// TestLinkRadiiAskedOncePerRun pins what the link-radius table costs the
// model: over a mobile run's queries and transmissions, through list
// rebuilds and a power change that forces a full build, the channel asks
// for each unordered link's radius at most once and never asks for a
// verdict, while every answer matches the exhaustive scan. A new radio
// resets the table, and the next run asks again.
func TestLinkRadiiAskedOncePerRun(t *testing.T) {
	const n = 40
	sched := sim.NewScheduler()
	ch := phy.NewChannel(sched, 250)
	ch.SetMotionBound(20)
	shadow := propagation.NewShadowing(250, 6, 3)
	m := &countingShadowing{Shadowing: shadow}
	ch.SetPropagation(m)
	field := geom.Rect{W: 1500, H: 300}
	for i := 0; i < n; i++ {
		ch.AddRadio(phy.NodeID(i), mobility.NewWaypoint(mobility.WaypointConfig{
			Field: field, MinSpeed: 1, MaxSpeed: 20, Pause: sim.Second, Start: field.RandomPoint(sim.Stream(int64(i), "count")),
		}, sim.Stream(int64(i), "count-way")))
	}
	log := &rxLog{}
	ch.SetDeliveryObserver(log)
	ch.SetDropObserver(log)
	check := func(now sim.Time) {
		t.Helper()
		sched.RunUntil(now)
		for _, r := range ch.Radios() {
			_, want := bruteReach(ch, shadow, r, now)
			if got := ch.Neighbors(r, now); !slices.Equal(got, want) {
				t.Fatalf("Neighbors(%v) @%v = %v, want %v", r.ID(), now, got, want)
			}
			if got := ch.CountNeighbors(r, now); got != len(want) {
				t.Fatalf("CountNeighbors(%v) @%v = %d, want %d", r.ID(), now, got, len(want))
			}
		}
		checkTransmit(t, ch, sched, shadow, log, ch.Radios()[int(now/sim.Second)%n])
	}
	for s := 0; s < 30; s++ {
		check(sim.Time(s) * sim.Second)
		if s == 15 {
			ch.Radios()[7].SetTxRangeScale(1.5)
		}
	}
	if st := ch.ReachStats(); st.Builds < 2 || st.Rebuilds == 0 {
		t.Fatalf("reach work %+v: want a power-change build and drift rebuilds", st)
	}
	if m.links > n*(n-1)/2 || m.verdicts != 0 {
		t.Fatalf("the run asked for %d link radii and %d verdicts; want at most %d and none", m.links, m.verdicts, n*(n-1)/2)
	}
	ch.AddRadio(n, mobility.Static{P: geom.Point{X: 750, Y: 150}})
	m.links = 0
	check(31 * sim.Second)
	if m.links == 0 || m.links > (n+1)*n/2 {
		t.Fatalf("after AddRadio the channel asked for %d link radii; want a fresh table of at most %d", m.links, (n+1)*n/2)
	}
}
