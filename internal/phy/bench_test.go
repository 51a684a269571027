package phy_test

import (
	"testing"

	"rcast/internal/geom"
	"rcast/internal/mobility"
	"rcast/internal/phy"
	"rcast/internal/propagation"
	"rcast/internal/sim"
)

type sink struct{ n int }

func (s *sink) OnFrame(phy.Frame) { s.n++ }

// benchCell builds a single-cell topology: n static radios within mutual
// range, so every transmission fans out to n-1 receivers through one
// batched event. The motion bound is declared, as the simulator does.
func benchCell(n int) (*sim.Scheduler, *phy.Channel, []*phy.Radio) {
	sched := sim.NewScheduler()
	ch := phy.NewChannel(sched, 250)
	ch.SetMotionBound(0)
	radios := make([]*phy.Radio, n)
	for i := 0; i < n; i++ {
		radios[i] = ch.AddRadio(phy.NodeID(i), mobility.Static{P: geom.Point{X: float64(i)}})
		radios[i].SetReceiver(&sink{})
	}
	return sched, ch, radios
}

// fieldCase is one variant of the 100-node paper field: static, moving by
// random waypoint at up to 20 m/s with no pause, in the paper's regime —
// paused for the first 600 s, then moving — with the queries straddling
// the pause end, or moving with no pause under 4 dB log-normal shadowing.
type fieldCase struct {
	name    string
	mobile  bool
	pause   sim.Time
	sigmaDB float64 // > 0: shadowing at this sigma instead of the disk
}

var fieldCases = []fieldCase{
	{"static", false, 0, 0},
	{"mobile", true, 0, 0},
	{"paper", true, 600 * sim.Second, 0},
	{"shadowing", true, 0, 4},
}

// benchField builds the paper's topology for tc: 100 radios placed at
// random on a 1500×300 m field with a 250 m range, under the motion bound
// the simulator would declare for it.
func benchField(tc fieldCase) (*sim.Scheduler, *phy.Channel, []*phy.Radio) {
	const n, maxSpeed = 100, 20.0
	sched := sim.NewScheduler()
	ch := phy.NewChannel(sched, 250)
	field := geom.Rect{W: 1500, H: 300}
	rng := sim.Stream(1, "bench-field")
	radios := make([]*phy.Radio, n)
	for i := range radios {
		start := field.RandomPoint(rng)
		var mob mobility.Model = mobility.Static{P: start}
		if tc.mobile {
			mob = mobility.NewWaypoint(mobility.WaypointConfig{
				Field:    field,
				MinSpeed: 1,
				MaxSpeed: maxSpeed,
				Pause:    tc.pause,
				Start:    start,
			}, sim.Stream(int64(i), "bench-field"))
		}
		radios[i] = ch.AddRadio(phy.NodeID(i), mob)
		radios[i].SetReceiver(&sink{})
	}
	if tc.mobile {
		ch.SetMotionBound(maxSpeed)
	} else {
		ch.SetMotionBound(0)
	}
	if tc.sigmaDB > 0 {
		ch.SetPropagation(propagation.NewShadowing(250, tc.sigmaDB, sim.DeriveSeed(1, "prop")))
	}
	return sched, ch, radios
}

// firstQuery returns the instant a benchmark of ops queries, step apart,
// starts at: 0, or for the paper case the instant that puts the pause end
// halfway through them.
func (tc fieldCase) firstQuery(ops int, step sim.Time) sim.Time {
	return max(0, tc.pause-sim.Time(ops/2)*step)
}

// BenchmarkTransmitBatchedDelivery measures one full broadcast delivery
// cycle — Transmit, one batch event, per-receiver finishReception — with
// the batch and delivery pools warm. Expected steady-state allocations: 0.
func BenchmarkTransmitBatchedDelivery(b *testing.B) {
	sched, ch, radios := benchCell(16)
	f := phy.Frame{From: 0, To: phy.Broadcast, Bytes: 512}
	// Warm the pools and the reach lists.
	ch.Transmit(radios[0], f, 2)
	sched.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Transmit(radios[i%16], f, 2)
		sched.Run()
	}
}

// BenchmarkTransmitFrameAlloc isolates the transmit-side setup cost:
// batch/delivery acquisition and candidate lookup, without running the
// scheduler (the pending finish event is left to accumulate and the
// scheduler drained outside the timed region periodically).
func BenchmarkTransmitFrameAlloc(b *testing.B) {
	sched, ch, radios := benchCell(16)
	f := phy.Frame{From: 0, To: phy.Broadcast, Bytes: 64}
	ch.Transmit(radios[0], f, 2)
	sched.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Transmit(radios[i%16], f, 2)
		sched.Run()
	}
}

// BenchmarkTransmitField measures a full broadcast delivery cycle on the
// 100-node paper field, static, mobile, in the paper's regime and under
// shadowing. Each
// frame ends before the next starts, so the moving cases query a new
// instant every time and pay their share of list rebuilds.
func BenchmarkTransmitField(b *testing.B) {
	for _, tc := range fieldCases {
		b.Run(tc.name, func(b *testing.B) {
			sched, ch, radios := benchField(tc)
			f := phy.Frame{From: 0, To: phy.Broadcast, Bytes: 512}
			sched.RunUntil(tc.firstQuery(b.N, phy.Airtime(f.Bytes, 2)))
			ch.Transmit(radios[0], f, 2)
			sched.Run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ch.Transmit(radios[i%len(radios)], f, 2)
				sched.Run()
			}
		})
	}
}

// BenchmarkVisitNeighbors measures the allocation-free neighbor visitation
// used by the PSM churn estimator and the ATIM reach, on one 64-radio cell
// and on each variant of the 100-node paper field (queried every simulated
// millisecond).
func BenchmarkVisitNeighbors(b *testing.B) {
	b.Run("cell", func(b *testing.B) {
		_, ch, radios := benchCell(64)
		count := 0
		visit := func(phy.NodeID) { count++ }
		ch.VisitNeighbors(radios[0], 0, visit)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ch.VisitNeighbors(radios[i%64], 0, visit)
		}
	})
	for _, tc := range fieldCases {
		b.Run(tc.name, func(b *testing.B) {
			_, ch, radios := benchField(tc)
			count := 0
			visit := func(phy.NodeID) { count++ }
			t0 := tc.firstQuery(b.N, sim.Millisecond)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ch.VisitNeighbors(radios[i%len(radios)], t0+sim.Time(i)*sim.Millisecond, visit)
			}
		})
	}
}

// benchCount keeps BenchmarkCountNeighbors' result live.
var benchCount int

// BenchmarkCountNeighbors measures the lottery's neighbor count (P_R =
// 1/neighbors) on each variant of the 100-node paper field, queried every
// simulated millisecond.
func BenchmarkCountNeighbors(b *testing.B) {
	for _, tc := range fieldCases {
		b.Run(tc.name, func(b *testing.B) {
			_, ch, radios := benchField(tc)
			t0 := tc.firstQuery(b.N, sim.Millisecond)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchCount += ch.CountNeighbors(radios[i%len(radios)], t0+sim.Time(i)*sim.Millisecond)
			}
		})
	}
}
