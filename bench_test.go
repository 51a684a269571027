// Benchmarks regenerating the paper's tables and figures (one per
// artifact; see DESIGN.md §4 for the experiment index) plus micro-benches
// for the simulation substrate.
//
// The figure benches share one cached experiment suite, so the first bench
// to touch a configuration pays for its simulations and the series are
// attached to the bench output via ReportMetric. Set RCAST_FULL=1 to run
// at the paper's full §4.1 scale instead of the quick profile.
package rcast_test

import (
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"rcast"
	"rcast/internal/experiments"
	"rcast/internal/geom"
	"rcast/internal/mobility"
	"rcast/internal/phy"
	"rcast/internal/scenario"
	"rcast/internal/sim"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

func sharedSuite() *experiments.Suite {
	suiteOnce.Do(func() {
		profile := experiments.Quick()
		if os.Getenv("RCAST_FULL") == "1" {
			profile = experiments.Paper()
		}
		suite = experiments.NewSuite(profile, benchOutput())
	})
	return suite
}

func benchOutput() io.Writer {
	if os.Getenv("RCAST_BENCH_VERBOSE") == "1" {
		return os.Stdout
	}
	return io.Discard
}

// benchTable regenerates the named table b.N times on the shared suite
// and reports one column per row, under the metric name unit returns for
// the row ("" skips it).
func benchTable(b *testing.B, name, col string, unit func(i int, labels []string) string) {
	s := sharedSuite()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		if t, err = s.Table(name); err != nil {
			b.Fatal(err)
		}
	}
	for i, r := range t.Rows {
		if u := unit(i, r.Labels); u != "" {
			b.ReportMetric(t.Value(i, col), u)
		}
	}
}

// BenchmarkTable1ProtocolBehavior regenerates Table 1: the protocol
// behaviour of 802.11 / ODPM / Rcast.
func BenchmarkTable1ProtocolBehavior(b *testing.B) {
	benchTable(b, "table1", "awakeFrac", func(_ int, l []string) string { return l[0] + "_awake" })
}

// BenchmarkFig5PerNodeEnergy regenerates Fig. 5: per-node energy curves
// sorted ascending for the four (rate, mobility) panels.
func BenchmarkFig5PerNodeEnergy(b *testing.B) {
	s := sharedSuite()
	var panels []experiments.Fig5Panel
	for i := 0; i < b.N; i++ {
		var err error
		panels, err = s.Fig5()
		if err != nil {
			b.Fatal(err)
		}
	}
	p := panels[0] // low rate, mobile
	for sch, curve := range p.Curves {
		b.ReportMetric(curve[len(curve)-1], sch.String()+"_maxJ")
	}
}

// BenchmarkFig6EnergyVariance regenerates Fig. 6: variance of per-node
// energy vs packet rate, mobile and static.
func BenchmarkFig6EnergyVariance(b *testing.B) {
	s := sharedSuite()
	var points []experiments.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = s.Fig6()
		if err != nil {
			b.Fatal(err)
		}
	}
	reportCorner(b, points, func(p experiments.SweepPoint) float64 { return p.EnergyVariance }, "varJ")
}

// BenchmarkFig7EnergyPDREPB regenerates Fig. 7: total energy, packet
// delivery ratio and energy-per-bit vs packet rate.
func BenchmarkFig7EnergyPDREPB(b *testing.B) {
	s := sharedSuite()
	var points []experiments.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = s.Fig7()
		if err != nil {
			b.Fatal(err)
		}
	}
	reportCorner(b, points, func(p experiments.SweepPoint) float64 { return p.TotalJoules }, "J")
	reportCorner(b, points, func(p experiments.SweepPoint) float64 { return p.PDR }, "pdr")
}

// BenchmarkFig8DelayOverhead regenerates Fig. 8: average delay and
// normalized routing overhead vs packet rate.
func BenchmarkFig8DelayOverhead(b *testing.B) {
	s := sharedSuite()
	var points []experiments.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = s.Fig8()
		if err != nil {
			b.Fatal(err)
		}
	}
	reportCorner(b, points, func(p experiments.SweepPoint) float64 { return p.AvgDelaySec }, "delay_s")
	reportCorner(b, points, func(p experiments.SweepPoint) float64 { return p.NormalizedOverhead }, "nro")
}

// BenchmarkFig9RoleNumber regenerates Fig. 9: role number vs per-node
// energy scatter digests.
func BenchmarkFig9RoleNumber(b *testing.B) {
	s := sharedSuite()
	var panels []experiments.Fig9Panel
	for i := 0; i < b.N; i++ {
		var err error
		panels, err = s.Fig9()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range panels {
		if p.Rate == experiments.Quick().HighRate {
			b.ReportMetric(p.RoleMax, p.Scheme.String()+"_roleMax")
		}
	}
}

// BenchmarkAblationOverhearPolicies regenerates ablation A1: the §3.2
// overhearing-decision factors.
func BenchmarkAblationOverhearPolicies(b *testing.B) {
	benchTable(b, "a1", "energy(J)", func(_ int, l []string) string { return l[0] + "_J" })
}

// BenchmarkAblationOverhearingLevels regenerates ablation A2: the Fig. 2
// no / unconditional / randomized overhearing taxonomy.
func BenchmarkAblationOverhearingLevels(b *testing.B) {
	benchTable(b, "a2", "energy(J)", func(_ int, l []string) string { return l[0] + "_J" })
}

// BenchmarkAblationBroadcastRcast regenerates ablation A3: the §5
// broadcast-Rcast RREQ damping extension.
func BenchmarkAblationBroadcastRcast(b *testing.B) {
	benchTable(b, "a3", "RREQ tx", func(i int, _ []string) string { return []string{"flood", "gossip"}[i] + "_rreq" })
}

// BenchmarkAblationCacheStrategies regenerates ablation A4: DSR cache
// strategies (capacity, Hu & Johnson timeouts) under limited overhearing.
func BenchmarkAblationCacheStrategies(b *testing.B) {
	benchTable(b, "a4", "PDR", func(i int, _ []string) string {
		return []string{"pdr_cap64_life0", "pdr_cap8_life0", "pdr_cap64_life30", "pdr_cap64_life5"}[i]
	})
}

// BenchmarkAblationLifetime regenerates ablation A5: network lifetime with
// finite batteries.
func BenchmarkAblationLifetime(b *testing.B) {
	benchTable(b, "a5", "deadNodes", func(_ int, l []string) string { return l[0] + "_dead" })
}

// BenchmarkAblationRoutingProtocols regenerates ablation A6: DSR vs AODV,
// reporting the Rcast stack's overhead without AODV hellos.
func BenchmarkAblationRoutingProtocols(b *testing.B) {
	benchTable(b, "a6", "overhead", func(_ int, l []string) string {
		if l[1] != rcast.SchemeRcast.String() || l[0] == "AODV (hello 1s)" {
			return ""
		}
		return strings.Fields(l[0])[0] + "_nro"
	})
}

// BenchmarkAblationATIMReliability regenerates ablation A7: the paper's
// §4.1 reliable-ATIM assumption vs a slotted contention model.
func BenchmarkAblationATIMReliability(b *testing.B) {
	benchTable(b, "a7", "PDR", func(_ int, l []string) string {
		if l[0] != "contention" {
			return ""
		}
		rate, _ := strconv.ParseFloat(l[1], 64)
		return "contention_pdr_r" + strconv.Itoa(int(rate*10))
	})
}

func reportCorner(b *testing.B, points []experiments.SweepPoint, get func(experiments.SweepPoint) float64, unit string) {
	b.Helper()
	low := sharedSuiteProfile().LowRate
	for _, p := range points {
		if p.Rate == low && !p.Static {
			b.ReportMetric(get(p), p.Scheme.String()+"_"+unit)
		}
	}
}

func sharedSuiteProfile() experiments.Profile {
	if os.Getenv("RCAST_FULL") == "1" {
		return experiments.Paper()
	}
	return experiments.Quick()
}

// --- substrate micro/macro benchmarks ---

// BenchmarkFullRunRcast measures one complete small Rcast simulation per
// iteration (25 nodes, 40 simulated seconds).
func BenchmarkFullRunRcast(b *testing.B) {
	benchmarkFullRun(b, rcast.SchemeRcast)
}

// BenchmarkFullRunRcastTraced is BenchmarkFullRunRcast with a packet-
// lifecycle trace streaming to a discarded NDJSON writer — the worst-case
// cost of enabling tracing. Compare against BenchmarkFullRunRcast for the
// overhead figure quoted in DESIGN.md §11.
func BenchmarkFullRunRcastTraced(b *testing.B) {
	cfg := rcast.PaperDefaults()
	cfg.Scheme = rcast.SchemeRcast
	cfg.Nodes = 25
	cfg.FieldW = 750
	cfg.Connections = 5
	cfg.Duration = 40 * rcast.Second
	cfg.Pause = 20 * rcast.Second
	cfg.Trace = rcast.NewTraceWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := rcast.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Originated == 0 {
			b.Fatal("no traffic")
		}
	}
}

// BenchmarkFullRunAlwaysOn measures one complete small 802.11 simulation
// per iteration.
func BenchmarkFullRunAlwaysOn(b *testing.B) {
	benchmarkFullRun(b, rcast.SchemeAlwaysOn)
}

// BenchmarkFullRunODPM measures one complete small ODPM simulation per
// iteration.
func BenchmarkFullRunODPM(b *testing.B) {
	benchmarkFullRun(b, rcast.SchemeODPM)
}

func benchmarkFullRun(b *testing.B, scheme rcast.Scheme) {
	cfg := rcast.PaperDefaults()
	cfg.Scheme = scheme
	cfg.Nodes = 25
	cfg.FieldW = 750
	cfg.Connections = 5
	cfg.Duration = 40 * rcast.Second
	cfg.Pause = 20 * rcast.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := rcast.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Originated == 0 {
			b.Fatal("no traffic")
		}
	}
}

// BenchmarkWorldSetup measures wiring the paper's 100-node world: a
// zero-length run of PaperDefaults (traffic from t=0, 1 ms of simulated
// time), the build whose median is the benchmark's setup_s. Most of it
// is allocating the nodes' routers, caches, MACs and hooks; the per-node
// RNG streams hold no state until their 274th draw, so they cost little
// here (DESIGN.md §14, "Deferred state").
func BenchmarkWorldSetup(b *testing.B) {
	cfg := rcast.PaperDefaults()
	cfg.TrafficStart = 0
	cfg.Duration = rcast.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rcast.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChannelTransmit measures one broadcast through the channel at
// fixed node density (the paper's ~4500 m²/node) for growing node counts.
// With the spatial grid, cost per transmission tracks the neighbor count,
// not the population, so ns/op should stay roughly flat across sizes.
func BenchmarkChannelTransmit(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			// Square field scaled to hold n nodes at paper density.
			side := math.Sqrt(4500 * float64(n))
			sched := sim.NewScheduler()
			ch := NewBenchChannel(sched, 250, n, side)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := ch.RadioOf(phy.NodeID(i % n))
				ch.Transmit(tx, phy.Frame{From: tx.ID(), To: phy.Broadcast, Bytes: 512}, 2)
				sched.Run()
			}
		})
	}
}

// NewBenchChannel builds a grid-enabled channel with n waypoint-mobile
// radios spread over a side×side field.
func NewBenchChannel(sched *sim.Scheduler, rangeM float64, n int, side float64) *phy.Channel {
	ch := phy.NewChannel(sched, rangeM)
	const maxSpeed = 20.0
	ch.SetMotionBound(maxSpeed)
	field := geom.Rect{W: side, H: side}
	for i := 0; i < n; i++ {
		rng := sim.Stream(int64(i+1), "bench-transmit")
		mob := mobility.NewWaypoint(mobility.WaypointConfig{
			Field:    field,
			MinSpeed: 1,
			MaxSpeed: maxSpeed,
			Start:    geom.Point{X: side * rng.Float64(), Y: side * rng.Float64()},
		}, rng)
		ch.AddRadio(phy.NodeID(i), mob)
	}
	return ch
}

// BenchmarkSimulatedSecondsPerSecond reports the simulator's time dilation
// at paper density: how many simulated seconds one wall-clock second buys.
func BenchmarkSimulatedSecondsPerSecond(b *testing.B) {
	cfg := scenario.PaperDefaults()
	cfg.Duration = 30 * rcast.Second
	cfg.Pause = 15 * rcast.Second
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := scenario.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	simSeconds := cfg.Duration.Seconds() * float64(b.N)
	b.ReportMetric(simSeconds/b.Elapsed().Seconds(), "simsec/s")
}
