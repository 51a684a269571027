package scenario

import (
	"math"
	"testing"

	"rcast/internal/core"
	"rcast/internal/sim"
	"rcast/internal/trace"
)

// quickConfig returns a small scenario that runs in well under a second.
func quickConfig(s Scheme) Config {
	cfg := PaperDefaults()
	cfg.Scheme = s
	cfg.Nodes = 30
	cfg.FieldW = 900
	cfg.FieldH = 300
	cfg.Connections = 6
	cfg.PacketRate = 0.4
	cfg.Duration = 60 * sim.Second
	cfg.Pause = 30 * sim.Second
	return cfg
}

func TestRunAllSchemesDeliverTraffic(t *testing.T) {
	for _, s := range Schemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			res, err := Run(quickConfig(s))
			if err != nil {
				t.Fatal(err)
			}
			if res.Originated == 0 {
				t.Fatal("no traffic originated")
			}
			if res.PDR < 0.5 {
				t.Fatalf("PDR = %.3f, implausibly low (drops: %v)", res.PDR, res.Drops)
			}
			if res.TotalJoules <= 0 {
				t.Fatal("no energy consumed")
			}
			if len(res.PerNodeJoules) != 30 {
				t.Fatalf("PerNodeJoules has %d entries", len(res.PerNodeJoules))
			}
		})
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	cfg := quickConfig(SchemeRcast)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Delivered != b.Delivered || a.TotalJoules != b.TotalJoules ||
		a.ControlTx != b.ControlTx || a.AvgDelaySec != b.AvgDelaySec {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	for i := range a.PerNodeJoules {
		if a.PerNodeJoules[i] != b.PerNodeJoules[i] {
			t.Fatalf("per-node energy diverged at node %d", i)
		}
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	cfg := quickConfig(SchemeRcast)
	a, _ := Run(cfg)
	cfg.Seed = 99
	b, _ := Run(cfg)
	if a.TotalJoules == b.TotalJoules && a.Delivered == b.Delivered {
		t.Fatal("different seeds produced identical results")
	}
}

func TestAlwaysOnConsumesExactlyAwakePower(t *testing.T) {
	cfg := quickConfig(SchemeAlwaysOn)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper §4.3: every 802.11 node consumes awakeW × duration.
	want := 1.15 * cfg.Duration.Seconds()
	for i, j := range res.PerNodeJoules {
		if diff := j - want; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("node %d consumed %v J, want %v", i, j, want)
		}
	}
	if res.EnergyVariance != 0 {
		t.Fatalf("802.11 energy variance = %v, want 0", res.EnergyVariance)
	}
}

func TestEnergyOrderingMatchesPaper(t *testing.T) {
	// The headline result at small scale: Rcast consumes less total energy
	// than unmodified PSM and than always-on 802.11.
	joules := make(map[Scheme]float64)
	for _, s := range []Scheme{SchemeAlwaysOn, SchemePSM, SchemeRcast} {
		res, err := Run(quickConfig(s))
		if err != nil {
			t.Fatal(err)
		}
		joules[s] = res.TotalJoules
	}
	if !(joules[SchemeRcast] < joules[SchemePSM]) {
		t.Fatalf("Rcast (%.0f J) not below PSM (%.0f J)", joules[SchemeRcast], joules[SchemePSM])
	}
	if !(joules[SchemePSM] < joules[SchemeAlwaysOn]) {
		t.Fatalf("PSM (%.0f J) not below 802.11 (%.0f J)", joules[SchemePSM], joules[SchemeAlwaysOn])
	}
}

func TestPSMFamilyHasBeaconDelay(t *testing.T) {
	fast, err := Run(quickConfig(SchemeAlwaysOn))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(quickConfig(SchemeRcast))
	if err != nil {
		t.Fatal(err)
	}
	if slow.AvgDelaySec <= fast.AvgDelaySec {
		t.Fatalf("PSM delay %.3fs not above 802.11 delay %.3fs",
			slow.AvgDelaySec, fast.AvgDelaySec)
	}
	// Multi-hop PSM delay is at least a sizeable fraction of one beacon.
	if slow.AvgDelaySec < 0.05 {
		t.Fatalf("Rcast delay %.3fs implausibly small", slow.AvgDelaySec)
	}
}

func TestPolicyOverride(t *testing.T) {
	cfg := quickConfig(SchemeRcast)
	cfg.Policy = core.Unconditional{}
	uncond, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(quickConfig(SchemeRcast))
	if err != nil {
		t.Fatal(err)
	}
	if uncond.TotalJoules <= base.TotalJoules {
		t.Fatalf("unconditional override (%.0f J) should cost more than randomized (%.0f J)",
			uncond.TotalJoules, base.TotalJoules)
	}
}

func TestGossipExtensionStillDelivers(t *testing.T) {
	cfg := quickConfig(SchemeRcast)
	cfg.GossipFanout = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PDR < 0.5 {
		t.Fatalf("gossip PDR = %.3f", res.PDR)
	}
}

func TestStaticScenarioUsesStaticMobility(t *testing.T) {
	cfg := quickConfig(SchemeRcast)
	cfg.Pause = cfg.Duration // the paper's static setting
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Static networks see far fewer link failures than mobile ones.
	if res.Drops["link-failure"] > res.Originated/10 {
		t.Fatalf("static run had %d link-failure drops of %d packets",
			res.Drops["link-failure"], res.Originated)
	}
}

func TestValidateRejections(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "bad scheme", mutate: func(c *Config) { c.Scheme = 0 }},
		{name: "one node", mutate: func(c *Config) { c.Nodes = 1 }},
		{name: "no field", mutate: func(c *Config) { c.FieldW = 0 }},
		{name: "no range", mutate: func(c *Config) { c.RangeM = 0 }},
		{name: "no connections", mutate: func(c *Config) { c.Connections = 0 }},
		{name: "no rate", mutate: func(c *Config) { c.PacketRate = 0 }},
		{name: "no size", mutate: func(c *Config) { c.PacketBytes = 0 }},
		{name: "no duration", mutate: func(c *Config) { c.Duration = 0 }},
		{name: "speed bounds", mutate: func(c *Config) { c.MinSpeed = 30 }},
		{name: "traffic after end", mutate: func(c *Config) { c.TrafficStart = c.Duration }},
		{name: "unknown policy", mutate: func(c *Config) { c.PolicyName = "fixed-0.50" }},
		{name: "policy and name", mutate: func(c *Config) { c.Policy = core.Rcast{}; c.PolicyName = "rcast" }},
		// A policy on a scheme with no PSM sleep cycle would be silently
		// ignored; that misconfiguration must be loud.
		{name: "policy on 802.11", mutate: func(c *Config) { c.Scheme = SchemeAlwaysOn; c.PolicyName = "rcast" }},
		{name: "policy obj on 802.11", mutate: func(c *Config) { c.Scheme = SchemeAlwaysOn; c.Policy = core.Rcast{} }},
		{name: "tx power too low", mutate: func(c *Config) { c.TxPowerDBm = -60 }},
		{name: "tx power NaN", mutate: func(c *Config) { c.TxPowerDBm = math.NaN() }},
		// Negative values run exactly like 0 but would cache under
		// another key.
		{name: "negative gossip fanout", mutate: func(c *Config) { c.GossipFanout = -1 }},
		{name: "negative battery", mutate: func(c *Config) { c.BatteryJoules = -5 }},
		// The nested MAC/routing objects, the power draws and the ODPM
		// keep-alives are settable from job bodies.
		{name: "negative cw_min", mutate: func(c *Config) { c.MAC.CWMin = -1 }},
		{name: "cw_max below cw_min", mutate: func(c *Config) { c.MAC.CWMax = c.MAC.CWMin - 1 }},
		{name: "no beacon interval", mutate: func(c *Config) { c.MAC.BeaconInterval = 0 }},
		{name: "ATIM window past beacon", mutate: func(c *Config) { c.MAC.ATIMWindow = c.MAC.BeaconInterval }},
		{name: "no data rate", mutate: func(c *Config) { c.MAC.DataRateMbps = 0 }},
		{name: "huge ATIM slots", mutate: func(c *Config) { c.MAC.ATIMSlots = 1 << 40 }},
		{name: "negative dsr cache", mutate: func(c *Config) { c.DSR.CacheCapacity = -1 }},
		{name: "max dsr jitter", mutate: func(c *Config) { c.DSR.RebroadcastJitter = sim.MaxTime }},
		{name: "negative aodv hello", mutate: func(c *Config) { c.AODV.HelloInterval = -1 }},
		{name: "negative awake watts", mutate: func(c *Config) { c.AwakeWatts = -1 }},
		{name: "negative keep-alive", mutate: func(c *Config) { c.ODPMDataKeepAlive = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := PaperDefaults()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("Validate accepted a broken config")
			}
			if _, err := Run(cfg); err == nil {
				t.Fatal("Run accepted a broken config")
			}
		})
	}
}

func TestSchemeStringsRoundTrip(t *testing.T) {
	for _, s := range Schemes() {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScheme("nope"); err == nil {
		t.Fatal("ParseScheme accepted junk")
	}
	if Scheme(42).String() != "Scheme(42)" {
		t.Fatal("unknown scheme String broken")
	}
}

func TestRunReplications(t *testing.T) {
	cfg := quickConfig(SchemeRcast)
	cfg.Nodes = 20
	cfg.Duration = 30 * sim.Second
	agg, err := RunReplications(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Results) != 3 {
		t.Fatalf("got %d results", len(agg.Results))
	}
	if agg.PDR.N() != 3 || agg.TotalJoules.N() != 3 {
		t.Fatal("replication accumulators incomplete")
	}
	if len(agg.MeanSortedJoules) != 20 {
		t.Fatalf("MeanSortedJoules has %d entries", len(agg.MeanSortedJoules))
	}
	for i := 1; i < len(agg.MeanSortedJoules); i++ {
		if agg.MeanSortedJoules[i] < agg.MeanSortedJoules[i-1] {
			t.Fatal("MeanSortedJoules not ascending")
		}
	}
	// Seeds must differ across replications.
	if agg.Results[0].Seed == agg.Results[1].Seed {
		t.Fatal("replications reused the same seed")
	}
	// reps < 1 clamps to 1.
	one, err := RunReplications(cfg, 0)
	if err != nil || len(one.Results) != 1 {
		t.Fatalf("reps=0: %v, %d results", err, len(one.Results))
	}
}

func TestODPMFastPathReducesDelay(t *testing.T) {
	odpmRes, err := Run(quickConfig(SchemeODPM))
	if err != nil {
		t.Fatal(err)
	}
	rcastRes, err := Run(quickConfig(SchemeRcast))
	if err != nil {
		t.Fatal(err)
	}
	if odpmRes.AvgDelaySec >= rcastRes.AvgDelaySec {
		t.Fatalf("ODPM delay %.3fs not below Rcast %.3fs (paper Fig. 8)",
			odpmRes.AvgDelaySec, rcastRes.AvgDelaySec)
	}
}

func TestAODVRoutingDeliversTraffic(t *testing.T) {
	for _, s := range []Scheme{SchemeAlwaysOn, SchemeRcast} {
		cfg := quickConfig(s)
		cfg.Routing = RoutingAODV
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.PDR < 0.5 {
			t.Fatalf("%v/AODV PDR = %.3f (drops %v)", s, res.PDR, res.Drops)
		}
		if res.AODVTotal.RREQSent == 0 {
			t.Fatal("AODV sent no RREQs")
		}
		if res.DSRTotal.RREQSent != 0 {
			t.Fatal("DSR counters non-zero in an AODV run")
		}
	}
}

func TestAODVHelloTrafficCostsEnergyUnderPSM(t *testing.T) {
	base := quickConfig(SchemeRcast)
	base.Routing = RoutingAODV
	base.AODV.HelloInterval = 0
	quietRun, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	noisy := quickConfig(SchemeRcast)
	noisy.Routing = RoutingAODV
	noisy.AODV.HelloInterval = sim.Second
	noisyRun, err := Run(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if noisyRun.AODVTotal.HelloSent == 0 {
		t.Fatal("hello-enabled run sent no hellos")
	}
	// The paper's §1 point: periodic broadcasts keep PSM neighborhoods
	// awake, so hellos must cost energy.
	if noisyRun.TotalJoules <= quietRun.TotalJoules {
		t.Fatalf("hellos cost nothing: %.0f J vs %.0f J",
			noisyRun.TotalJoules, quietRun.TotalJoules)
	}
}

func TestBatteryDepletionKillsNodes(t *testing.T) {
	cfg := quickConfig(SchemeAlwaysOn)
	// Always-awake nodes burn 1.15 W; a 34.5 J battery dies at t=30s.
	cfg.BatteryJoules = 1.15 * 30
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadNodes != cfg.Nodes {
		t.Fatalf("DeadNodes = %d, want all %d", res.DeadNodes, cfg.Nodes)
	}
	if res.FirstDeath < 29*sim.Second || res.FirstDeath > 32*sim.Second {
		t.Fatalf("FirstDeath = %v, want ~30s", res.FirstDeath)
	}
	// Dead nodes stop consuming: per-node energy is capped at the battery.
	for i, j := range res.PerNodeJoules {
		if j > cfg.BatteryJoules+1e-6 {
			t.Fatalf("node %d consumed %v J past its battery", i, j)
		}
	}
	// With every node dead by 30s of 60s, traffic must suffer.
	if res.PDR > 0.9 {
		t.Fatalf("PDR = %.3f despite network death", res.PDR)
	}
}

func TestPSMSchemeOutlivesAlwaysOnOnSameBattery(t *testing.T) {
	battery := 1.15 * 30 // kills an always-awake node at 30s of 60s
	ao := quickConfig(SchemeAlwaysOn)
	ao.BatteryJoules = battery
	aoRes, err := Run(ao)
	if err != nil {
		t.Fatal(err)
	}
	rc := quickConfig(SchemeRcast)
	rc.BatteryJoules = battery
	rcRes, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if rcRes.DeadNodes >= aoRes.DeadNodes {
		t.Fatalf("Rcast lost %d nodes, 802.11 lost %d — PSM must extend lifetime",
			rcRes.DeadNodes, aoRes.DeadNodes)
	}
}

func TestTraceEventsFlow(t *testing.T) {
	counter := trace.NewCounter()
	cfg := quickConfig(SchemeRcast)
	cfg.Trace = counter
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if counter.Count(trace.KindOriginate) != res.Originated {
		t.Fatalf("originate events = %d, originated = %d",
			counter.Count(trace.KindOriginate), res.Originated)
	}
	if counter.Count(trace.KindDeliver) != res.Delivered {
		t.Fatalf("deliver events = %d, delivered = %d",
			counter.Count(trace.KindDeliver), res.Delivered)
	}
	if counter.Count(trace.KindControl) != res.ControlTx {
		t.Fatalf("control events = %d, control tx = %d",
			counter.Count(trace.KindControl), res.ControlTx)
	}
	if counter.Count(trace.KindCache) == 0 {
		t.Fatal("no cache-insert events traced")
	}
}

func TestTraceDeathEvents(t *testing.T) {
	counter := trace.NewCounter()
	cfg := quickConfig(SchemeAlwaysOn)
	cfg.BatteryJoules = 1.15 * 30
	cfg.Trace = counter
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if counter.Count(trace.KindDeath) != uint64(res.DeadNodes) {
		t.Fatalf("death events = %d, dead nodes = %d",
			counter.Count(trace.KindDeath), res.DeadNodes)
	}
}

func TestRoleNumbersPopulated(t *testing.T) {
	res, err := Run(quickConfig(SchemeRcast))
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, r := range res.RoleNumbers {
		total += r
	}
	if total == 0 {
		t.Fatal("no role numbers accumulated")
	}
}
