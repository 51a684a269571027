package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rcast/internal/fault"
	"rcast/internal/scenario"
	"rcast/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/tiny-suite.golden")

// tiny returns a profile small enough for unit tests (< 1 s per run).
func tiny() Profile {
	return Profile{
		Name:        "tiny",
		Nodes:       25,
		FieldW:      750,
		FieldH:      300,
		Connections: 5,
		Duration:    40 * sim.Second,
		Reps:        1,
		Rates:       []float64{0.4, 2.0},
		LowRate:     0.4,
		HighRate:    2.0,
		PauseMobile: 20 * sim.Second,
		BaseSeed:    1,
	}
}

// renderTable renders the named table on a fresh tiny suite.
func renderTable(t *testing.T, name string, out io.Writer) *Table {
	t.Helper()
	s := NewSuite(tiny(), out)
	tab, err := s.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	tab := renderTable(t, "table1", &buf)
	if len(tab.Rows) != 3 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	// 802.11 nodes are always awake; Rcast nodes are not.
	if tab.Rows[0].Labels[0] != scenario.SchemeAlwaysOn.String() || tab.Value(0, "awakeFrac") < 0.999 {
		t.Fatalf("802.11 awake fraction = %v", tab.Value(0, "awakeFrac"))
	}
	if tab.Rows[2].Labels[0] != scenario.SchemeRcast.String() || tab.Value(2, "awakeFrac") > 0.9 {
		t.Fatalf("Rcast awake fraction = %v", tab.Value(2, "awakeFrac"))
	}
	if !strings.Contains(buf.String(), "Table 1") {
		t.Fatal("report missing header")
	}
}

func TestFig5(t *testing.T) {
	var buf bytes.Buffer
	s := NewSuite(tiny(), &buf)
	panels, err := s.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 4 {
		t.Fatalf("got %d panels, want 4", len(panels))
	}
	for _, p := range panels {
		for sch, curve := range p.Curves {
			if len(curve) != tiny().Nodes {
				t.Fatalf("%v curve has %d points", sch, len(curve))
			}
			for i := 1; i < len(curve); i++ {
				if curve[i] < curve[i-1] {
					t.Fatalf("%v curve not ascending", sch)
				}
			}
		}
		// The headline: Rcast's hottest node is cooler than 802.11's flat line.
		rc := p.Curves[scenario.SchemeRcast]
		ao := p.Curves[scenario.SchemeAlwaysOn]
		if rc[len(rc)-1] >= ao[len(ao)-1]+1e-9 {
			t.Fatalf("Rcast max %.1f not below 802.11 %.1f", rc[len(rc)-1], ao[len(ao)-1])
		}
	}
}

func TestSweepFiguresShareRuns(t *testing.T) {
	s := NewSuite(tiny(), nil)
	if _, err := s.Fig6(); err != nil {
		t.Fatal(err)
	}
	after6 := s.SimRuns()
	if _, err := s.Fig7(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fig8(); err != nil {
		t.Fatal(err)
	}
	if s.SimRuns() != after6 {
		t.Fatalf("Figs 7/8 re-ran simulations: %d -> %d", after6, s.SimRuns())
	}
}

// TestSuiteRunsEachConfigOnce checks the suite's content-addressed cache:
// after All, every figure and table cell is cached under its CanonicalKey,
// each distinct key ran once, and each table row reads the results a fresh
// batch of its own config produces.
func TestSuiteRunsEachConfigOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	p := tiny()
	s := NewSuite(p, nil)
	if err := s.All(); err != nil {
		t.Fatal(err)
	}
	_, cfgs := s.sweepCells()
	var names []string
	var rowCfgs []scenario.Config
	var rowAggs []*scenario.Aggregate
	for _, g := range generators {
		if g.table == nil {
			continue
		}
		tab, err := s.Table(g.name)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range g.table(s).rows {
			names = append(names, fmt.Sprintf("%s %v", g.name, r.labels))
			rowCfgs = append(rowCfgs, r.cfg)
			rowAggs = append(rowAggs, tab.Rows[i].Agg)
		}
	}
	distinct := make(map[string]bool)
	for _, cfg := range append(cfgs, rowCfgs...) {
		k, err := cfg.CanonicalKey(p.Reps)
		if err != nil {
			t.Fatal(err)
		}
		if s.cache[k] == nil {
			t.Fatalf("%v rate=%.1f not cached under its CanonicalKey", cfg.Scheme, cfg.PacketRate)
		}
		distinct[k] = true
	}
	if len(distinct) == len(cfgs)+len(rowCfgs) {
		t.Fatal("no table row repeats a figure cell, so nothing was deduplicated")
	}
	if len(s.cache) != len(distinct) {
		t.Fatalf("cache holds %d batches, the suite prints %d distinct configs", len(s.cache), len(distinct))
	}
	if want := int64(len(distinct) * p.Reps); s.SimRuns() != want {
		t.Fatalf("SimRuns = %d, want %d distinct configs x %d reps", s.SimRuns(), len(distinct), p.Reps)
	}

	fresh, err := scenario.RunBatch(context.Background(), 0, p.Reps, rowCfgs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		got, err := json.Marshal(rowAggs[i].Results)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(fresh[i].Results)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: cached results differ from a fresh run of the row's config", name)
		}
	}
}

func TestFig6VarianceShape(t *testing.T) {
	s := NewSuite(tiny(), nil)
	points, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Scheme == scenario.SchemeAlwaysOn && p.EnergyVariance != 0 {
			t.Fatalf("802.11 variance = %v at rate %v", p.EnergyVariance, p.Rate)
		}
		if p.EnergyVariance < 0 {
			t.Fatal("negative variance")
		}
	}
}

func TestFig7EnergyOrdering(t *testing.T) {
	s := NewSuite(tiny(), nil)
	points, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	type mobileCell struct {
		scheme scenario.Scheme
		rate   float64
	}
	mobile := make(map[mobileCell]SweepPoint)
	for _, p := range points {
		if !p.Static {
			mobile[mobileCell{p.Scheme, p.Rate}] = p
		}
	}
	for _, rate := range tiny().Rates {
		ao := mobile[mobileCell{scenario.SchemeAlwaysOn, rate}]
		rc := mobile[mobileCell{scenario.SchemeRcast, rate}]
		if rc.TotalJoules >= ao.TotalJoules {
			t.Fatalf("rate %.1f: Rcast energy %.0f not below 802.11 %.0f",
				rate, rc.TotalJoules, ao.TotalJoules)
		}
		if rc.PDR < 0.5 || ao.PDR < 0.5 {
			t.Fatalf("rate %.1f: implausible PDR (rcast %.2f, 802.11 %.2f)", rate, rc.PDR, ao.PDR)
		}
	}
}

func TestFig8DelayOrdering(t *testing.T) {
	s := NewSuite(tiny(), nil)
	points, err := s.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range tiny().Rates {
		var ao, rc SweepPoint
		for _, p := range points {
			if p.Rate != rate || p.Static {
				continue
			}
			switch p.Scheme {
			case scenario.SchemeAlwaysOn:
				ao = p
			case scenario.SchemeRcast:
				rc = p
			}
		}
		if rc.AvgDelaySec <= ao.AvgDelaySec {
			t.Fatalf("rate %.1f: Rcast delay %.3f not above 802.11 %.3f",
				rate, rc.AvgDelaySec, ao.AvgDelaySec)
		}
	}
}

func TestFig9(t *testing.T) {
	s := NewSuite(tiny(), nil)
	panels, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 6 {
		t.Fatalf("got %d panels, want 6", len(panels))
	}
	for _, p := range panels {
		if p.RoleMax < p.RoleMean {
			t.Fatalf("%v: RoleMax %v < RoleMean %v", p.Scheme, p.RoleMax, p.RoleMean)
		}
		if p.Scheme == scenario.SchemeAlwaysOn && p.Correlation != 0 {
			// 802.11 energy is flat, so the correlation is undefined -> 0.
			t.Fatalf("802.11 correlation = %v", p.Correlation)
		}
	}
}

func TestAblations(t *testing.T) {
	s := NewSuite(tiny(), nil)
	for name, want := range map[string]int{"a1": 5, "a2": 3, "a3": 2} {
		tab, err := s.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != want {
			t.Fatalf("%s: %d rows, want %d", name, len(tab.Rows), want)
		}
		if name != "a2" {
			continue
		}
		// Randomized overhearing (Rcast, row 2) must cost less than
		// unconditional (PSM, row 1).
		if rcast, uncond := tab.Value(2, "energy(J)"), tab.Value(1, "energy(J)"); rcast >= uncond {
			t.Fatalf("A2: Rcast %.0f J not below unconditional %.0f J", rcast, uncond)
		}
	}
}

func TestAblationCacheStrategies(t *testing.T) {
	tab := renderTable(t, "a4", nil)
	if len(tab.Rows) != 4 {
		t.Fatalf("A4: %d rows", len(tab.Rows))
	}
	for i, r := range tab.Rows {
		if pdr := tab.Value(i, "PDR"); pdr < 0.3 {
			t.Fatalf("A4 %q: PDR %.3f implausible", r.Labels[0], pdr)
		}
	}
}

func TestAblationLifetime(t *testing.T) {
	tab := renderTable(t, "a5", nil)
	if len(tab.Rows) != 3 {
		t.Fatalf("A5: %d rows", len(tab.Rows))
	}
	// Rows follow figureSchemes: 802.11, ODPM, Rcast. The battery is
	// sized so every always-awake node dies mid-run.
	aoDead, rcDead := tab.Value(0, "deadNodes"), tab.Value(2, "deadNodes")
	if aoDead != float64(tiny().Nodes) {
		t.Fatalf("A5: 802.11 lost %v nodes, want all %d", aoDead, tiny().Nodes)
	}
	if rcDead >= aoDead {
		t.Fatalf("A5: Rcast lost %v nodes, not fewer than 802.11's %v", rcDead, aoDead)
	}
	if tab.Value(0, "firstDeath(s)") <= 0 {
		t.Fatal("A5: no first-death time recorded for 802.11")
	}
}

func TestAblationATIM(t *testing.T) {
	tab := renderTable(t, "a7", nil)
	if len(tab.Rows) != 4 {
		t.Fatalf("A7: %d rows", len(tab.Rows))
	}
	for i, r := range tab.Rows {
		if r.Labels[0] == "reliable" && tab.Value(i, "atimFail") != 0 {
			t.Fatalf("A7: reliable mode reported %v ATIM failures", tab.Value(i, "atimFail"))
		}
		if pdr := tab.Value(i, "PDR"); pdr < 0.3 {
			t.Fatalf("A7: PDR %.3f implausible", pdr)
		}
	}
}

func TestAblationRouting(t *testing.T) {
	tab := renderTable(t, "a6", nil)
	if len(tab.Rows) != 6 {
		t.Fatalf("A6: %d rows", len(tab.Rows))
	}
	for i, r := range tab.Rows {
		if pdr := tab.Value(i, "PDR"); pdr < 0.3 {
			t.Fatalf("A6 %v: PDR %.3f implausible", r.Labels, pdr)
		}
		hello := tab.Value(i, "hello")
		if r.Labels[0] == "DSR" && hello != 0 {
			t.Fatal("A6: DSR reported hello traffic")
		}
		if r.Labels[0] == "AODV (hello 1s)" && hello == 0 {
			t.Fatal("A6: hello-enabled AODV sent no hellos")
		}
	}
}

func TestAblationFaults(t *testing.T) {
	tab := renderTable(t, "a8", nil)
	if len(tab.Rows) != 16 {
		t.Fatalf("A8: %d rows, want 4 variants x 4 schemes", len(tab.Rows))
	}
	for i, r := range tab.Rows {
		crashes, flushed, lost := tab.Value(i, "crashes"), tab.Value(i, "flushed"), tab.Value(i, "faultLost")
		switch r.Labels[0] {
		case "none":
			if crashes != 0 || flushed != 0 || lost != 0 {
				t.Fatalf("A8 %v: fault counters nonzero", r.Labels)
			}
		case "crash":
			if crashes == 0 {
				t.Fatalf("A8 %v: no crashes recorded", r.Labels)
			}
			if lost != 0 {
				t.Fatalf("A8 %v: burst loss leaked into the crash-only cell", r.Labels)
			}
		case "burst-loss":
			if lost == 0 {
				t.Fatalf("A8 %v: loss model vanished no frames", r.Labels)
			}
			if crashes != 0 {
				t.Fatalf("A8 %v: crashes leaked into the loss-only cell", r.Labels)
			}
		case "crash+loss":
			if crashes == 0 || lost == 0 {
				t.Fatalf("A8 %v: combined cell missing a fault class", r.Labels)
			}
		default:
			t.Fatalf("A8: unknown variant %q", r.Labels[0])
		}
	}
}

// TestTableUnknownName checks that an unknown name's error lists every
// valid name, in report order.
func TestTableUnknownName(t *testing.T) {
	_, err := NewSuite(tiny(), nil).Table("fig99")
	if err == nil || !strings.Contains(err.Error(), strings.Join(Names(), ", ")) {
		t.Fatalf("err = %v, want the valid names listed", err)
	}
}

func TestSetFaultsAppliesToSuiteRuns(t *testing.T) {
	s := NewSuite(tiny(), nil)
	clean, err := s.prefetch(s.low(scenario.SchemeRcast))
	if err != nil {
		t.Fatal(err)
	}
	if clean[0].Results[0].NodeCrashes != 0 {
		t.Fatal("unfaulted suite run recorded crashes")
	}
	plan, err := fault.Preset("crash")
	if err != nil {
		t.Fatal(err)
	}
	// The plan is part of the cache key, so the faulted cell runs afresh
	// instead of reading the clean one.
	s.SetFaults(plan)
	faulted, err := s.prefetch(s.low(scenario.SchemeRcast))
	if err != nil {
		t.Fatal(err)
	}
	if faulted[0].Results[0].NodeCrashes == 0 {
		t.Fatal("SetFaults plan did not reach the suite's simulations")
	}
}

func TestAllRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	var buf bytes.Buffer
	s := NewSuite(tiny(), &buf)
	if err := s.All(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 1", "Fig 5", "Fig 6", "Fig 7", "Fig 8", "Fig 9",
		"Ablation A1", "Ablation A2", "Ablation A3", "Ablation A8"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report missing %q", want)
		}
	}
	// The golden file pins every byte the generators print, so a change
	// to a table's layout or to the simulations behind it shows up here.
	golden := filepath.Join("testdata", "tiny-suite.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("suite stdout differs from %s (rerun with -update if intended):\n%s", golden, buf.String())
	}
}

func TestProfiles(t *testing.T) {
	for _, p := range []Profile{Paper(), Quick()} {
		foundLow, foundHigh := false, false
		for _, r := range p.Rates {
			if r == p.LowRate {
				foundLow = true
			}
			if r == p.HighRate {
				foundHigh = true
			}
		}
		if !foundLow || !foundHigh {
			t.Fatalf("profile %s: corner rates not in sweep", p.Name)
		}
		if p.Nodes < 2 || p.Duration <= 0 || p.Reps < 1 {
			t.Fatalf("profile %s: invalid scale", p.Name)
		}
	}
}
