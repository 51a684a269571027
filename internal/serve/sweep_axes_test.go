package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rcast/internal/scenario"
	"rcast/internal/sim"
)

// mustCells expands a sweep body.
func mustCells(t *testing.T, body string) []SweepCell {
	t.Helper()
	req, err := ParseSweepRequest(strings.NewReader(body))
	if err != nil {
		t.Fatalf("parse %s: %v", body, err)
	}
	cells, err := req.Cells()
	if err != nil {
		t.Fatalf("cells of %s: %v", body, err)
	}
	return cells
}

func TestSweepSizeAndOrder(t *testing.T) {
	cells := mustCells(t, `{"schemes":["802.11","Rcast"],"rates":[0.4,2],"pauses_sec":[600,-1],"duration_sec":900}`)
	if len(cells) != 8 {
		t.Fatalf("len(cells) = %d, want 8", len(cells))
	}
	// Scheme outermost, then rate, then pause.
	type point struct {
		scheme scenario.Scheme
		rate   float64
		pause  sim.Time
	}
	static := 900 * sim.Second
	want := []point{
		{scenario.SchemeAlwaysOn, 0.4, 600 * sim.Second}, {scenario.SchemeAlwaysOn, 0.4, static},
		{scenario.SchemeAlwaysOn, 2, 600 * sim.Second}, {scenario.SchemeAlwaysOn, 2, static},
		{scenario.SchemeRcast, 0.4, 600 * sim.Second}, {scenario.SchemeRcast, 0.4, static},
		{scenario.SchemeRcast, 2, 600 * sim.Second}, {scenario.SchemeRcast, 2, static},
	}
	for i, w := range want {
		got := point{cells[i].cfg.Scheme, cells[i].cfg.PacketRate, cells[i].cfg.Pause}
		if got != w {
			t.Fatalf("cell %d = %+v, want %+v", i, got, w)
		}
	}
}

func TestSweepOptionalAxesKeepBase(t *testing.T) {
	cells := mustCells(t, `{"schemes":["ODPM"],"packet_rate":1.7,"pause_sec":123,"gossip_fanout":2}`)
	if len(cells) != 1 {
		t.Fatalf("singleton sweep expanded to %d cells", len(cells))
	}
	cfg := cells[0].cfg
	if cfg.Scheme != scenario.SchemeODPM || cfg.PacketRate != 1.7 || cfg.Pause != 123*sim.Second || cfg.GossipFanout != 2 {
		t.Fatalf("absent axes did not keep base values: %+v", cfg)
	}
	// No axis at all is one cell too, once the base names a scheme.
	if free := mustCells(t, `{"scheme":"PSM","nodes":30}`); len(free) != 1 || free[0].cfg.Nodes != 30 {
		t.Fatalf("axis-free sweep = %d cells", len(free))
	}
}

func TestSweepApplyAxes(t *testing.T) {
	req, err := ParseSweepRequest(strings.NewReader(`{"schemes":["Rcast"],"rates":[1.2],"pauses_sec":[-1,75],"fault_presets":["crash"],"gossip_fanouts":[3],"duration_sec":200}`))
	if err != nil {
		t.Fatal(err)
	}
	before, _ := json.Marshal(req)
	cells, err := req.Cells()
	if err != nil {
		t.Fatal(err)
	}
	cfg := cells[0].cfg
	if cfg.PacketRate != 1.2 || cfg.GossipFanout != 3 || cfg.Faults == nil {
		t.Fatalf("axes not applied: rate=%v gossip=%v faults=%v", cfg.PacketRate, cfg.GossipFanout, cfg.Faults)
	}
	if cfg.Pause != cfg.Duration {
		t.Fatalf("static pause = %v, want duration %v", cfg.Pause, cfg.Duration)
	}
	if p := cells[1].cfg.Pause; p != 75*sim.Second {
		t.Fatalf("pause = %v, want 75s", p)
	}
	// Expansion must not mutate the request.
	if after, _ := json.Marshal(req); !bytes.Equal(before, after) {
		t.Fatalf("Cells mutated the request:\n%s\n%s", before, after)
	}
}

func TestSweepValidation(t *testing.T) {
	for name, body := range map[string]string{
		"no scheme":        `{}`,
		"bad scheme":       `{"schemes":["Scheme(99)"]}`,
		"zero rate":        `{"schemes":["Rcast"],"rates":[0]}`,
		"negative rate":    `{"schemes":["Rcast"],"rates":[-0.5]}`,
		"unknown fault":    `{"schemes":["Rcast"],"fault_presets":["warp"]}`,
		"bad gossip":       `{"schemes":["Rcast"],"gossip_fanouts":[-1]}`,
		"unknown policy":   `{"schemes":["Rcast"],"policies":["fixed-0.50"]}`,
		"bad tx power":     `{"schemes":["Rcast"],"tx_powers_dbm":[-80]}`,
		"unknown channel":  `{"schemes":["Rcast"],"channels":["nakagami"]}`,
		"unknown mobility": `{"schemes":["Rcast"],"mobilities":["levy"]}`,
		"unknown axis":     `{"schemes":["Rcast"],"axes":{"warp":[1]}}`,
		"axis given twice": `{"schemes":["Rcast"],"axes":{"scheme":["PSM"]}}`,
		"alias and axis":   `{"schemes":["Rcast"],"channels":["disk"],"axes":{"channel":["fading"]}}`,
		"negative battery": `{"schemes":["Rcast"],"axes":{"battery_joules":[-5]}}`,
	} {
		req, err := ParseSweepRequest(strings.NewReader(body))
		if err == nil {
			_, err = req.Cells()
		}
		if err == nil {
			t.Errorf("%s: %s accepted", name, body)
		}
	}
	// The empty preset name is the "no faults" cell and must validate.
	cells := mustCells(t, `{"schemes":["Rcast"],"fault_presets":["","crash"]}`)
	if cells[0].cfg.Faults != nil || cells[1].cfg.Faults == nil {
		t.Fatalf("fault axis: %v, %v", cells[0].cfg.Faults, cells[1].cfg.Faults)
	}
}

// TestSweepAcceptsEveryRegisteredScheme: sweeps parse schemes through the
// field table, i.e. against the scheme registry, never an enum span (the
// registry-extension half of this regression is
// scenario.TestFieldsAcceptRegisteredScheme).
func TestSweepAcceptsEveryRegisteredScheme(t *testing.T) {
	var names []string
	for _, s := range scenario.Schemes() {
		names = append(names, s.String())
	}
	cells, err := SweepRequest{Schemes: names}.Cells()
	if err != nil {
		t.Fatalf("registered schemes rejected: %v", err)
	}
	for i, s := range scenario.Schemes() {
		if cells[i].cfg.Scheme != s {
			t.Fatalf("cell %d scheme %v, want %v", i, cells[i].cfg.Scheme, s)
		}
	}
}

func TestSweepPolicyAndTxPowerAxes(t *testing.T) {
	cells := mustCells(t, `{"schemes":["Rcast"],"policies":["","battery"],"tx_powers_dbm":[-3,0]}`)
	if len(cells) != 4 {
		t.Fatalf("len(cells) = %d, want 4", len(cells))
	}
	// Policy expands outside tx power, both innermost of the legacy axes.
	want := []struct {
		policy string
		db     float64
	}{{"", -3}, {"", 0}, {"battery", -3}, {"battery", 0}}
	for i, w := range want {
		if c := cells[i].cfg; c.PolicyName != w.policy || c.TxPowerDBm != w.db {
			t.Fatalf("cell %d policy=%q tx=%v, want %+v", i, c.PolicyName, c.TxPowerDBm, w)
		}
	}
}

func TestSweepChannelMobilityAxes(t *testing.T) {
	cells := mustCells(t, `{"schemes":["Rcast"],"channels":["disk","fading"],"mobilities":["waypoint","group"],"shadow_sigma_db":6}`)
	if len(cells) != 4 {
		t.Fatalf("len(cells) = %d, want 4", len(cells))
	}
	// Channel expands outside mobility, both inside the older axes.
	want := [][2]string{{"disk", "waypoint"}, {"disk", "group"}, {"fading", "waypoint"}, {"fading", "group"}}
	for i, w := range want {
		if c := cells[i].cfg; c.Channel != w[0] || c.Mobility != w[1] || c.ShadowSigmaDB != 6 {
			t.Fatalf("cell %d channel=%q mobility=%q sigma=%v, want %v", i, c.Channel, c.Mobility, c.ShadowSigmaDB, w)
		}
	}
}

// TestSweepGenericAxes: any field-table key is sweepable, expanding after
// the legacy axes in table order, and a pause axis overrides a static
// base.
func TestSweepGenericAxes(t *testing.T) {
	cells := mustCells(t, `{"schemes":["Rcast"],"static":true,"duration_sec":100,"axes":{"nodes":[10,20],"pause_sec":[5],"packet_bytes":[256]}}`)
	if len(cells) != 2 {
		t.Fatalf("len(cells) = %d, want 2", len(cells))
	}
	for i, nodes := range []int{10, 20} {
		c := cells[i].cfg
		if c.Nodes != nodes || c.PacketBytes != 256 || c.Pause != 5*sim.Second {
			t.Fatalf("cell %d nodes=%d bytes=%d pause=%v", i, c.Nodes, c.PacketBytes, c.Pause)
		}
	}
	// Every job key is settable at the base.
	cells = mustCells(t, `{"schemes":["Rcast"],"packet_rate":2,"fault_preset":"crash","gossip_fanout":2,"channel":"shadowing","mobility":"group","policy":"battery","tx_power_dbm":-3}`)
	c := cells[0].cfg
	if c.PacketRate != 2 || c.Faults == nil || c.GossipFanout != 2 || c.Channel != "shadowing" ||
		c.ShadowSigmaDB != 4 || c.Mobility != "group" || c.PolicyName != "battery" || c.TxPowerDBm != -3 {
		t.Fatalf("base keys not applied: %+v", c)
	}
}

// legacySweep exercises all nine legacy axes and every legacy base field.
const legacySweep = `{"schemes":["PSM","Rcast"],"rates":[0.4,1],"pauses_sec":[300,-1],"fault_presets":["","crash"],"gossip_fanouts":[0,2],"channels":["disk","shadowing"],"mobilities":["waypoint","group"],"policies":["","battery"],"tx_powers_dbm":[-3,0],"routing":"DSR","nodes":20,"field_w":600,"field_h":300,"range_m":200,"connections":4,"packet_bytes":256,"duration_sec":30,"static":true,"min_speed":0.5,"max_speed":10,"seed":7,"reps":2,"battery_joules":500,"audit":true,"shadow_sigma_db":6,"group_size":3,"group_radius_m":40}`

// TestLegacySweepKeysPinned pins the cell keys and SweepKey of sweeps in
// the original request shape, computed before the sweep layer moved onto
// the field table: the move must not split a single cache entry.
func TestLegacySweepKeysPinned(t *testing.T) {
	cells := mustCells(t, legacySweep)
	if len(cells) != 512 {
		t.Fatalf("len(cells) = %d, want 512", len(cells))
	}
	if got, want := SweepKey(cells), "4045fc6034c876618d11e68fb6e66ec2628fa15324ce18f62c43b3a4c35bf767"; got != want {
		t.Fatalf("SweepKey = %s, want %s", got, want)
	}
	for i, want := range map[int]string{
		0:   "f06fa4a2c6461db3023d34313f2bb3fb66c04bf59f62c20a78167515ccbf2353",
		1:   "901291b6aceb7fdf176fa88fc9022055e11a13b0dbe4c9d9b41e58fde91a22f8",
		2:   "708b02d32182170ae52958ca31b938abb4f2890ab82fad93bb381222f3e6bd6d",
		4:   "c0cae73903434a66fa1ea684e4dacd3580090e67a5152ce3ac3a5f01ae03daaa",
		8:   "156e95351baa1d18399e8b19ffb58e4710695db83bbb1531933d2a80a027788c",
		16:  "9b28171c53c388d8cc3228dee1d011137312202a44dfe5d25a86398f4e7ad1b8",
		32:  "1d271bf29e32029df26ee59cd05e53fd813c7f4a7a4f77e1dfc83652e2209361",
		64:  "668789c5dd83f4b219d247bc6dab0a48f8aa0f68d3e9210e1bc5c526b551e4ee",
		128: "d308f6d5ab9ee80479259b65bc0713354c7d675829f8d8bc5bfd52c8bf88eb90",
		256: "03a8d1ae34944e88b9cd7816a767ea2eae61e64503fc6cb60cb7fdae972ce990",
		511: "4cc8c8cd5962d9bc6153d5c7074add830f3ea6f17eacce0fb7d9e39b398e7d43",
	} {
		if cells[i].Key != want {
			t.Errorf("cell %d key = %s, want %s", i, cells[i].Key, want)
		}
	}
	// Every cell's request re-resolves to its key, as a fleet worker
	// decoding it would.
	for _, c := range cells {
		b, err := json.Marshal(c.Req)
		if err != nil {
			t.Fatal(err)
		}
		req, err := ParseJobRequest(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("cell %d request %s: %v", c.Index, b, err)
		}
		cfg, reps, err := req.Config()
		if err != nil {
			t.Fatalf("cell %d request %s: %v", c.Index, b, err)
		}
		if key, _ := cfg.CanonicalKey(reps); key != c.Key {
			t.Fatalf("cell %d request %s resolves to %s, want %s", c.Index, b, key, c.Key)
		}
	}

	// The Go-literal shapes the benchmark builds.
	seed, pause := int64(3), 15.0
	sr := SweepRequest{Schemes: []string{"ODPM"}, Rates: []float64{0.2, 0.4, 1, 2}, PausesSec: []float64{15},
		Nodes: 20, FieldW: 600, FieldH: 300, Connections: 4, DurationSec: 30, Seed: &seed}
	cells, err := sr.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := SweepKey(cells), "b1f6f581927e718e9a297c3f88afdaad694392ac4db5507a8453919703138c6e"; got != want {
		t.Fatalf("literal SweepKey = %s, want %s", got, want)
	}
	jr := JobRequest{Scheme: "ODPM", Nodes: 20, FieldW: 600, FieldH: 300, Connections: 4, PacketRate: 0.2,
		DurationSec: 30, PauseSec: &pause, Seed: &seed}
	cfg, reps, err := jr.Config()
	if err != nil {
		t.Fatal(err)
	}
	if key, _ := cfg.CanonicalKey(reps); key != "ce2ec968605a4774bfaaf05aa65353dd0e0a1bca425f3bf378763aeef6d58d4c" || key != cells[0].Key {
		t.Fatalf("literal job key = %s", key)
	}
}

// TestOldFieldNamesAccepted: every field name of the original job and
// sweep bodies is still accepted and still moves the configuration.
func TestOldFieldNamesAccepted(t *testing.T) {
	jobFields := map[string]string{
		"policy": `"battery"`, "routing": `"AODV"`, "nodes": `30`, "field_w": `900`, "field_h": `400`,
		"range_m": `200`, "tx_power_dbm": `-3`, "connections": `5`, "packet_rate": `2`, "packet_bytes": `256`,
		"duration_sec": `60`, "pause_sec": `30`, "static": `true`, "min_speed": `2`, "max_speed": `10`,
		"channel": `"fading"`, "shadow_sigma_db": `6`, "mobility": `"group"`, "group_size": `3`,
		"group_radius_m": `30`, "seed": `9`, "reps": `2`, "gossip_fanout": `2`, "battery_joules": `500`,
		"audit": `true`, "fault_preset": `"crash"`, "timeout_sec": `60`, "trace": `true`,
	}
	keyOf := func(body string) string {
		t.Helper()
		req, err := ParseJobRequest(strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		cfg, reps, err := req.Config()
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		key, err := cfg.CanonicalKey(reps)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return key
	}
	// Keys that only matter under another knob are checked under it.
	under := map[string]string{"shadow_sigma_db": `"channel":"shadowing",`, "group_size": `"mobility":"group",`, "group_radius_m": `"mobility":"group",`}
	for name, value := range jobFields {
		base := `{` + under[name] + `"scheme":"Rcast"}`
		body := `{` + under[name] + `"scheme":"Rcast","` + name + `":` + value + `}`
		moved := keyOf(body) != keyOf(base)
		if execOnly := name == "timeout_sec" || name == "trace"; moved == execOnly {
			t.Errorf("job field %s: key moved = %v", name, moved)
		}
	}

	sweepFields := map[string]string{
		"schemes": `["Rcast"]`, "rates": `[2]`, "pauses_sec": `[30]`, "fault_presets": `["crash"]`,
		"gossip_fanouts": `[2]`, "channels": `["fading"]`, "mobilities": `["group"]`, "policies": `["battery"]`,
		"tx_powers_dbm": `[-3]`, "routing": `"AODV"`, "nodes": `30`, "field_w": `900`, "field_h": `400`,
		"range_m": `200`, "connections": `5`, "packet_bytes": `256`, "duration_sec": `60`, "static": `true`,
		"min_speed": `2`, "max_speed": `10`, "seed": `9`, "reps": `2`, "battery_joules": `500`, "audit": `true`,
		"shadow_sigma_db": `6`, "group_size": `3`, "group_radius_m": `30`, "timeout_sec": `60`,
	}
	for name, value := range sweepFields {
		body := `{"schemes":["PSM"],"channels":["shadowing"],"mobilities":["group"],"` + name + `":` + value + `}`
		if name == "schemes" || name == "channels" || name == "mobilities" {
			body = `{"` + name + `":` + value + `,"scheme":"PSM"}`
		}
		req, err := ParseSweepRequest(strings.NewReader(body))
		if err != nil {
			t.Errorf("sweep field %s: %v", name, err)
			continue
		}
		if _, err := req.Cells(); err != nil {
			t.Errorf("sweep field %s: %v", name, err)
		}
	}
}

// TestShadowingJobMatchesCLI: a job naming the shadowing channel runs
// rcast-sim's documented 4 dB, so both surfaces share one cache key.
func TestShadowingJobMatchesCLI(t *testing.T) {
	req, err := ParseJobRequest(strings.NewReader(`{"scheme":"Rcast","channel":"shadowing"}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, reps, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("rcast-sim", flag.ContinueOnError)
	apply := scenario.RegisterFlags(fs)
	cli := scenario.PaperDefaults()
	if err := fs.Parse([]string{"-channel", "shadowing"}); err != nil {
		t.Fatal(err)
	}
	if err := apply(&cli); err != nil {
		t.Fatal(err)
	}
	job, errJob := cfg.CanonicalKey(reps)
	want, errCLI := cli.CanonicalKey(1)
	if errJob != nil || errCLI != nil || job != want || cfg.ShadowSigmaDB != 4 {
		t.Fatalf("job key %s (sigma %v), CLI key %s (%v, %v)", job, cfg.ShadowSigmaDB, want, errJob, errCLI)
	}
}

// TestFleetExplicitZeroSigma: an explicit shadow_sigma_db of 0 in a sweep
// cell reaches the fleet worker as 0, not as the 4 dB default.
func TestFleetExplicitZeroSigma(t *testing.T) {
	ws := New(Options{Workers: 1, QueueDepth: 8})
	var mu sync.Mutex
	var bodies []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/api/v1/jobs" {
			b, _ := io.ReadAll(r.Body)
			mu.Lock()
			bodies = append(bodies, string(b))
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(b))
		}
		ws.Handler().ServeHTTP(w, r)
	}))
	coord, err := NewCoordinator(Options{Workers: 1, QueueDepth: 4},
		FleetOptions{Workers: []string{ts.URL}, PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		shutdownServer(t, coord)
		ts.Close()
		shutdownServer(t, ws)
	})

	req, err := ParseSweepRequest(strings.NewReader(`{"schemes":["Rcast"],"nodes":12,"connections":3,"duration_sec":10,"static":true,"channel":"shadowing","axes":{"shadow_sigma_db":[0]}}`))
	if err != nil {
		t.Fatal(err)
	}
	sw, out, err := coord.SubmitSweep(req)
	if err != nil || out != OutcomeAccepted {
		t.Fatalf("submit: out=%v err=%v", out, err)
	}
	// The coordinator checks every worker result against the cell key, so
	// a worker that fell back to 4 dB fails the sweep.
	if st := waitSweepTerminal(t, sw); st.State != StateDone {
		t.Fatalf("sweep ended %s: %s", st.State, st.Error)
	}
	if sw.cells[0].cfg.ShadowSigmaDB != 0 {
		t.Fatalf("cell sigma = %v, want 0", sw.cells[0].cfg.ShadowSigmaDB)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 1 || !strings.Contains(bodies[0], `"shadow_sigma_db":0`) {
		t.Fatalf("worker received %q", bodies)
	}
}

// TestJobBodyRoundTrips: a decoded body re-encodes to the same keys and
// values, explicit zeros included, and new canonical keys are job keys.
func TestJobBodyRoundTrips(t *testing.T) {
	body := `{"scheme":"Rcast","nodes":0,"shadow_sigma_db":0,"channel":"shadowing","traffic_start_us":2000000,"mac":{"atim_window_us":40000},"reps":2}`
	req, err := ParseJobRequest(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if req.Scheme != "Rcast" || req.Nodes != 0 || req.Set["nodes"] == nil || req.Reps != 2 {
		t.Fatalf("decoded %+v", req)
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var a, c map[string]any
	if err := json.Unmarshal([]byte(body), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a) != fmt.Sprint(c) {
		t.Fatalf("round trip %s → %s", body, b)
	}
	// An explicit zero node count is taken as given: invalid, not the
	// default.
	if _, _, err := req.Config(); err == nil {
		t.Fatal("nodes 0 accepted")
	}
	delete(req.Set, "nodes")
	cfg, _, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TrafficStart != 2*sim.Second || cfg.MAC.ATIMWindow != 40*sim.Millisecond || cfg.ShadowSigmaDB != 0 || cfg.MAC.BeaconInterval != scenario.PaperDefaults().MAC.BeaconInterval {
		t.Fatalf("resolved %+v", cfg)
	}
}
