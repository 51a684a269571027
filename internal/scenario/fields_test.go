package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rcast/internal/core"
	"rcast/internal/fault"
	"rcast/internal/trace"
)

func TestDecodeConfigInvertsGoldens(t *testing.T) {
	for name, golden := range map[string]string{"default": goldenDefault, "faulted": goldenFaulted} {
		cfg, err := DecodeConfig([]byte(golden))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		b, err := cfg.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if string(b) != golden {
			t.Fatalf("%s: decode→encode drifted:\n got %s\nwant %s", name, b, golden)
		}
	}
}

func TestDecodeConfigPartialKeepsDefaults(t *testing.T) {
	cfg, err := DecodeConfig([]byte(`{"nodes":30,"pause_sec":-1,"duration_sec":60}`))
	if err != nil {
		t.Fatal(err)
	}
	want := PaperDefaults()
	want.Nodes = 30
	want.Duration = 60_000_000
	want.Pause = want.Duration // a negative pause is the static scenario
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("partial decode = %+v, want %+v", cfg, want)
	}
	// An explicit zero is a zero, not "keep the default".
	cfg, err = DecodeConfig([]byte(`{"channel":"shadowing","shadow_sigma_db":0}`))
	if err != nil || cfg.ShadowSigmaDB != 0 {
		t.Fatalf("explicit zero sigma decoded to %v (err %v)", cfg.ShadowSigmaDB, err)
	}
	// The static legacy key wins over an explicit pause, as it always has.
	cfg, err = DecodeConfig([]byte(`{"static":true,"pause_sec":30}`))
	if err != nil || cfg.Pause != cfg.Duration {
		t.Fatalf("static with pause decoded pause=%v (err %v)", cfg.Pause, err)
	}
}

func TestDecodeConfigRejects(t *testing.T) {
	for name, body := range map[string]string{
		"unknown key":        `{"warp":9}`,
		"wrong type":         `{"nodes":"many"}`,
		"fractional int":     `{"nodes":12.5}`,
		"old version":        `{"v":2}`,
		"trailing data":      `{"nodes":30} {}`,
		"not an object":      `[1]`,
		"unknown nested key": `{"mac":{"warp":1}}`,
		"unknown preset":     `{"fault_preset":"warp"}`,
		"unknown scheme":     `{"scheme":"warp"}`,
		"unknown routing":    `{"routing":"OSPF"}`,
		"invalid config":     `{"nodes":1}`,
		"policy on 802.11":   `{"scheme":"802.11","policy":"rcast"}`,
	} {
		if _, err := DecodeConfig([]byte(body)); err == nil {
			t.Errorf("%s: %s accepted", name, body)
		}
	}
	// 802.11's own policy name is its default, so its canonical encoding
	// decodes.
	cfg := PaperDefaults()
	cfg.Scheme = SchemeAlwaysOn
	b, err := cfg.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeConfig(b); err != nil {
		t.Fatalf("802.11 canonical encoding rejected: %v", err)
	}
}

// TestFieldsAcceptRegisteredScheme is the registry-desync regression (a
// sweep used to check schemes against a hard-coded enum span): every
// surface decodes schemes through the field table, which resolves names
// against the registry, so registering a scheme makes it decodable and
// sweepable.
func TestFieldsAcceptRegisteredScheme(t *testing.T) {
	const extra = Scheme(99)
	saved := schemeRegistry
	schemeRegistry = append(append([]Scheme(nil), saved...), extra)
	t.Cleanup(func() { schemeRegistry = saved })

	cfg, err := Fields{"scheme": extra.String()}.Config()
	if err != nil {
		t.Fatalf("registered scheme rejected: %v", err)
	}
	if cfg.Scheme != extra {
		t.Fatalf("scheme = %v", cfg.Scheme)
	}
}

// TestRegisterFlagsMatchKeys: the config flags default to PaperDefaults,
// and each sets the same knob as its key does in a body.
func TestRegisterFlagsMatchKeys(t *testing.T) {
	parse := func(args ...string) (Config, *flag.FlagSet) {
		t.Helper()
		fs := flag.NewFlagSet("rcast-sim", flag.ContinueOnError)
		apply := RegisterFlags(fs)
		cfg := PaperDefaults()
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if err := apply(&cfg); err != nil {
			t.Fatal(err)
		}
		return cfg, fs
	}
	encode := func(c Config) string {
		t.Helper()
		b, err := c.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if def, _ := parse(); encode(def) != encode(PaperDefaults()) {
		t.Fatal("flag defaults differ from PaperDefaults")
	}
	cli, fs := parse("-scheme", "PSM", "-policy", "battery", "-routing", "AODV", "-nodes", "30",
		"-field-w", "900", "-field-h", "400", "-range", "200", "-tx-power", "-3", "-connections", "5",
		"-rate", "2", "-size", "256", "-speed", "10", "-channel", "shadowing", "-shadow-sigma", "6",
		"-mobility", "group", "-group-size", "3", "-group-radius", "30", "-seed", "9", "-battery", "500",
		"-gossip", "2", "-audit", "-duration", "60s", "-pause", "30s", "-faults", "crash")
	body, err := Fields{"scheme": "PSM", "policy": "battery", "routing": "AODV", "nodes": 30,
		"field_w": 900, "field_h": 400, "range_m": 200, "tx_power_dbm": -3, "connections": 5,
		"packet_rate": 2, "packet_bytes": 256, "max_speed": 10, "channel": "shadowing", "shadow_sigma_db": 6,
		"mobility": "group", "group_size": 3, "group_radius_m": 30, "seed": 9, "battery_joules": 500,
		"gossip_fanout": 2, "audit": true, "duration_sec": 60, "pause_sec": 30, "fault_preset": "crash"}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if encode(cli) != encode(body) {
		t.Fatalf("flags and body disagree:\n flags %s\n body  %s", encode(cli), encode(body))
	}
	flagged := 0
	for _, f := range fieldTable {
		if f.flag != "" {
			flagged++
		}
	}
	if fs.NFlag() != flagged-1 { // all but -static
		t.Fatalf("exercised %d of %d flags", fs.NFlag(), flagged)
	}
	if static, _ := parse("-static", "-duration", "60s"); static.Pause != static.Duration {
		t.Fatalf("-static pause = %v", static.Pause)
	}
}

// runtimeOnly lists the Config fields with no canonical form; every other
// field must be a field-table entry.
var runtimeOnly = map[string]func(c *Config){
	"Policy":            func(c *Config) { c.Policy = core.Rcast{} },
	"Trace":             func(c *Config) { c.Trace = trace.NewRecorder() },
	"Replay":            func(c *Config) { c.Replay = &ReplayHooks{} },
	"DSR.Gossip":        func(c *Config) { c.DSR.Gossip = &core.BroadcastGossip{} },
	"DSR.NeighborCount": func(c *Config) { c.DSR.NeighborCount = func() int { return 0 } },
}

// perturbed gives the knobs whose next value is not arithmetic.
var perturbed = map[string]any{
	"Scheme":     SchemePSM,
	"Routing":    RoutingAODV,
	"PolicyName": "battery",
	"Channel":    "fading",
	"Mobility":   "gauss-markov",
	"Faults":     &fault.Plan{CrashFraction: 0.1},
}

// TestEveryConfigFieldIsThreaded changes each Config field in turn and
// requires the canonical encoding to see it and to decode back to the
// same bytes, or the field to be on the runtime-only list. A knob added
// to Config but not to the field table fails here.
func TestEveryConfigFieldIsThreaded(t *testing.T) {
	base := PaperDefaults()
	base.Channel, base.Mobility = "shadowing", "group" // so no knob is normalized away
	baseJSON, err := base.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, fv := v.Type().Field(i), v.Field(i)
			name := path + f.Name
			if fv.Kind() == reflect.Struct {
				walk(fv, name+".")
				continue
			}
			cfg := base
			target := fieldByPath(reflect.ValueOf(&cfg).Elem(), name)
			if mutate, ok := runtimeOnly[name]; ok {
				mutate(&cfg)
				if _, err := cfg.CanonicalJSON(); !errors.Is(err, ErrNotCanonical) {
					t.Errorf("%s: runtime-only field encoded (err %v)", name, err)
				}
				continue
			}
			if !perturb(target, name) {
				t.Errorf("%s: no perturbation for kind %v; add it to the field table and to perturbed", name, target.Kind())
				continue
			}
			b, err := cfg.CanonicalJSON()
			if err != nil {
				t.Errorf("%s: encode: %v", name, err)
				continue
			}
			if string(b) == string(baseJSON) {
				t.Errorf("%s: changing it leaves the canonical encoding unchanged; it has no field-table entry", name)
				continue
			}
			f2, err := DecodeFields(b)
			back := PaperDefaults()
			if err == nil {
				err = f2.apply(&back)
			}
			b2, err2 := back.CanonicalJSON()
			if err != nil || err2 != nil || string(b2) != string(b) {
				t.Errorf("%s: does not decode back (err %v, %v):\n got %s\nwant %s", name, err, err2, b2, b)
			}
		}
	}
	walk(reflect.ValueOf(base), "")
}

// fieldByPath resolves a dotted field path such as "MAC.SIFS".
func fieldByPath(v reflect.Value, path string) reflect.Value {
	for _, name := range strings.Split(path, ".") {
		v = v.FieldByName(name)
	}
	return v
}

// perturb moves v off its current value, reporting false for a kind it
// cannot move.
func perturb(v reflect.Value, name string) bool {
	if p, ok := perturbed[name]; ok {
		v.Set(reflect.ValueOf(p))
		return true
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(2*v.Int() + 3)
	case reflect.Float64:
		v.SetFloat(2*v.Float() + 1.5)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	default:
		return false
	}
	return true
}

// FuzzDecodeConfig: arbitrary bytes never panic the decoder, and an
// accepted body re-encodes to canonical bytes that decode back to the
// same bytes.
func FuzzDecodeConfig(f *testing.F) {
	cells, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*", "cell.json"))
	if err != nil || len(cells) == 0 {
		f.Fatalf("corpus cells: %v (found %d)", err, len(cells))
	}
	for _, path := range cells {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(goldenDefault))
	f.Add([]byte(goldenFaulted))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := DecodeConfig(data)
		if err != nil {
			return
		}
		b, err := cfg.CanonicalJSON()
		if err != nil {
			t.Fatalf("accepted body %q has no canonical encoding: %v", data, err)
		}
		back, err := DecodeConfig(b)
		if err != nil {
			t.Fatalf("canonical bytes %s do not decode: %v", b, err)
		}
		b2, err := back.CanonicalJSON()
		if err != nil || string(b2) != string(b) {
			t.Fatalf("round trip drifted (err %v):\n got %s\nwant %s", err, b2, b)
		}
	})
}

// TestExtremeKnobsRejectedOrRunnable sets every numeric knob of the
// nested mac/dsr/aodv objects, the top-level energy and ODPM keys and the
// shadowing sigma to -1, 0 and the largest integer, one at a time. Each
// value must either fail validation or run a small world to completion
// without panicking: job and sweep bodies reach these keys, and a panic
// there would take down the server.
func TestExtremeKnobsRejectedOrRunnable(t *testing.T) {
	base := Fields{"nodes": 6, "field_w": 400, "field_h": 300, "connections": 2,
		"packet_rate": 2, "duration_sec": 4, "traffic_start_us": 500_000}
	def := PaperDefaults()
	type knob struct {
		key, leaf string
		variant   Fields
	}
	var knobs []knob
	for key, variant := range map[string]Fields{
		"mac":  {"scheme": "Rcast"},
		"dsr":  {"scheme": "Rcast"},
		"aodv": {"scheme": "Rcast", "routing": "AODV"},
	} {
		var leaves map[string]any
		raw, _ := json.Marshal(fieldNamed(key).get(&def))
		if err := json.Unmarshal(raw, &leaves); err != nil {
			t.Fatal(err)
		}
		for leaf, v := range leaves {
			if _, ok := v.(float64); ok {
				knobs = append(knobs, knob{key, leaf, variant})
			}
		}
	}
	for _, key := range []string{"odpm_rrep_keepalive_us", "odpm_data_keepalive_us", "awake_watts", "sleep_watts"} {
		knobs = append(knobs, knob{key: key, variant: Fields{"scheme": "ODPM"}})
	}
	knobs = append(knobs, knob{key: "shadow_sigma_db", variant: Fields{"scheme": "Rcast", "channel": "shadowing"}})
	if len(knobs) < 30 {
		t.Fatalf("only %d knobs found", len(knobs))
	}
	for _, k := range knobs {
		for _, v := range []int64{-1, 0, math.MaxInt64} {
			f := maps.Clone(base)
			maps.Copy(f, k.variant)
			name := k.key
			if k.leaf != "" {
				name += "." + k.leaf
				f[k.key] = map[string]any{k.leaf: v}
			} else {
				f[k.key] = v
			}
			cfg, err := f.Config()
			if err != nil {
				continue
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s=%d validates but panics: %v", name, v, r)
					}
				}()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if _, err := RunContext(ctx, cfg); err != nil {
					t.Errorf("%s=%d validates but fails to run: %v", name, v, err)
				}
			}()
		}
	}
}

func fieldNamed(key string) *field {
	for i := range fieldTable {
		if fieldTable[i].key == key {
			return &fieldTable[i]
		}
	}
	panic("no field " + key)
}
