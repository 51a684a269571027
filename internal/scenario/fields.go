package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"rcast/internal/core"
	"rcast/internal/fault"
	"rcast/internal/mac"
	"rcast/internal/routing/aodv"
	"rcast/internal/routing/dsr"
	"rcast/internal/sim"
)

// field is one knob of the run configuration. The field table below is
// the single place a knob is spelled: the canonical encoding and its
// decoder, serve job bodies, sweep axes and rcast-sim's config flags are
// all derived from it (DESIGN.md §18).
type field struct {
	key   string // JSON key: canonical encoding, job bodies, sweep axes
	flag  string // rcast-sim flag name; "" for none
	usage string // rcast-sim flag usage

	// get reads the knob off a Config in the key's units. Read off
	// PaperDefaults it is the flag default; unless canon is set it is
	// also the canonical value.
	get func(c *Config) any
	// canon, when set, normalizes the canonical value so that configs
	// which run identically encode identically.
	canon func(c *Config) any
	// set decodes one JSON value onto c.
	set func(c *Config, raw []byte) error
	// input marks a legacy key that is accepted everywhere but never
	// encoded; it only rewrites canonical knobs.
	input bool
}

// seconds marks a knob read as float seconds; its rcast-sim flag is a
// time.Duration.
type seconds float64

// fieldTable lists every knob in v3 canonical order, then the legacy
// input-only keys. Keys are applied in this order, so a legacy key that
// reads another knob (static reads the duration) comes after it.
var fieldTable = []field{
	{key: "v", get: func(*Config) any { return CanonicalVersion }, set: func(_ *Config, raw []byte) error {
		var v int
		if err := decodeStrict(raw, &v); err != nil {
			return err
		}
		if v != CanonicalVersion {
			return fmt.Errorf("canonical version %d, want %d", v, CanonicalVersion)
		}
		return nil
	}},
	text("scheme", "scheme: "+strings.Join(schemeNames(), ", "),
		func(c *Config) string { return c.Scheme.String() },
		func(c *Config, s string) (err error) { c.Scheme, err = ParseScheme(s); return err }),
	{key: "policy", flag: "policy", usage: "overhearing policy: " + strings.Join(core.PolicyNames(), ", ") + " (default: the scheme's own)",
		get:   func(c *Config) any { return c.PolicyName },
		canon: func(c *Config) any { return c.EffectivePolicyName() },
		set:   into(func(c *Config) *string { return &c.PolicyName })},
	text("routing", "routing protocol: DSR or AODV",
		func(c *Config) string { return c.Routing.String() },
		func(c *Config, s string) error {
			switch s {
			case "", "DSR":
				c.Routing = RoutingDSR
			case "AODV":
				c.Routing = RoutingAODV
			default:
				return fmt.Errorf("unknown routing %q (want DSR or AODV)", s)
			}
			return nil
		}),

	plain("nodes", func(c *Config) *int { return &c.Nodes }).cli("nodes", "number of nodes"),
	plain("field_w", func(c *Config) *float64 { return &c.FieldW }).cli("field-w", "field width (m)"),
	plain("field_h", func(c *Config) *float64 { return &c.FieldH }).cli("field-h", "field height (m)"),
	plain("range_m", func(c *Config) *float64 { return &c.RangeM }).cli("range", "radio range (m)"),
	plain("tx_power_dbm", func(c *Config) *float64 { return &c.TxPowerDBm }).
		cli("tx-power", "transmit power offset in dB from nominal (scales range by 10^(dB/40), energy by 10^(dB/10))"),

	plain("connections", func(c *Config) *int { return &c.Connections }).cli("connections", "CBR connections"),
	plain("packet_rate", func(c *Config) *float64 { return &c.PacketRate }).cli("rate", "packets per second per connection"),
	plain("packet_bytes", func(c *Config) *int { return &c.PacketBytes }).cli("size", "payload bytes per packet"),
	plain("traffic_start_us", func(c *Config) *sim.Time { return &c.TrafficStart }),
	plain("traffic_stop_us", func(c *Config) *sim.Time { return &c.TrafficStop }),

	plain("min_speed", func(c *Config) *float64 { return &c.MinSpeed }),
	plain("max_speed", func(c *Config) *float64 { return &c.MaxSpeed }).cli("speed", "maximum node speed (m/s)"),
	plain("pause_us", func(c *Config) *sim.Time { return &c.Pause }),

	text("channel", "propagation model: "+strings.Join(ChannelNames(), ", "),
		func(c *Config) string { return c.channelName() },
		func(c *Config, s string) error { c.Channel = s; return nil }),
	plain("shadow_sigma_db", func(c *Config) *float64 { return &c.ShadowSigmaDB }).
		cli("shadow-sigma", "log-normal shadowing std-dev in dB (with -channel shadowing)").
		normalized(func(c *Config) any { return canonicalSigma(c) }),
	text("mobility", "mobility model: "+strings.Join(MobilityNames(), ", "),
		func(c *Config) string { return c.mobilityName() },
		func(c *Config, s string) error { c.Mobility = s; return nil }),
	{key: "group_size", flag: "group-size", usage: "nodes per group (with -mobility group)",
		get:   func(c *Config) any { return c.groupSize() },
		canon: func(c *Config) any { return onlyGroup(c, c.groupSize()) },
		set:   into(func(c *Config) *int { return &c.GroupSize })},
	{key: "group_radius_m", flag: "group-radius", usage: "group wander radius in metres (with -mobility group)",
		get:   func(c *Config) any { return c.groupRadius() },
		canon: func(c *Config) any { return onlyGroup(c, c.groupRadius()) },
		set:   into(func(c *Config) *float64 { return &c.GroupRadiusM })},

	plain("duration_us", func(c *Config) *sim.Time { return &c.Duration }),
	plain("seed", func(c *Config) *int64 { return &c.Seed }).cli("seed", "random seed"),

	plain("mac", func(c *Config) *mac.Params { return &c.MAC }),
	plain("dsr", func(c *Config) *dsr.Config { return &c.DSR }),
	plain("aodv", func(c *Config) *aodv.Config { return &c.AODV }),

	plain("odpm_rrep_keepalive_us", func(c *Config) *sim.Time { return &c.ODPMRREPKeepAlive }),
	plain("odpm_data_keepalive_us", func(c *Config) *sim.Time { return &c.ODPMDataKeepAlive }),
	plain("odpm_promiscuous_refresh", func(c *Config) *bool { return &c.ODPMPromiscuousRefresh }),

	plain("awake_watts", func(c *Config) *float64 { return &c.AwakeWatts }),
	plain("sleep_watts", func(c *Config) *float64 { return &c.SleepWatts }),
	plain("battery_joules", func(c *Config) *float64 { return &c.BatteryJoules }).cli("battery", "battery capacity in joules (0 = unlimited)"),

	plain("gossip_fanout", func(c *Config) *float64 { return &c.GossipFanout }).cli("gossip", "broadcast-Rcast fanout (0 disables)"),

	{key: "faults",
		get:   func(c *Config) any { return c.Faults },
		canon: func(c *Config) any { return canonicalFaults(c.Faults) },
		set: func(c *Config, raw []byte) error {
			// A fresh plan: the current one may be shared with other configs.
			var p *fault.Plan
			if err := decodeStrict(raw, &p); err != nil {
				return err
			}
			c.Faults = p
			return nil
		}},
	plain("audit", func(c *Config) *bool { return &c.Audit }).cli("audit", "run under the cross-layer invariant audit (violations abort the run)"),

	// Legacy input keys, in seconds or by name.
	{key: "duration_sec", flag: "duration", usage: "simulated time", input: true,
		get: func(c *Config) any { return seconds(c.Duration.Seconds()) },
		set: inSeconds(func(c *Config, t sim.Time) { c.Duration = t })},
	{key: "pause_sec", flag: "pause", usage: "random waypoint pause time", input: true,
		get: func(c *Config) any { return seconds(c.Pause.Seconds()) },
		// A negative pause is the static scenario, as the sweep's
		// pauses_sec axis has always read it.
		set: inSeconds(func(c *Config, t sim.Time) {
			if t < 0 {
				t = c.Duration
			}
			c.Pause = t
		})},
	{key: "static", flag: "static", usage: "static scenario (pause = duration)", input: true,
		get: func(*Config) any { return false },
		set: func(c *Config, raw []byte) error {
			var on bool
			err := decodeStrict(raw, &on)
			if on {
				c.Pause = c.Duration
			}
			return err
		}},
	{key: "fault_preset", flag: "faults", usage: "fault preset: " + strings.Join(fault.PresetNames(), ", "), input: true,
		get: func(*Config) any { return "" },
		set: setText(func(c *Config, s string) (err error) { c.Faults, err = fault.Preset(s); return err })},
}

// knownKeys is the set of fieldTable keys.
var knownKeys = func() map[string]bool {
	m := make(map[string]bool, len(fieldTable))
	for _, f := range fieldTable {
		m[f.key] = true
	}
	return m
}()

// plain is a knob stored verbatim in one Config field.
func plain[T any](key string, p func(c *Config) *T) field {
	return field{key: key, get: func(c *Config) any { return *p(c) }, set: into(p)}
}

// text is a knob whose JSON value is a name parsed onto c; it always has
// a flag of the same name.
func text(key, usage string, get func(c *Config) string, set func(c *Config, s string) error) field {
	return field{key: key, flag: key, usage: usage, get: func(c *Config) any { return get(c) }, set: setText(set)}
}

// cli attaches an rcast-sim flag.
func (f field) cli(name, usage string) field {
	f.flag, f.usage = name, usage
	return f
}

// normalized attaches a canonical normalization.
func (f field) normalized(canon func(c *Config) any) field {
	f.canon = canon
	return f
}

// into decodes a JSON value into the Config field p selects.
func into[T any](p func(c *Config) *T) func(c *Config, raw []byte) error {
	return func(c *Config, raw []byte) error { return decodeStrict(raw, p(c)) }
}

func setText(set func(c *Config, s string) error) func(c *Config, raw []byte) error {
	return func(c *Config, raw []byte) error {
		var s string
		if err := decodeStrict(raw, &s); err != nil {
			return err
		}
		return set(c, s)
	}
}

func inSeconds(set func(c *Config, t sim.Time)) func(c *Config, raw []byte) error {
	return func(c *Config, raw []byte) error {
		var s float64
		if err := decodeStrict(raw, &s); err != nil {
			return err
		}
		set(c, sim.FromSeconds(s))
		return nil
	}
}

// decodeStrict decodes one JSON value, rejecting unknown object fields.
func decodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func schemeNames() []string {
	var names []string
	for _, s := range schemeRegistry {
		names = append(names, s.String())
	}
	return names
}

// FieldKeys lists every field-table key in table order: the canonical
// keys first, then the legacy input keys (duration_sec, pause_sec,
// static, fault_preset).
func FieldKeys() []string {
	keys := make([]string, len(fieldTable))
	for i, f := range fieldTable {
		keys[i] = f.key
	}
	return keys
}

// Fields is a partial run configuration: field-table keys mapped to
// JSON-encodable values. It is the body of a serve job and one sweep
// cell; absent keys keep PaperDefaults and present keys are taken as
// given, so an explicit zero is a zero. A null value is absent.
type Fields map[string]any

// Check rejects keys outside the field table.
func (f Fields) Check() error {
	var unknown []string
	for k := range f {
		if !knownKeys[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("scenario: unknown field %q", unknown[0])
	}
	return nil
}

// apply sets every key of f onto c, in table order.
func (f Fields) apply(c *Config) error {
	if err := f.Check(); err != nil {
		return err
	}
	for i := range fieldTable {
		e := &fieldTable[i]
		v := f[e.key]
		if v == nil { // absent, or JSON null
			continue
		}
		raw, err := json.Marshal(v)
		if err == nil {
			err = e.set(c, raw)
		}
		if err != nil {
			return fmt.Errorf("scenario: field %q: %w", e.key, err)
		}
	}
	return nil
}

// Config resolves f against PaperDefaults and validates the result.
func (f Fields) Config() (Config, error) {
	c := PaperDefaults()
	if err := f.apply(&c); err != nil {
		return c, err
	}
	return c, c.Validate()
}

// DecodeFields decodes one JSON object into Fields, keeping numbers
// exact. Trailing data after the object is an error.
func DecodeFields(data []byte) (Fields, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var f Fields
	if err := dec.Decode(&f); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("trailing data after JSON object")
	}
	return f, nil
}

// DecodeConfig is the inverse of CanonicalJSON: it decodes a JSON object
// of field-table keys onto PaperDefaults and validates the result. A
// canonical encoding decodes to a Config that re-encodes to the same
// bytes; a partial object (a serve job body) keeps the defaults for the
// keys it omits.
func DecodeConfig(data []byte) (Config, error) {
	f, err := DecodeFields(data)
	if err != nil {
		return PaperDefaults(), fmt.Errorf("scenario: decode config: %w", err)
	}
	return f.Config()
}

// RegisterFlags defines an rcast-sim flag on fs for every field-table
// entry that has one, defaulting to the PaperDefaults value, and returns
// a function that applies every such flag's value onto a Config in
// table order.
func RegisterFlags(fs *flag.FlagSet) func(c *Config) error {
	def := PaperDefaults()
	type bound struct {
		key  string
		read func() any
	}
	var flags []bound
	for _, f := range fieldTable {
		if f.flag == "" {
			continue
		}
		var read func() any
		switch d := f.get(&def).(type) {
		case int:
			p := fs.Int(f.flag, d, f.usage)
			read = func() any { return *p }
		case int64:
			p := fs.Int64(f.flag, d, f.usage)
			read = func() any { return *p }
		case float64:
			p := fs.Float64(f.flag, d, f.usage)
			read = func() any { return *p }
		case string:
			p := fs.String(f.flag, d, f.usage)
			read = func() any { return *p }
		case bool:
			p := fs.Bool(f.flag, d, f.usage)
			read = func() any { return *p }
		case seconds:
			p := fs.Duration(f.flag, time.Duration(float64(d)*float64(time.Second)), f.usage)
			read = func() any { return p.Seconds() }
		default:
			panic(fmt.Sprintf("scenario: field %q has no flag type for %T", f.key, d))
		}
		flags = append(flags, bound{f.key, read})
	}
	return func(c *Config) error {
		f := make(Fields, len(flags))
		for _, b := range flags {
			f[b.key] = b.read()
		}
		return f.apply(c)
	}
}
