package scenario

import (
	"reflect"
	"testing"
)

// TestChannelDiskEquivalences is the metamorphic pin behind the golden
// traces: the default config, an explicit Channel:"disk", and zero-sigma
// shadowing must all produce the identical Result — the propagation plumbing
// cannot perturb the historical disk behaviour.
func TestChannelDiskEquivalences(t *testing.T) {
	base, err := Run(quickConfig(SchemeRcast))
	if err != nil {
		t.Fatal(err)
	}

	explicit := quickConfig(SchemeRcast)
	explicit.Channel = "disk"
	res, err := Run(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, res) {
		t.Fatal("explicit Channel:\"disk\" diverged from the default")
	}

	zero := quickConfig(SchemeRcast)
	zero.Channel = "shadowing"
	zero.ShadowSigmaDB = 0
	res, err = Run(zero)
	if err != nil {
		t.Fatal(err)
	}
	if res.Channel.ChannelLost != 0 {
		t.Fatalf("zero-sigma shadowing lost %d frames", res.Channel.ChannelLost)
	}
	res.Channel.ChannelLost = base.Channel.ChannelLost
	if !reflect.DeepEqual(base, res) {
		t.Fatal("zero-sigma shadowing diverged from the disk")
	}

	wp := quickConfig(SchemeRcast)
	wp.Mobility = "waypoint"
	res, err = Run(wp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, res) {
		t.Fatal("explicit Mobility:\"waypoint\" diverged from the default")
	}
}

// TestChannelModelsPerturb is the control for the pin above: a non-trivial
// model must actually change the run, and its losses must be counted.
func TestChannelModelsPerturb(t *testing.T) {
	base, err := Run(quickConfig(SchemeRcast))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"shadowing", "fading"} {
		cfg := quickConfig(SchemeRcast)
		cfg.Channel = name
		cfg.ShadowSigmaDB = 6
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Channel.ChannelLost == 0 {
			t.Errorf("%s: no channel losses in a mobile 30-node cell", name)
		}
		if reflect.DeepEqual(base, res) {
			t.Errorf("%s: run identical to the disk", name)
		}
	}
}

// TestMobilityModelsPerturb: each non-default mobility model changes the
// run but still delivers traffic (nodes stay on the field, links form).
func TestMobilityModelsPerturb(t *testing.T) {
	base, err := Run(quickConfig(SchemeRcast))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gauss-markov", "group"} {
		cfg := quickConfig(SchemeRcast)
		cfg.Mobility = name
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(base, res) {
			t.Errorf("%s: run identical to waypoint", name)
		}
		if res.PDR < 0.3 {
			t.Errorf("%s: PDR %.3f implausibly low (drops: %v)", name, res.PDR, res.Drops)
		}
	}
}

// TestMobilityStaticPin: Pause >= Duration pins nodes regardless of the
// mobility model, as the static experiment scenario requires.
func TestMobilityStaticPin(t *testing.T) {
	for _, name := range MobilityNames() {
		cfg := quickConfig(SchemeRcast)
		cfg.Mobility = name
		cfg.Pause = cfg.Duration
		w, err := newWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range w.ch.Radios() {
			p0 := r.Position(0)
			p1 := r.Position(cfg.Duration)
			if p0 != p1 {
				t.Fatalf("%s: node %v moved in a static scenario: %v -> %v", name, r.ID(), p0, p1)
			}
		}
	}
}

// TestCanonicalChannelNormalization: configs that differ only in default
// spellings or inert knobs must share one canonical key, and materially
// different channels must not.
func TestCanonicalChannelNormalization(t *testing.T) {
	key := func(mut func(*Config)) string {
		cfg := quickConfig(SchemeRcast)
		mut(&cfg)
		k, err := cfg.CanonicalKey(1)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := key(func(*Config) {})
	same := map[string]func(*Config){
		"explicit disk":       func(c *Config) { c.Channel = "disk" },
		"explicit waypoint":   func(c *Config) { c.Mobility = "waypoint" },
		"sigma without model": func(c *Config) { c.ShadowSigmaDB = 8 },
		"group knobs unused":  func(c *Config) { c.GroupSize = 6; c.GroupRadiusM = 80 },
	}
	for name, mut := range same {
		if k := key(mut); k != base {
			t.Errorf("%s: key changed although the run is identical", name)
		}
	}
	diff := map[string]func(*Config){
		"shadowing": func(c *Config) { c.Channel = "shadowing"; c.ShadowSigmaDB = 4 },
		"fading":    func(c *Config) { c.Channel = "fading" },
		"gm":        func(c *Config) { c.Mobility = "gauss-markov" },
		"group":     func(c *Config) { c.Mobility = "group" },
	}
	seen := map[string]string{base: "base"}
	for name, mut := range diff {
		k := key(mut)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: key collides with %s", name, prev)
		}
		seen[k] = name
	}
	// Group defaults normalize: explicit 4/50 equals the zero-value spelling.
	g1 := key(func(c *Config) { c.Mobility = "group" })
	g2 := key(func(c *Config) { c.Mobility = "group"; c.GroupSize = 4; c.GroupRadiusM = 50 })
	if g1 != g2 {
		t.Error("explicit group defaults changed the canonical key")
	}
}

func TestValidateChannelMobility(t *testing.T) {
	bad := map[string]func(*Config){
		"unknown channel":  func(c *Config) { c.Channel = "nakagami" },
		"unknown mobility": func(c *Config) { c.Mobility = "levy-walk" },
		"negative sigma":   func(c *Config) { c.Channel = "shadowing"; c.ShadowSigmaDB = -1 },
		"unbounded sigma":  func(c *Config) { c.Channel = "shadowing"; c.ShadowSigmaDB = 1e308 },
		"negative group":   func(c *Config) { c.Mobility = "group"; c.GroupSize = -2 },
		"negative radius":  func(c *Config) { c.Mobility = "group"; c.GroupRadiusM = -5 },
	}
	for name, mut := range bad {
		cfg := quickConfig(SchemeRcast)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := quickConfig(SchemeRcast)
	ok.Channel = "fading"
	ok.Mobility = "group"
	if err := ok.Validate(); err != nil {
		t.Errorf("valid channel/mobility rejected: %v", err)
	}
}
