// Package fault is the simulator's deterministic fault-injection layer. A
// Plan describes three orthogonal fault families — node lifecycle faults
// (scheduled or randomized crash/recovery plus heterogeneous initial
// batteries), channel faults (a Gilbert–Elliott two-state burst-loss model
// hooked into phy delivery), and partition faults (timed mobility overrides
// that split and re-merge the field) — and an Injector resolves the plan
// against one run's seed and geometry.
//
// Determinism contract: every stochastic choice the layer makes draws from
// a private named RNG stream (sim.Stream with a "fault/..." name), so a
// faulted run is bit-reproducible from (Config, Seed) and an inert plan
// (zero rates, no events inside the run) perturbs nothing: no stream is
// ever created, no event is scheduled, no hook is installed, and the run is
// byte-identical to one with no fault layer at all. See DESIGN.md §9.
package fault

import (
	"fmt"
	"sort"
	"strings"

	"rcast/internal/sim"
)

// Crash schedules one node lifecycle fault: the node powers down at At
// (flushing MAC and routing state) and, when RecoverAt is non-zero, powers
// back up at RecoverAt with amnesia — empty route cache, empty queues.
// Events at or after the run duration are simply never scheduled, so a
// crash at t=∞ is exactly no crash.
type Crash struct {
	Node      int      `json:"node"`
	At        sim.Time `json:"at_us"`
	RecoverAt sim.Time `json:"recover_at_us"` // 0 = the node stays down for the rest of the run
}

// LossConfig parameterizes the Gilbert–Elliott burst-loss channel model: a
// continuous-time two-state Markov chain per receiver (or per directed
// link, with PerLink) alternating between a Good state with loss
// probability PGood and a Bad state with loss probability PBad, with
// exponentially distributed sojourn times of mean MeanGood / MeanBad. With
// both means zero the chain is degenerate and PGood applies uniformly
// (Bernoulli loss).
type LossConfig struct {
	PGood    float64  `json:"p_good"`
	PBad     float64  `json:"p_bad"`
	MeanGood sim.Time `json:"mean_good_us"`
	MeanBad  sim.Time `json:"mean_bad_us"`
	// PerLink runs one chain per directed (tx, rx) pair instead of one per
	// receiver, decorrelating loss bursts across a receiver's links.
	PerLink bool `json:"per_link"`
}

// Enabled reports whether the configuration can ever lose a frame.
func (c LossConfig) Enabled() bool {
	return c.PGood > 0 || (c.PBad > 0 && c.burst())
}

// burst reports whether the two-state chain is active.
func (c LossConfig) burst() bool { return c.MeanGood > 0 && c.MeanBad > 0 }

// Partition splits the field in two for a window of the run: odd-indexed
// nodes are displaced far enough that no cross-group link can exist, then
// brought back. The window is expressed as fractions of the run duration so
// one plan composes with any experiment profile. The displacement ramps
// linearly over Ramp at each edge, keeping node speed bounded (the spatial
// grid index requires a declared motion bound).
type Partition struct {
	StartFrac float64  `json:"start_frac"` // in [0, 1)
	StopFrac  float64  `json:"stop_frac"`  // in (StartFrac, 1]
	Ramp      sim.Time `json:"ramp_us"`    // transition time; 0 selects 10 s
}

// Plan is a complete fault-injection description. The zero value is inert.
// The JSON tags are the "faults" object of the canonical run-configuration
// encoding (internal/scenario).
type Plan struct {
	// Crashes are explicit lifecycle faults.
	Crashes []Crash `json:"crashes"`
	// CrashFraction additionally crashes each node with this probability at
	// a uniformly drawn instant in the middle 80% of the run.
	CrashFraction float64 `json:"crash_fraction"`
	// Downtime is the recovery delay for randomized crashes; 0 means
	// crashed nodes stay down.
	Downtime sim.Time `json:"downtime_us"`

	Loss       LossConfig  `json:"loss"`
	Partitions []Partition `json:"partitions"`

	// BatteryJitter spreads heterogeneous initial batteries: node capacity
	// is scaled by a uniform factor in [1-j, 1+j]. Only applies when the
	// scenario gives nodes finite batteries.
	BatteryJitter float64 `json:"battery_jitter"`
}

// Enabled reports whether the plan can inject any fault at all. Note that
// an enabled plan may still be inert for a particular run (for example,
// every crash scheduled past the run duration).
func (p *Plan) Enabled() bool {
	if p == nil {
		return false
	}
	return len(p.Crashes) > 0 || p.CrashFraction > 0 || p.Loss.Enabled() ||
		len(p.Partitions) > 0 || p.BatteryJitter > 0
}

// Validate reports plan errors for a scenario with the given node count.
func (p *Plan) Validate(nodes int) error {
	if p == nil {
		return nil
	}
	for i, c := range p.Crashes {
		if c.Node < 0 || c.Node >= nodes {
			return fmt.Errorf("fault: crash %d targets node %d outside [0, %d)", i, c.Node, nodes)
		}
		if c.At < 0 {
			return fmt.Errorf("fault: crash %d at negative time %v", i, c.At)
		}
		if c.RecoverAt != 0 && c.RecoverAt <= c.At {
			return fmt.Errorf("fault: crash %d recovers at %v, not after the crash at %v", i, c.RecoverAt, c.At)
		}
	}
	if p.CrashFraction < 0 || p.CrashFraction > 1 {
		return fmt.Errorf("fault: crash fraction %v outside [0, 1]", p.CrashFraction)
	}
	if p.Downtime < 0 {
		return fmt.Errorf("fault: negative downtime %v", p.Downtime)
	}
	l := p.Loss
	if l.PGood < 0 || l.PGood > 1 || l.PBad < 0 || l.PBad > 1 {
		return fmt.Errorf("fault: loss probabilities (%v, %v) outside [0, 1]", l.PGood, l.PBad)
	}
	if l.MeanGood < 0 || l.MeanBad < 0 {
		return fmt.Errorf("fault: negative loss sojourn times (%v, %v)", l.MeanGood, l.MeanBad)
	}
	if l.PBad > l.PGood && !l.burst() {
		return fmt.Errorf("fault: bad-state loss %v configured without both sojourn times", l.PBad)
	}
	for i, w := range p.Partitions {
		if w.StartFrac < 0 || w.StopFrac > 1 || w.StartFrac >= w.StopFrac {
			return fmt.Errorf("fault: partition %d window [%v, %v] invalid", i, w.StartFrac, w.StopFrac)
		}
		if w.Ramp < 0 {
			return fmt.Errorf("fault: partition %d has negative ramp", i)
		}
	}
	if p.BatteryJitter < 0 || p.BatteryJitter >= 1 {
		return fmt.Errorf("fault: battery jitter %v outside [0, 1)", p.BatteryJitter)
	}
	return nil
}

// Presets for the -faults CLI flag. Kept deliberately coarse: anything
// finer is a Config edit away.
var presets = map[string]func() *Plan{
	"none": func() *Plan { return &Plan{} },
	"crash": func() *Plan {
		return &Plan{CrashFraction: 0.2, Downtime: 30 * sim.Second}
	},
	"crash-perm": func() *Plan {
		return &Plan{CrashFraction: 0.2}
	},
	"loss": func() *Plan {
		return &Plan{Loss: LossConfig{
			PGood:    0.02,
			PBad:     0.6,
			MeanGood: 10 * sim.Second,
			MeanBad:  sim.Second,
			PerLink:  true,
		}}
	},
	"partition": func() *Plan {
		return &Plan{Partitions: []Partition{{StartFrac: 0.4, StopFrac: 0.7, Ramp: 10 * sim.Second}}}
	},
	"battery": func() *Plan {
		return &Plan{BatteryJitter: 0.5}
	},
	"all": func() *Plan {
		return &Plan{
			CrashFraction: 0.2,
			Downtime:      30 * sim.Second,
			Loss: LossConfig{
				PGood:    0.02,
				PBad:     0.6,
				MeanGood: 10 * sim.Second,
				MeanBad:  sim.Second,
				PerLink:  true,
			},
			Partitions:    []Partition{{StartFrac: 0.4, StopFrac: 0.7, Ramp: 10 * sim.Second}},
			BatteryJitter: 0.5,
		}
	},
}

// PresetNames lists the preset names accepted by Preset, sorted.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Preset resolves a named fault plan for the -faults flag. The empty name
// yields nil (no fault layer at all).
func Preset(name string) (*Plan, error) {
	if name == "" {
		return nil, nil
	}
	if f, ok := presets[name]; ok {
		return f(), nil
	}
	return nil, fmt.Errorf("fault: unknown preset %q (have %s)", name, strings.Join(PresetNames(), ", "))
}
