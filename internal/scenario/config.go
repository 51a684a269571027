// Package scenario assembles complete simulations: it wires mobility,
// radios, MAC, energy metering, DSR routing, overhearing policies, power
// management and CBR traffic into a network, runs it, and collects the
// paper's metrics.
package scenario

import (
	"errors"
	"fmt"
	"math"

	"rcast/internal/core"
	"rcast/internal/fault"
	"rcast/internal/mac"
	"rcast/internal/phy"
	"rcast/internal/routing/aodv"
	"rcast/internal/routing/dsr"
	"rcast/internal/sim"
	"rcast/internal/trace"
)

// Routing selects the network-layer protocol.
type Routing int

// Routing protocols. DSR is the paper's protocol; AODV is the timeout-based
// alternative its §1 footnote contrasts (experiment A6). The zero value
// means DSR so existing configs keep working.
const (
	RoutingDSR Routing = iota
	RoutingAODV
)

// String implements fmt.Stringer.
func (r Routing) String() string {
	switch r {
	case RoutingDSR:
		return "DSR"
	case RoutingAODV:
		return "AODV"
	default:
		return fmt.Sprintf("Routing(%d)", int(r))
	}
}

// Scheme selects one of the evaluated protocol stacks.
type Scheme int

// Schemes. SchemeAlwaysOn / SchemeODPM / SchemeRcast are the three schemes
// of the paper's §4 (there named "802.11", "ODPM", "Rcast"); SchemePSM is
// unmodified IEEE 802.11 PSM with the unconditional overhearing DSR needs;
// SchemePSMNoOverhear is the naive no-overhearing integration from §1.
const (
	SchemeAlwaysOn Scheme = iota + 1
	SchemePSM
	SchemePSMNoOverhear
	SchemeODPM
	SchemeRcast
)

// schemeRegistry is the table of registered schemes in presentation
// order. Validation (Config.Validate, ParseScheme and so every decoded
// job, sweep cell and flag) checks membership against this table rather
// than an enum span, so registering a scheme here is the single step that
// makes it sweepable and parseable.
var schemeRegistry = []Scheme{SchemeAlwaysOn, SchemePSM, SchemePSMNoOverhear, SchemeODPM, SchemeRcast}

// Schemes lists all registered schemes in presentation order. The slice
// is a copy; mutating it does not affect the registry.
func Schemes() []Scheme {
	return append([]Scheme(nil), schemeRegistry...)
}

// Known reports whether s is a registered scheme.
func (s Scheme) Known() bool {
	for _, k := range schemeRegistry {
		if k == s {
			return true
		}
	}
	return false
}

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeAlwaysOn:
		return "802.11"
	case SchemePSM:
		return "PSM"
	case SchemePSMNoOverhear:
		return "PSM-no-overhear"
	case SchemeODPM:
		return "ODPM"
	case SchemeRcast:
		return "Rcast"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ParseScheme resolves a scheme name as printed by String.
func ParseScheme(name string) (Scheme, error) {
	for _, s := range Schemes() {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown scheme %q", name)
}

// defaultPolicy returns the overhearing policy a scheme implies.
func (s Scheme) defaultPolicy() core.Policy {
	switch s {
	case SchemePSM:
		return core.Unconditional{}
	case SchemeRcast:
		return core.Rcast{}
	default:
		// AlwaysOn ignores the policy; ODPM and the naive integration use
		// standard ATIMs (destination-only wake).
		return core.None{}
	}
}

// Config fully describes one simulation run. The zero value is not
// runnable; start from PaperDefaults.
type Config struct {
	Scheme Scheme
	// Policy overrides the scheme's overhearing policy (PSM family only);
	// nil selects PolicyName, or the scheme default when that is empty
	// too. Runtime-only — a Config carrying a Policy value has no
	// canonical form; prefer PolicyName, which covers every registered
	// policy. Kept for custom/parameterized policies (core.FixedProb).
	Policy core.Policy
	// PolicyName selects a registered overhearing policy by name (see
	// core.PolicyNames: rcast, unconditional, none, sender-id, battery,
	// mobility, combined); "" selects the scheme's default. Unlike Policy
	// it is part of the canonical encoding (v3), so named-policy runs are
	// cacheable, sweepable and replayable. PSM-family schemes only:
	// SchemeAlwaysOn never consults a policy, so setting either policy
	// field alongside it (other than naming its own "none") is a
	// validation error rather than a silent no-op.
	PolicyName string

	Nodes          int
	FieldW, FieldH float64 // metres
	RangeM         float64 // radio range

	// TxPowerDBm offsets every node's transmit power from the nominal
	// two-ray-ground setting (ns-2's Pt = 0.2818 W, which yields RangeM)
	// in dB. Under the model's d^-4 path loss a +x dB offset stretches
	// every node's effective transmit range by 10^(x/40), composing with
	// any shadowing/fading gains; the energy meters charge (or credit)
	// the transmit-power delta per transmission. 0 keeps the paper setup
	// byte-identical. Bounded to ±40 dB (a 10× range factor either way).
	TxPowerDBm float64

	Connections  int
	PacketRate   float64 // packets/second per connection
	PacketBytes  int
	TrafficStart sim.Time
	// TrafficStop ends CBR sources early, leaving a drain window before
	// Duration so in-flight packets can settle. Zero means Duration (no
	// drain window), preserving the paper setup.
	TrafficStop sim.Time

	MinSpeed, MaxSpeed float64  // m/s
	Pause              sim.Time // random-waypoint pause time

	// Channel selects the propagation model: "disk" (default; "" means
	// disk), "shadowing" or "fading" (see internal/propagation).
	// ShadowSigmaDB is the log-normal shadowing std-dev in dB (4 in
	// PaperDefaults); it only applies to "shadowing", and zero sigma
	// degenerates to the disk.
	Channel       string
	ShadowSigmaDB float64

	// Mobility selects the movement model: "waypoint" (default; "" means
	// waypoint), "gauss-markov" or "group" (reference-point group
	// mobility). GroupSize and GroupRadiusM parameterize "group": nodes
	// are partitioned into consecutive-ID groups of GroupSize, each
	// following a shared waypoint reference with per-node wander bounded
	// by GroupRadiusM. Zero values default to 4 nodes / 50 m.
	Mobility     string
	GroupSize    int
	GroupRadiusM float64

	Duration sim.Time
	Seed     int64

	// Routing selects DSR (default) or AODV; DSR/AODV carry the
	// protocol-specific knobs.
	Routing Routing
	MAC     mac.Params
	DSR     dsr.Config
	AODV    aodv.Config

	// ODPM keep-alive overrides; zero selects the ODPM paper defaults.
	ODPMRREPKeepAlive sim.Time
	ODPMDataKeepAlive sim.Time
	// ODPMPromiscuousRefresh selects the looser ODPM reading in which a
	// node in active mode refreshes its data keep-alive on overheard data
	// packets (promiscuous 802.11). The default (false) is the stricter
	// literal reading — only packets the node sends, forwards or receives
	// refresh — which preserves the paper's bimodal per-node energy
	// structure (Figs. 5/6); see EXPERIMENTS.md for the sensitivity study.
	ODPMPromiscuousRefresh bool

	// AwakeWatts/SleepWatts override the energy model (zero = paper
	// values). BatteryJoules > 0 gives nodes finite batteries.
	AwakeWatts, SleepWatts float64
	BatteryJoules          float64

	// GossipFanout > 0 enables the broadcast-Rcast extension: RREQ
	// rebroadcast damping with the given expected fanout.
	GossipFanout float64

	// Faults, when non-nil, enables deterministic fault injection (node
	// crashes, Gilbert–Elliott burst loss, partitions, battery jitter; see
	// internal/fault). nil — or a plan whose Enabled() is false — leaves
	// the run byte-identical to an unfaulted one: no hooks installed, no
	// RNG streams created, no events scheduled.
	Faults *fault.Plan

	// Trace, when non-nil, receives the packet-lifecycle event stream:
	// routing events (origination, forwarding, salvage, delivery, drops,
	// control traffic, cache insertions and evictions), MAC events
	// (enqueue, ATIM advertisements, the overhearing lottery, sleep/wake)
	// and PHY loss classifications, plus node lifecycle (battery deaths,
	// crashes, recoveries). Events carry a run-local sequence number and,
	// where applicable, the packet UID "src:flow:seq". A nil Trace keeps
	// the run byte-identical to an untraced one.
	Trace trace.Sink

	// Audit enables the cross-layer invariant checker (internal/audit):
	// packet conservation, time/energy conservation, PSM legality and
	// scheduler sanity are verified continuously and at teardown, and any
	// violation turns the run into an error. Off (the default) costs
	// nothing: every hook stays nil.
	Audit bool

	// Replay, when non-nil, injects recorded stochastic decisions in place
	// of the live ones: overhearing-lottery verdicts, fault-injected PHY
	// losses and the crash schedule are taken from a captured trace (see
	// internal/replay) instead of their RNG streams. Runtime-only, like
	// Policy and Trace: a Config carrying Replay has no canonical form.
	Replay *ReplayHooks
}

// ReplayHooks carries the decision-injection points internal/replay uses
// to re-execute a run from its captured trace. Each nil hook leaves the
// corresponding decision site on its live path.
type ReplayHooks struct {
	// Lottery overrides each overhearing-lottery verdict. The configured
	// policy still runs (and burns its RNG draws — the lottery shares the
	// per-node MAC stream with DCF backoff) before the override replaces
	// its answer; policySays is that live verdict.
	Lottery func(now sim.Time, node phy.NodeID, a mac.Announcement, policySays bool) bool

	// Loss replaces the fault plan's PHY loss model (Gilbert–Elliott
	// chains) with a trace-driven one.
	Loss phy.LossModel

	// CrashSchedule replaces the fault injector's crash/recovery schedule
	// when UseCrashSchedule is set (the flag distinguishes "replay an
	// empty schedule" from "keep the live one").
	CrashSchedule    []fault.Crash
	UseCrashSchedule bool

	// ChanLoss replaces the propagation model's transmit-time verdicts
	// with the recorded chan-lost decision stream (non-disk channels
	// only; neighbor-query verdicts re-derive from the config seed).
	ChanLoss phy.LossModel
}

// ChannelNames lists the accepted Config.Channel values ("" means the
// first). The set mirrors internal/propagation.Names.
func ChannelNames() []string { return []string{"disk", "shadowing", "fading"} }

// MobilityNames lists the accepted Config.Mobility values ("" means the
// first).
func MobilityNames() []string { return []string{"waypoint", "gauss-markov", "group"} }

// channelName resolves the effective channel model name ("" → "disk").
func (c Config) channelName() string {
	if c.Channel == "" {
		return "disk"
	}
	return c.Channel
}

// mobilityName resolves the effective mobility model name ("" → "waypoint").
func (c Config) mobilityName() string {
	if c.Mobility == "" {
		return "waypoint"
	}
	return c.Mobility
}

// groupSize resolves the effective group size (0 → 4).
func (c Config) groupSize() int {
	if c.GroupSize <= 0 {
		return 4
	}
	return c.GroupSize
}

// groupRadius resolves the effective group wander radius (0 → 50 m).
func (c Config) groupRadius() float64 {
	if c.GroupRadiusM <= 0 {
		return 50
	}
	return c.GroupRadiusM
}

// overridesPolicy reports whether PolicyName names a policy other than the
// scheme's own.
func (c Config) overridesPolicy() bool {
	return c.PolicyName != "" && c.PolicyName != c.Scheme.defaultPolicy().Name()
}

// EffectivePolicyName resolves the named overhearing policy in force for
// the run: PolicyName when set, else the name of the scheme's default
// policy. A runtime Policy override (non-nil Config.Policy) is not
// reflected here — it has no canonical name.
func (c Config) EffectivePolicyName() string {
	if c.PolicyName != "" {
		return c.PolicyName
	}
	return c.Scheme.defaultPolicy().Name()
}

// txRangeScale returns the factor TxPowerDBm stretches the effective
// transmit range by. Received power falls off as d^-4 under two-ray
// ground, so range scales with the fourth root of transmit power: an
// x dB offset is a range factor of 10^(x/40).
func (c Config) txRangeScale() float64 {
	return math.Pow(10, c.TxPowerDBm/40)
}

// txPowerRatio returns the linear transmit-power ratio 10^(dB/10).
func (c Config) txPowerRatio() float64 {
	return math.Pow(10, c.TxPowerDBm/10)
}

// nameKnown reports whether name is one of names.
func nameKnown(name string, names []string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// PaperDefaults returns the evaluation setup of §4.1: 100 nodes on a
// 1500 m × 300 m field, 250 m range, 2 Mbps, 20 CBR connections of
// 512-byte packets, random waypoint at up to 20 m/s, 1125 s of simulated
// time, 250 ms beacon intervals with 50 ms ATIM windows. Selecting the
// "shadowing" channel shadows at 4 dB unless ShadowSigmaDB says otherwise.
func PaperDefaults() Config {
	return Config{
		Scheme:        SchemeRcast,
		Nodes:         100,
		FieldW:        1500,
		FieldH:        300,
		RangeM:        250,
		Connections:   20,
		PacketRate:    0.4,
		PacketBytes:   512,
		TrafficStart:  5 * sim.Second,
		MinSpeed:      1,
		MaxSpeed:      20,
		Pause:         600 * sim.Second,
		ShadowSigmaDB: 4,
		Duration:      1125 * sim.Second,
		Seed:          1,
		MAC:           mac.DefaultParams(),
		DSR:           dsr.DefaultConfig(),
		AODV:          aodv.DefaultConfig(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case !c.Scheme.Known():
		return fmt.Errorf("scenario: invalid scheme %d", int(c.Scheme))
	case c.Policy != nil && c.PolicyName != "":
		return fmt.Errorf("scenario: Policy and PolicyName %q are both set (pick one)", c.PolicyName)
	case (c.Policy != nil || c.overridesPolicy()) && c.Scheme == SchemeAlwaysOn:
		// SchemeAlwaysOn never consults an overhearing policy; silently
		// ignoring one would let two behaviourally identical runs cache
		// under different keys — and read as different experiments.
		return fmt.Errorf("scenario: scheme %v ignores overhearing policies; drop the policy or pick a PSM-family scheme", c.Scheme)
	case c.PolicyName != "" && !core.PolicyKnown(c.PolicyName):
		return fmt.Errorf("scenario: unknown policy %q (want one of %v)", c.PolicyName, core.PolicyNames())
	case !(c.TxPowerDBm >= -40 && c.TxPowerDBm <= 40):
		return fmt.Errorf("scenario: tx power %v dB outside [-40, 40]", c.TxPowerDBm)
	case c.Routing != RoutingDSR && c.Routing != RoutingAODV:
		return fmt.Errorf("scenario: invalid routing %d", int(c.Routing))
	case c.Nodes < 2:
		return fmt.Errorf("scenario: need >= 2 nodes, have %d", c.Nodes)
	case c.FieldW <= 0 || c.FieldH <= 0:
		return errors.New("scenario: field dimensions must be positive")
	case c.RangeM <= 0:
		return errors.New("scenario: radio range must be positive")
	case c.Connections < 1:
		return errors.New("scenario: need at least one connection")
	case c.PacketRate <= 0:
		return errors.New("scenario: packet rate must be positive")
	case c.PacketBytes <= 0:
		return errors.New("scenario: packet size must be positive")
	case c.Duration <= 0:
		return errors.New("scenario: duration must be positive")
	case c.MaxSpeed < c.MinSpeed || c.MinSpeed < 0:
		return errors.New("scenario: speed bounds invalid")
	case c.TrafficStart < 0 || c.TrafficStart >= c.Duration:
		return errors.New("scenario: traffic start outside the run")
	case c.TrafficStop != 0 && (c.TrafficStop <= c.TrafficStart || c.TrafficStop > c.Duration):
		return errors.New("scenario: traffic stop outside (start, duration]")
	case !nameKnown(c.channelName(), ChannelNames()):
		return fmt.Errorf("scenario: unknown channel model %q (want one of %v)", c.Channel, ChannelNames())
	case c.ShadowSigmaDB < 0:
		return errors.New("scenario: shadowing sigma must be >= 0")
	case !nameKnown(c.mobilityName(), MobilityNames()):
		return fmt.Errorf("scenario: unknown mobility model %q (want one of %v)", c.Mobility, MobilityNames())
	case c.GroupSize < 0:
		return errors.New("scenario: group size must be >= 0")
	case c.GroupRadiusM < 0:
		return errors.New("scenario: group radius must be >= 0")
	case c.GossipFanout < 0:
		return errors.New("scenario: gossip fanout must be >= 0")
	case c.BatteryJoules < 0:
		return errors.New("scenario: battery capacity must be >= 0")
	case c.AwakeWatts < 0 || c.SleepWatts < 0:
		return errors.New("scenario: power draws must be >= 0")
	case c.ODPMRREPKeepAlive < 0 || c.ODPMDataKeepAlive < 0:
		return errors.New("scenario: ODPM keep-alives must be >= 0")
	}
	for _, err := range []error{c.MAC.Validate(), c.DSR.Validate(), c.AODV.Validate()} {
		if err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(c.Nodes); err != nil {
			return err
		}
	}
	return nil
}

// trafficStop resolves the effective CBR stop instant.
func (c Config) trafficStop() sim.Time {
	if c.TrafficStop != 0 {
		return c.TrafficStop
	}
	return c.Duration
}
