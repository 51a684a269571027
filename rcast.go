// Package rcast is a discrete-event simulation library reproducing
// "Rcast: A Randomized Communication Scheme for Improving Energy Efficiency
// in MANETs" (Lim, Yu & Das, ICDCS 2005).
//
// The library implements the full protocol stack the paper evaluates —
// IEEE 802.11 DCF with the power saving mechanism (PSM), Dynamic Source
// Routing (DSR), the On-Demand Power Management (ODPM) baseline, and the
// paper's contribution: RandomCast (Rcast) overhearing control — on top of
// a deterministic microsecond-resolution event simulator with random
// waypoint mobility and a collision-aware radio model.
//
// Quick start:
//
//	cfg := rcast.PaperDefaults()
//	cfg.Scheme = rcast.SchemeRcast
//	cfg.PacketRate = 0.4
//	res, err := rcast.Run(cfg)
//	if err != nil { ... }
//	fmt.Printf("PDR %.1f%%, %.0f J\n", 100*res.PDR, res.TotalJoules)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every reproduced table and figure.
package rcast

import (
	"context"
	"io"

	"rcast/internal/core"
	"rcast/internal/fault"
	"rcast/internal/replay"
	"rcast/internal/scenario"
	"rcast/internal/sim"
	"rcast/internal/trace"
)

// Re-exported simulation time. Time values are microseconds of simulated
// time; use the duration constants to build them.
type Time = sim.Time

// Duration constants for Time.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Seconds converts floating-point seconds to a Time.
func Seconds(s float64) Time { return sim.FromSeconds(s) }

// Config describes one simulation run; see PaperDefaults for the paper's
// evaluation setup (§4.1).
type Config = scenario.Config

// Result carries every metric a run measured.
type Result = scenario.Result

// Aggregate summarizes replications of one configuration.
type Aggregate = scenario.Aggregate

// FaultPlan describes deterministic fault injection (node crashes,
// Gilbert–Elliott burst loss, partitions, battery jitter); assign one to
// Config.Faults. See internal/fault for the determinism contract.
type FaultPlan = fault.Plan

// FaultPreset resolves a named fault plan ("" returns nil: no faults).
func FaultPreset(name string) (*FaultPlan, error) { return fault.Preset(name) }

// FaultPresetNames lists the presets FaultPreset accepts, sorted.
func FaultPresetNames() []string { return fault.PresetNames() }

// Scheme selects the protocol stack under test.
type Scheme = scenario.Scheme

// The evaluated schemes. SchemeAlwaysOn, SchemeODPM and SchemeRcast are the
// paper's "802.11", "ODPM" and "Rcast"; SchemePSM is unmodified 802.11 PSM
// with unconditional overhearing; SchemePSMNoOverhear is the naive
// integration with overhearing disabled.
const (
	SchemeAlwaysOn      = scenario.SchemeAlwaysOn
	SchemePSM           = scenario.SchemePSM
	SchemePSMNoOverhear = scenario.SchemePSMNoOverhear
	SchemeODPM          = scenario.SchemeODPM
	SchemeRcast         = scenario.SchemeRcast
)

// Schemes lists all schemes in presentation order.
func Schemes() []Scheme { return scenario.Schemes() }

// Routing selects the network-layer protocol.
type Routing = scenario.Routing

// Routing protocols: DSR (the paper's protocol, default) and AODV (the
// timeout-based alternative contrasted in §1).
const (
	RoutingDSR  = scenario.RoutingDSR
	RoutingAODV = scenario.RoutingAODV
)

// ParseScheme resolves a scheme from its String form ("802.11", "PSM",
// "PSM-no-overhear", "ODPM", "Rcast").
func ParseScheme(name string) (Scheme, error) { return scenario.ParseScheme(name) }

// Policy is an overhearing policy: it chooses the advertised overhearing
// level per packet class (sender side) and gives the probability that a
// non-addressed listener stays awake for a randomized advertisement
// (listener side); the simulator draws the coin. Set Config.Policy to
// override a scheme's default.
type Policy = core.Policy

// ListenContext carries the listener-side state a Policy may consult.
type ListenContext = core.ListenContext

// ContextReader is implemented by a Policy that declares, as Reads,
// whether its OverhearProbability consults the neighbor count and the
// link-change rate, the ListenContext fields that cost neighbor queries.
// The simulator leaves an undeclared one zero rather than computing it. A
// policy without the declaration is given every field.
type ContextReader = core.ContextReader

// Reads is a set of the costly ListenContext fields.
type Reads = core.Reads

// Costly ListenContext fields a ContextReader can declare.
const (
	ReadsNeighbors   = core.ReadsNeighbors
	ReadsLinkChanges = core.ReadsLinkChanges
	ReadsAll         = core.ReadsAll
)

// Level is an advertised overhearing level (an ATIM subtype, paper §3.2).
type Level = core.Level

// Overhearing levels.
const (
	LevelNone          = core.LevelNone
	LevelRandomized    = core.LevelRandomized
	LevelUnconditional = core.LevelUnconditional
)

// Class is a routing packet class.
type Class = core.Class

// Routing packet classes.
const (
	ClassData = core.ClassData
	ClassRREQ = core.ClassRREQ
	ClassRREP = core.ClassRREP
	ClassRERR = core.ClassRERR
)

// Built-in overhearing policies.
var (
	// PolicyRcast is the paper's evaluated policy: P_R = 1/neighbors for
	// data and RREP, unconditional for RERR.
	PolicyRcast Policy = core.Rcast{}
	// PolicyUnconditional keeps every neighbor awake (unmodified PSM+DSR).
	PolicyUnconditional Policy = core.Unconditional{}
	// PolicyNone disables overhearing entirely.
	PolicyNone Policy = core.None{}
	// PolicySenderID boosts overhearing of senders not heard recently
	// (paper §5 future work).
	PolicySenderID Policy = core.SenderID{}
	// PolicyBattery scales overhearing by remaining battery energy (§5).
	PolicyBattery Policy = core.Battery{}
	// PolicyMobility damps overhearing under neighbor churn (§5).
	PolicyMobility Policy = core.Mobility{}
	// PolicyCombined folds all four §3.2 factors together.
	PolicyCombined Policy = core.Combined{}
)

// ParsePolicy resolves a registered overhearing policy by name ("rcast",
// "unconditional", "none", "sender-id", "battery", "mobility",
// "combined"). Prefer setting Config.PolicyName over Config.Policy: named
// policies canonically encode, so they cache, sweep and replay.
func ParsePolicy(name string) (Policy, error) { return core.ParsePolicy(name) }

// PolicyNames lists the registered overhearing policy names in
// presentation order.
func PolicyNames() []string { return core.PolicyNames() }

// Tracing: set Config.Trace to observe the packet-lifecycle event stream
// — routing, MAC (ATIM/overhearing/sleep-wake) and PHY-loss events, each
// carrying a run-local sequence number and, where applicable, the packet
// UID "src:flow:seq". See tools/tracediff for diffing two runs' streams.
type (
	// TraceEvent is one traced occurrence.
	TraceEvent = trace.Event
	// TraceSink consumes trace events.
	TraceSink = trace.Sink
	// TraceRing retains the most recent events in memory.
	TraceRing = trace.Ring
	// TraceRecorder retains every event in memory, in order.
	TraceRecorder = trace.Recorder
	// TraceMulti fans events out to several sinks.
	TraceMulti = trace.Multi
)

// NewTraceRing returns a sink retaining the most recent capacity events.
func NewTraceRing(capacity int) *TraceRing { return trace.NewRing(capacity) }

// NewTraceWriter returns a sink streaming events as NDJSON to w.
func NewTraceWriter(w io.Writer) TraceSink { return trace.NewWriter(w) }

// NewTraceRecorder returns an unbounded in-memory sink (see trace.Recorder).
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// ReadTraceEvents parses an NDJSON trace stream as written by NewTraceWriter.
func ReadTraceEvents(r io.Reader) ([]TraceEvent, error) { return trace.ReadEvents(r) }

// PaperDefaults returns the paper's evaluation configuration (§4.1):
// 100 nodes on 1500 m × 300 m, 250 m range at 2 Mbps, 20 CBR connections
// of 512-byte packets, random waypoint up to 20 m/s, 1125 s runs, 250 ms
// beacon intervals with 50 ms ATIM windows.
func PaperDefaults() Config { return scenario.PaperDefaults() }

// ErrCanceled marks a run stopped before completion through its context
// (cooperative cancellation). Distinguish a user cancel from an expired
// deadline with errors.Is(err, context.Canceled) /
// errors.Is(err, context.DeadlineExceeded).
var ErrCanceled = scenario.ErrCanceled

// Run executes one simulation and returns its metrics.
func Run(cfg Config) (*Result, error) { return scenario.Run(cfg) }

// Replay re-executes a recorded run from its captured trace
// (internal/replay): the trace's stochastic decisions — overhearing
// lotteries, fault-injected losses, crash firings — are injected at the
// corresponding decision sites, the run is re-executed, and the replayed
// event stream is verified byte-identical to the recording (a divergence
// is an error naming the first differing event). cfg must be the
// recorded run's configuration, sinks excluded. Returns the replayed
// result and event stream.
func Replay(cfg Config, recorded []TraceEvent) (*Result, []TraceEvent, error) {
	return replay.Run(cfg, recorded)
}

// AggregateResults folds already-computed replication results, in
// replication order, into an Aggregate — the merge half of
// RunReplications, exposed so tooling that obtains results by other means
// (replay, caches) can aggregate bit-identically.
func AggregateResults(results []*Result) *Aggregate {
	return scenario.AggregateResults(results)
}

// RunContext is Run under a cancellation context: the event loop polls
// ctx cooperatively (every few thousand events) and a canceled run
// returns an error wrapping ErrCanceled instead of partial metrics.
// Runs whose context never fires are byte-identical to Run.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	return scenario.RunContext(ctx, cfg)
}

// RunReplications runs cfg reps times — replication i with the seed
// sim.ReplicationSeed(cfg.Seed, i), a splitmix64-style mix keeping the
// per-replication RNG streams disjoint across base seeds — and aggregates
// the headline metrics across replications. Replication 0 runs with
// cfg.Seed itself, so a single-replication call is byte-identical to Run.
func RunReplications(cfg Config, reps int) (*Aggregate, error) {
	return scenario.RunReplications(cfg, reps)
}

// RunReplicationsContext is RunReplications with the replications fanned
// out across up to workers goroutines (workers <= 0 selects
// runtime.GOMAXPROCS(0)) under a cancellation context; see RunContext for
// the cancellation semantics. Every replication carries its own derived
// seed, so the aggregate is identical for every worker count.
func RunReplicationsContext(ctx context.Context, cfg Config, reps, workers int) (*Aggregate, error) {
	return scenario.RunReplicationsContext(ctx, cfg, reps, workers)
}
