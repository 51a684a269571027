// Package experiments regenerates every table and figure of the paper's
// evaluation section (§4), plus the ablations DESIGN.md calls out. Each
// generator prints the same rows/series the paper reports and returns the
// underlying data for programmatic checks. Table 1 and the ablations
// A1–A10 are data (see tables.go) rendered by one printer; Figs. 5–9 keep
// their own code.
//
// Runs are cached per (scheme, rate, pause, gossip) so the figure
// generators share simulations: Figs. 6, 7 and 8 all derive from one rate
// sweep, and Figs. 5 and 9 reuse its corner points.
package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync/atomic"

	"rcast/internal/fault"
	"rcast/internal/scenario"
	"rcast/internal/sim"
	"rcast/internal/trace"
)

// Profile scales the experiment suite. Paper() is the §4.1 setup; Quick()
// is a reduced profile for CI and `go test -bench`.
type Profile struct {
	Name           string
	Nodes          int
	FieldW, FieldH float64
	Connections    int
	Duration       sim.Time
	Reps           int
	// Rates is the packet-rate sweep for Figs. 6–8; it must contain
	// LowRate and HighRate, the corner points used by Figs. 5 and 9.
	Rates             []float64
	LowRate, HighRate float64
	// PauseMobile is the mobile pause time; the static scenario uses
	// pause = Duration, as in the paper.
	PauseMobile sim.Time
	BaseSeed    int64
}

// Paper returns the full-scale profile of §4.1. The paper averages ten
// replications; three keep the suite under an hour while stabilizing the
// series (see EXPERIMENTS.md).
func Paper() Profile {
	return Profile{
		Name:        "paper",
		Nodes:       100,
		FieldW:      1500,
		FieldH:      300,
		Connections: 20,
		Duration:    1125 * sim.Second,
		Reps:        3,
		Rates:       []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0},
		LowRate:     0.4,
		HighRate:    2.0,
		PauseMobile: 600 * sim.Second,
		BaseSeed:    1,
	}
}

// Quick returns a reduced profile (≈ 50× faster) preserving the paper's
// qualitative shape: fewer nodes on a proportionally smaller field, shorter
// runs, a coarser rate sweep, one replication.
func Quick() Profile {
	return Profile{
		Name:        "quick",
		Nodes:       40,
		FieldW:      900,
		FieldH:      300,
		Connections: 8,
		Duration:    150 * sim.Second,
		Reps:        1,
		Rates:       []float64{0.2, 0.4, 1.0, 2.0},
		LowRate:     0.4,
		HighRate:    2.0,
		PauseMobile: 75 * sim.Second,
		BaseSeed:    1,
	}
}

// figureSchemes are the three schemes of the paper's figures.
var figureSchemes = []scenario.Scheme{
	scenario.SchemeAlwaysOn,
	scenario.SchemeODPM,
	scenario.SchemeRcast,
}

// runKey identifies a cached simulation batch.
type runKey struct {
	scheme scenario.Scheme
	rate   float64
	static bool
	gossip bool
}

// Suite runs and caches the simulations behind all generators. Simulation
// runs fan out across a worker pool (scenario.RunBatch); the reports and
// series a suite produces are byte-identical for every worker count.
type Suite struct {
	p         Profile
	out       io.Writer
	cache     map[runKey]*scenario.Aggregate
	workers   int
	audit     bool
	faults    *fault.Plan
	traceSink trace.Sink
	ctx       context.Context
	simRuns   atomic.Int64
}

// NewSuite creates a suite writing its reports to out. Runs fan out across
// runtime.GOMAXPROCS(0) workers by default; see SetWorkers.
func NewSuite(p Profile, out io.Writer) *Suite {
	if out == nil {
		out = io.Discard
	}
	return &Suite{p: p, out: out, cache: make(map[runKey]*scenario.Aggregate)}
}

// SetWorkers bounds the concurrency of the suite's simulation runs:
// n <= 0 selects runtime.GOMAXPROCS(0), 1 reproduces the serial path.
// Every setting produces identical output.
func (s *Suite) SetWorkers(n int) { s.workers = n }

// SetAudit turns on the cross-layer invariant audit (scenario.Config.Audit)
// for every simulation the suite runs. Any violation aborts the suite with
// an error naming the first breach. Metrics are unchanged either way: the
// audit only observes.
func (s *Suite) SetAudit(on bool) { s.audit = on }

// SetFaults installs a fault plan (see internal/fault) applied to every
// simulation the suite builds — figures and ablations alike, except the
// fault ablation itself, whose cells carry their own per-variant plans.
// Cached aggregates from a previous plan would be stale, so the cache is
// cleared; call SetFaults before running any generator.
func (s *Suite) SetFaults(plan *fault.Plan) {
	s.faults = plan
	s.cache = make(map[runKey]*scenario.Aggregate)
}

// SetTrace installs a packet-lifecycle trace sink (scenario.Config.Trace)
// on every simulation the suite runs. A non-nil sink forces the runner
// serial (sinks are not safe for concurrent emission), so expect the
// suite to slow accordingly. Cached aggregates were produced without the
// sink's events, so the cache is cleared; call SetTrace before running
// any generator.
func (s *Suite) SetTrace(sink trace.Sink) {
	s.traceSink = sink
	s.cache = make(map[runKey]*scenario.Aggregate)
}

// SetContext installs a cancellation context for every simulation the
// suite runs: cancelling it stops in-flight runs mid-event-loop
// (scenario.RunContext's cooperative stop) and makes the in-progress
// generator return its error.
func (s *Suite) SetContext(ctx context.Context) { s.ctx = ctx }

// Runs returns how many distinct runKey batches are cached: the figures'
// batches and those the cache-reading tables (Table 1, A2, A3) share with
// them. Table rows with a config edit run fresh and are not counted.
func (s *Suite) Runs() int { return len(s.cache) }

// SimRuns returns how many individual simulations have completed (each
// replication of each batch counts once, table rows included).
func (s *Suite) SimRuns() int64 { return s.simRuns.Load() }

func (s *Suite) context() context.Context {
	if s.ctx != nil {
		return s.ctx
	}
	return context.Background()
}

func (s *Suite) config(k runKey) scenario.Config {
	cfg := scenario.PaperDefaults()
	cfg.Scheme = k.scheme
	cfg.Nodes = s.p.Nodes
	cfg.FieldW = s.p.FieldW
	cfg.FieldH = s.p.FieldH
	cfg.Connections = s.p.Connections
	cfg.Duration = s.p.Duration
	cfg.PacketRate = k.rate
	cfg.Seed = s.p.BaseSeed
	if k.static {
		cfg.Pause = s.p.Duration
	} else {
		cfg.Pause = s.p.PauseMobile
	}
	if k.gossip {
		cfg.GossipFanout = 3
	}
	cfg.Audit = s.audit
	cfg.Faults = s.faults
	cfg.Trace = s.traceSink
	return cfg
}

// agg returns the cached aggregate for a key, running it on first use.
func (s *Suite) agg(k runKey) (*scenario.Aggregate, error) {
	if a, ok := s.cache[k]; ok {
		return a, nil
	}
	if err := s.prefetch(k); err != nil {
		return nil, fmt.Errorf("experiments: %v rate=%.1f static=%v: %w",
			k.scheme, k.rate, k.static, err)
	}
	return s.cache[k], nil
}

// prefetch simulates every not-yet-cached key of the batch across the
// worker pool, so one figure's independent cells run concurrently instead
// of one by one. Generators call it with their full key set before reading
// any aggregate; printing then happens from the cache in deterministic
// order, keeping output byte-identical for every worker count.
func (s *Suite) prefetch(keys ...runKey) error {
	var missing []runKey
	var cfgs []scenario.Config
	for _, k := range keys {
		if _, ok := s.cache[k]; ok || slices.Contains(missing, k) {
			continue
		}
		missing = append(missing, k)
		cfgs = append(cfgs, s.config(k))
	}
	aggs, err := s.run(cfgs)
	if err != nil {
		return err
	}
	for i, k := range missing {
		s.cache[k] = aggs[i]
	}
	return nil
}

// run executes one replication batch per config on the suite's pool and
// returns the aggregates in input order.
func (s *Suite) run(cfgs []scenario.Config) ([]*scenario.Aggregate, error) {
	aggs, err := scenario.RunBatch(s.context(), s.workers, s.p.Reps, cfgs...)
	if err != nil {
		return nil, err
	}
	s.simRuns.Add(int64(len(cfgs) * max(s.p.Reps, 1)))
	return aggs, nil
}

func (s *Suite) printf(format string, args ...any) {
	fmt.Fprintf(s.out, format, args...)
}

func pauseLabel(static bool) string {
	if static {
		return "Tpause=static"
	}
	return "Tpause=mobile"
}

// sweepKeys returns every cell of the Figs. 6–8 rate sweep (which also
// covers Table 1, Fig. 5 and Fig. 9, whose corner rates are in the sweep).
func (s *Suite) sweepKeys() []runKey {
	var keys []runKey
	for _, static := range []bool{false, true} {
		for _, rate := range s.p.Rates {
			for _, sch := range figureSchemes {
				keys = append(keys, runKey{scheme: sch, rate: rate, static: static})
			}
		}
	}
	return keys
}

// generators lists every table and figure in report order. The names are
// rcast-bench's -only vocabulary; a table is data rendered by Table, a
// figure prints itself.
var generators = []struct {
	name  string
	table func(*Suite) table
	fig   func(*Suite) error
}{
	{name: "table1", table: (*Suite).table1},
	{name: "fig5", fig: func(s *Suite) error { _, err := s.Fig5(); return err }},
	{name: "fig6", fig: func(s *Suite) error { _, err := s.Fig6(); return err }},
	{name: "fig7", fig: func(s *Suite) error { _, err := s.Fig7(); return err }},
	{name: "fig8", fig: func(s *Suite) error { _, err := s.Fig8(); return err }},
	{name: "fig9", fig: func(s *Suite) error { _, err := s.Fig9(); return err }},
	{name: "a1", table: (*Suite).a1},
	{name: "a2", table: (*Suite).a2},
	{name: "a3", table: (*Suite).a3},
	{name: "a4", table: (*Suite).a4},
	{name: "a5", table: (*Suite).a5},
	{name: "a6", table: (*Suite).a6},
	{name: "a7", table: (*Suite).a7},
	{name: "a8", table: (*Suite).a8},
	{name: "a9", table: (*Suite).a9},
	{name: "a10", table: (*Suite).a10},
}

// Names returns every table and figure name in report order.
func Names() []string {
	names := make([]string, len(generators))
	for i, g := range generators {
		names[i] = g.name
	}
	return names
}

// Generate regenerates the named table or figure.
func (s *Suite) Generate(name string) error {
	for _, g := range generators {
		if g.name == name && g.fig != nil {
			return g.fig(s)
		}
	}
	_, err := s.Table(name)
	return err
}

// Table runs (or reads from the cache) the named table's rows, prints the
// table and returns its data. An unknown name's error lists every valid
// name.
func (s *Suite) Table(name string) (*Table, error) {
	for _, g := range generators {
		if g.name == name && g.table != nil {
			t, err := s.render(g.table(s))
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", name, err)
			}
			return t, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown table or figure %q (want one of %s)",
		name, strings.Join(Names(), ", "))
}

// All regenerates every table and figure in order.
func (s *Suite) All() error {
	// Fan out every cacheable cell of every figure at once, so the worker
	// pool sees the whole suite's parallelism instead of one figure's.
	keys := s.sweepKeys()
	keys = append(keys,
		runKey{scheme: scenario.SchemePSMNoOverhear, rate: s.p.LowRate},
		runKey{scheme: scenario.SchemePSM, rate: s.p.LowRate},
		runKey{scheme: scenario.SchemeRcast, rate: s.p.HighRate, gossip: true},
	)
	if err := s.prefetch(keys...); err != nil {
		return err
	}
	for _, g := range generators {
		if err := s.Generate(g.name); err != nil {
			return err
		}
	}
	return nil
}
