// Package experiments regenerates every table and figure of the paper's
// evaluation section (§4), plus the ablations DESIGN.md calls out. Each
// generator prints the same rows/series the paper reports and returns the
// underlying data for programmatic checks. Table 1 and the ablations
// A1–A10 are data (see tables.go) rendered by one printer; Figs. 5–9 keep
// their own code.
//
// Every figure point and table row is a config, and runs are cached by
// the config's canonical key, so each distinct configuration runs once per
// suite: Figs. 6, 7 and 8 all derive from one rate sweep, Figs. 5 and 9
// and Table 1 reuse its points, and an ablation row that spells a figure
// cell (A1's "rcast" policy, A8's "none" faults, …) reads that cell.
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

// Suite runs and caches the simulations behind all generators. Every
// figure point and table row is a config (see cell), and the cache is keyed
// by scenario.Config.CanonicalKey, the content address rcast-serve also
// uses: a configuration that several figures and tables print, or that two
// rows spell differently, runs once per suite. Simulation runs fan out
// across a worker pool (scenario.RunBatch); the reports and series a suite
// produces are byte-identical for every worker count.
type Suite struct {
	p         Profile
	out       io.Writer
	cache     map[string]*scenario.Aggregate
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
	return &Suite{p: p, out: out, cache: make(map[string]*scenario.Aggregate)}
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
// The plan is part of every config's cache key, so runs cached under an
// earlier plan are never read for a later one.
func (s *Suite) SetFaults(plan *fault.Plan) { s.faults = plan }

// SetTrace installs a packet-lifecycle trace sink (scenario.Config.Trace)
// on every simulation the suite runs. A non-nil sink forces the runner
// serial (sinks are not safe for concurrent emission), so expect the
// suite to slow accordingly. Each distinct config emits its events once,
// when it first runs. The sink is not part of the cache key, and cached
// aggregates were produced without its events, so the cache is cleared;
// call SetTrace before running any generator.
func (s *Suite) SetTrace(sink trace.Sink) {
	s.traceSink = sink
	s.cache = make(map[string]*scenario.Aggregate)
}

// SetContext installs a cancellation context for every simulation the
// suite runs: cancelling it stops in-flight runs mid-event-loop
// (scenario.RunContext's cooperative stop) and makes the in-progress
// generator return its error.
func (s *Suite) SetContext(ctx context.Context) { s.ctx = ctx }

// SimRuns returns how many individual simulations have completed: each
// replication of each distinct config counts once, however many figures
// and tables read it.
func (s *Suite) SimRuns() int64 { return s.simRuns.Load() }

func (s *Suite) context() context.Context {
	if s.ctx != nil {
		return s.ctx
	}
	return context.Background()
}

// cell returns the profile's base config for one scheme at one packet
// rate, static (pause = Duration) or mobile, under the suite's audit and
// fault settings, with each edit applied in order. Every figure point and
// table row is one.
func (s *Suite) cell(sch scenario.Scheme, rate float64, static bool, edits ...func(*scenario.Config)) scenario.Config {
	cfg := scenario.PaperDefaults()
	cfg.Scheme = sch
	cfg.Nodes = s.p.Nodes
	cfg.FieldW = s.p.FieldW
	cfg.FieldH = s.p.FieldH
	cfg.Connections = s.p.Connections
	cfg.Duration = s.p.Duration
	cfg.PacketRate = rate
	cfg.Seed = s.p.BaseSeed
	if static {
		cfg.Pause = s.p.Duration
	} else {
		cfg.Pause = s.p.PauseMobile
	}
	cfg.Audit = s.audit
	cfg.Faults = s.faults
	for _, edit := range edits {
		edit(&cfg)
	}
	return cfg
}

// low is a scheme's cell at the low-rate mobile point most tables use.
func (s *Suite) low(sch scenario.Scheme, edits ...func(*scenario.Config)) scenario.Config {
	return s.cell(sch, s.p.LowRate, false, edits...)
}

// prefetch returns every config's aggregate, in input order. Configs whose
// key is neither cached nor already pending in this call run as one batch
// across the worker pool, so a generator's independent cells run
// concurrently; the rest are read from the cache. Generators call it with
// every cell they print before printing anything, keeping output
// byte-identical for every worker count.
func (s *Suite) prefetch(cfgs ...scenario.Config) ([]*scenario.Aggregate, error) {
	keys := make([]string, len(cfgs))
	var pending []string
	var batch []scenario.Config
	for i, cfg := range cfgs {
		k, err := cfg.CanonicalKey(s.p.Reps)
		if err != nil {
			return nil, err
		}
		keys[i] = k
		if _, ok := s.cache[k]; ok || slices.Contains(pending, k) {
			continue
		}
		// The sink goes on the copy that runs only: CanonicalKey refuses a
		// config that carries one.
		cfg.Trace = s.traceSink
		pending = append(pending, k)
		batch = append(batch, cfg)
	}
	aggs, err := scenario.RunBatch(s.context(), s.workers, s.p.Reps, batch...)
	if err != nil {
		return nil, err
	}
	s.simRuns.Add(int64(len(batch) * max(s.p.Reps, 1)))
	for i, k := range pending {
		s.cache[k] = aggs[i]
	}
	out := make([]*scenario.Aggregate, len(keys))
	for i, k := range keys {
		out[i] = s.cache[k]
	}
	return out, nil
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
	// Fan out every cell of every figure and table at once, so the worker
	// pool sees the whole suite's parallelism instead of one generator's.
	// The sweep covers every figure's cells.
	_, cfgs := s.sweepCells()
	for _, g := range generators {
		if g.table != nil {
			for _, r := range g.table(s).rows {
				cfgs = append(cfgs, r.cfg)
			}
		}
	}
	if _, err := s.prefetch(cfgs...); err != nil {
		return err
	}
	for _, g := range generators {
		if err := s.Generate(g.name); err != nil {
			return err
		}
	}
	return nil
}
