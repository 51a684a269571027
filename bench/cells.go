package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"rcast"
	"rcast/internal/trace"
)

// cellWorkload runs one fixed set of simulation cells serially, pass after
// pass. Every pass runs the same cells, in an order drawn from --seed, so
// a run's work does not depend on which seed it is given: cell cost
// varies up to 3x between simulation seeds, which would swamp the
// commit-to-commit differences the benchmark exists to resolve.
type cellWorkload struct {
	// name is the workload's, and names the pins.json cell set its results
	// must match.
	name  string
	base  func() rcast.Config
	seeds []int64
	// traceCost adds to the profiled run one pass of the same cells under
	// the invariant audit with the NDJSON trace writer and a per-kind
	// counter attached, and reports what those hooks cost. Tracing and
	// auditing only observe, so the traced cells must match the same pins.
	traceCost bool
}

func paperCell() rcast.Config { return rcast.PaperDefaults() }

func staticCell() rcast.Config {
	c := rcast.PaperDefaults()
	c.Scheme = rcast.SchemeAlwaysOn
	c.PacketRate = 2.0
	c.Pause = c.Duration
	return c
}

// fadingCell is shortened from the paper's 1125 s so one cell stays near
// 2.5 s: under fading every simulated second costs about ten times a disk
// second.
func fadingCell() rcast.Config {
	c := rcast.PaperDefaults()
	c.Channel = "fading"
	c.Duration = rcast.Seconds(150)
	c.Pause = rcast.Seconds(30)
	return c
}

// toyCell shrinks a cell to 20 nodes for 30 s, for the smoke test.
func toyCell(c rcast.Config) rcast.Config {
	c.Nodes = 20
	c.FieldW = 600
	c.Connections = 5
	c.Duration = rcast.Seconds(30)
	c.Pause = min(c.Pause, c.Duration)
	return c
}

// cellRun is one executed cell.
type cellRun struct {
	seed   int64
	wall   time.Duration
	res    *rcast.Result
	events map[trace.Kind]uint64 // traced cells only
}

// config returns the cell's configuration for a seed, traced and audited
// if asked. Trace sinks are fresh per cell, so each counter holds one
// cell's events.
func (w cellWorkload) config(seed int64, toy, traced bool) (rcast.Config, *trace.Counter) {
	c := w.base()
	if toy {
		c = toyCell(c)
	}
	c.Seed = seed
	if !traced {
		return c, nil
	}
	counter := trace.NewCounter()
	c.Audit = true
	c.Trace = trace.Multi{trace.NewWriter(io.Discard), counter}
	return c, counter
}

func (w cellWorkload) runCell(seed int64, toy, traced bool) (cellRun, error) {
	cfg, counter := w.config(seed, toy, traced)
	start := time.Now()
	res, err := rcast.Run(cfg)
	wall := time.Since(start)
	// An audit violation comes back as an error alongside the full
	// result; verify counts it as a failed cell.
	if err != nil && (res == nil || res.AuditViolationCount == 0) {
		return cellRun{}, fmt.Errorf("cell seed %d: %w", seed, err)
	}
	cr := cellRun{seed: seed, wall: wall, res: res}
	if counter != nil {
		cr.events = counter.Snapshot()
	}
	return cr, nil
}

// setupTime is the median of 41 zero-length builds of the workload's
// cell (traffic from t=0, 1 ms of simulated time) after 5 warm-ups: the
// cost of wiring a world, which a user pays once per cell.
func (w cellWorkload) setupTime(toy bool) (float64, error) {
	return medianOf(5, 41, func() error {
		cfg, _ := w.config(1, toy, false)
		cfg.TrafficStart = 0
		cfg.Duration = rcast.Millisecond
		_, err := rcast.Run(cfg)
		return err
	})
}

// medianOf times fn warm+n times and returns the median of the last n, in
// seconds.
func medianOf(warm, n int, fn func() error) (float64, error) {
	var times []float64
	for i := 0; i < warm+n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if i >= warm {
			times = append(times, time.Since(start).Seconds())
		}
	}
	return median(times), nil
}

// resultDigest is the SHA-256 of a result's JSON with the audit-only
// diagnostics cleared, so audited and plain runs of one config compare.
func resultDigest(res *rcast.Result) (string, error) {
	r := *res
	r.AuditViolations, r.AuditViolationCount, r.AuditDupTerminals = nil, 0, 0
	b, err := json.Marshal(&r)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

// passes runs the cells in order, pass after pass, until the next pass
// would end further past the deadline than stopping now falls short of
// it. At least one pass always runs.
func passes(order []int64, seconds float64, cell func(seed int64) error) error {
	start := time.Now()
	for {
		passStart := time.Now()
		for _, seed := range order {
			if err := cell(seed); err != nil {
				return err
			}
		}
		last := time.Since(passStart)
		if (time.Since(start) + last/2).Seconds() >= seconds {
			return nil
		}
	}
}

func (w cellWorkload) run(o runOpts) (*outcome, error) {
	out := newOutcome()
	order := append([]int64(nil), w.seeds...)
	rand.New(rand.NewSource(o.seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	var ref cellPass
	if o.trace {
		// An unprofiled reference pass, for the profiler's overhead.
		var err error
		if ref, err = w.onePass(order, o, out, false); err != nil {
			return nil, err
		}
	} else {
		setup, err := w.setupTime(o.toy)
		if err != nil {
			return nil, err
		}
		out.vals["setup_s"] = setup
	}

	var (
		walls, ratios []float64
		pass, total   workCounts
		simSeconds    float64
		wallSum       time.Duration
		seedWalls     = map[int64][]float64{}
	)
	ph, err := measure(o, func() error {
		return passes(order, o.seconds, func(seed int64) error {
			cr, err := w.runCell(seed, o.toy, false)
			if err != nil {
				return err
			}
			out.attempted++
			out.check(w.verify(cr, o.toy))
			walls = append(walls, cr.wall.Seconds()*1000)
			wallSum += cr.wall
			simSeconds += cr.res.Duration.Seconds()
			c := countsOf(cr.res, nil)
			total.add(c)
			if len(seedWalls[seed]) == 0 {
				pass.add(c)
			}
			seedWalls[seed] = append(seedWalls[seed], cr.wall.Seconds())
			if r := ref.walls[seed]; r > 0 {
				ratios = append(ratios, cr.wall.Seconds()/r)
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	out.vals["sim_s_per_wall_s"] = simSeconds / wallSum.Seconds()
	out.series("cell wall (ms)", walls)
	pass.report(out.vals)
	ph.report(out.vals, simSeconds)
	if o.trace {
		reportSplit(out.vals, ph.split, total)
		out.vals["profile.overhead_ratio"] = median(ratios)
		if w.traceCost {
			if err := w.reportTraceCost(order, o, out, seedWalls); err != nil {
				return nil, err
			}
		}
	}
	if err := out.peakRSS(os.Getpid()); err != nil {
		return nil, err
	}
	return out, nil
}

// cellPass is one pass over the cells: each cell's wall seconds and the
// pass's work counts.
type cellPass struct {
	walls  map[int64]float64
	counts workCounts
}

// onePass runs every cell once, traced and audited if asked.
func (w cellWorkload) onePass(order []int64, o runOpts, out *outcome, traced bool) (cellPass, error) {
	p := cellPass{walls: make(map[int64]float64, len(order))}
	for _, seed := range order {
		cr, err := w.runCell(seed, o.toy, traced)
		if err != nil {
			return p, err
		}
		out.attempted++
		out.check(w.verify(cr, o.toy))
		p.walls[seed] = cr.wall.Seconds()
		p.counts.add(countsOf(cr.res, cr.events))
	}
	return p, nil
}

// reportTraceCost profiles one pass of the cells with tracing and the
// audit on and reports what the hooks cost: the events they recorded by
// emitting layer, the audit's violations, trace CPU per event, and the
// traced cells' wall time over the same cells' median profiled wall time
// untraced (plainWalls). The untraced profile's trace.cpu_share stays as
// the cost of the hooks when they are off.
func (w cellWorkload) reportTraceCost(order []int64, o runOpts, out *outcome, plainWalls map[int64][]float64) error {
	var tp cellPass
	ph, err := measure(o, func() error {
		var err error
		tp, err = w.onePass(order, o, out, true)
		return err
	})
	if err != nil {
		return err
	}
	var traced, plain float64
	for _, seed := range order {
		traced += tp.walls[seed]
		plain += median(plainWalls[seed])
	}
	c := tp.counts
	out.vals["trace.events"] = float64(c.events())
	out.vals["trace.events.routing"] = float64(c.eventsRouting)
	out.vals["trace.events.mac"] = float64(c.eventsMAC)
	out.vals["trace.events.phy"] = float64(c.eventsPHY)
	out.vals["audit.violations"] = float64(c.auditViolations)
	out.vals["trace.ns_per_event"] = ratio(float64(ph.split.byLayer["trace"]/time.Nanosecond), float64(c.events()))
	out.vals["trace.overhead_ratio"] = ratio(traced, plain)
	return nil
}

// verify checks a cell's result against its pinned digest (full-size
// cells only; the toy cells of the smoke test have none) and, for audited
// cells, that the audit found nothing.
func (w cellWorkload) verify(cr cellRun, toy bool) error {
	if n := cr.res.AuditViolationCount; n > 0 {
		return fmt.Errorf("seed %d: %d audit violations", cr.seed, n)
	}
	if toy {
		return nil
	}
	want, ok := pinned.Cells[w.name][cr.seed]
	if !ok {
		return fmt.Errorf("seed %d: no pinned digest in %s", cr.seed, w.name)
	}
	got, err := resultDigest(cr.res)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("seed %d: result digest %s, pinned %s", cr.seed, got, want)
	}
	return nil
}
