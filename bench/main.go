// Command rcastbench is the rcast benchmark: five workloads that drive the
// simulator through its public entry points (rcast.Run, the experiment
// suite and the rcast-serve HTTP API), time them from outside, check their
// outputs against pinned digests, and split a profiled run's CPU time by
// layer. See README.md for the workloads, the metrics and how to run it.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload paper-rcast --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload serve-mixed --trace 1   # per-layer metrics
//	bash bench/run.sh -sets 2                            # repeatability check
//	bash bench/run.sh -pin                               # regenerate pins.json
//
// The last line of a run's standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// pins.json holds the expected output digests; see writePins.
//
//go:embed pins.json
var pinsJSON []byte

type pins struct {
	Note string `json:"note"`
	// Cells maps a cell workload to the SHA-256 of each seed's Result
	// JSON (audit diagnostics cleared).
	Cells map[string]map[int64]string `json:"cells"`
	// QuickSuite is the SHA-256 of the quick suite's stdout, which equals
	// `rcast-bench` (quick profile) stdout.
	QuickSuite string `json:"quick_suite"`
	// Serve combines the serve-mixed workload's pinned cell results,
	// ordered by canonical key.
	Serve string `json:"serve"`
}

var pinned = func() pins {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic("bench/pins.json: " + err.Error())
	}
	return p
}()

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported by every
// workload with profiling off. Latencies are per-layer metrics: a cell's or
// a suite's wall time is the inverse of sim_s_per_wall_s over a fixed set
// of cells, and a closed loop's job latency is tied to its throughput, so
// a second timing metric would only double the chance of a noisy verdict.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_s_per_wall_s", "sim-s/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are reported by the profiled run (--trace 1). A workload that
// does not exercise a metric's layer reports 0 for it.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".cpu_share", "fraction"})
	}
	return append(defs, []metricDef{
		{"profile.samples", "count"},
		{"profile.overhead_ratio", "ratio"},
		{"phy.ns_per_tx", "ns"},
		{"propagation.ns_per_tx", "ns"},
		{"mac.ns_per_phase", "ns"},
		{"dsr.ns_per_data_tx", "ns"},
		{"mobility.ns_per_node_sim_s", "ns"},
		{"trace.ns_per_event", "ns"},
		{"phy.tx", "count"},
		{"phy.deliveries", "count"},
		{"phy.collisions", "count"},
		{"phy.missed_asleep", "count"},
		{"phy.chan_lost", "count"},
		{"phy.delivery_ratio", "fraction"},
		{"mac.data_tx", "count"},
		{"mac.rts_tx", "count"},
		{"mac.broadcast_tx", "count"},
		{"mac.announced", "count"},
		{"mac.overheard", "count"},
		{"mac.awake_phases", "count"},
		{"mac.slept_phases", "count"},
		{"mac.link_success_ratio", "fraction"},
		{"dsr.rreq_sent", "count"},
		{"dsr.rrep_sent", "count"},
		{"dsr.rerr_sent", "count"},
		{"dsr.data_sent", "count"},
		{"dsr.cache_replies", "count"},
		{"dsr.salvages", "count"},
		{"energy.total_j", "J"},
		{"metrics.pdr", "fraction"},
		{"trace.events", "count"},
		{"trace.events.routing", "count"},
		{"trace.events.mac", "count"},
		{"trace.events.phy", "count"},
		{"trace.overhead_ratio", "ratio"},
		{"audit.violations", "count"},
		{"runtime.alloc_mb_per_sim_s", "MB/sim-s"},
		{"runtime.gc_cycles_per_sim_s", "1/sim-s"},
		{"experiments.runs", "count"},
		{"experiments.core_util", "fraction"},
		{"serve.ops_per_s", "1/s"},
		{"serve.hit_latency_p50_ms", "ms"},
		{"serve.hit_latency_tail_ms", "ms"},
		{"serve.hit_latency_n", "count"},
		{"serve.job_latency_p50_ms", "ms"},
		{"serve.job_latency_tail_ms", "ms"},
		{"serve.job_latency_n", "count"},
		{"serve.sweep_latency_p50_ms", "ms"},
		{"serve.submit_ms_p50", "ms"},
		{"serve.queue_wait_ms_p50", "ms"},
		{"serve.run_ms_p50", "ms"},
		{"serve.overhead_ms_p50", "ms"},
		{"serve.result_fetch_ms_p50", "ms"},
		{"serve.cache_hit_ratio", "fraction"},
		{"serve.sweep_cells_computed", "count"},
		{"serve.refused", "count"},
	}...)
}()

// runOpts are one run's settings.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool // profiled run reporting the per-layer metrics
	toy     bool // 20-node, 30 s cells for the smoke test; no pins
	root    string
	build   string // absolute; binaries and profiles
}

var cellWorkloads = map[string]cellWorkload{
	"paper-rcast":         {name: "paper-rcast", base: paperCell, seeds: []int64{1, 2, 3}, traceCost: true},
	"static-80211-hirate": {name: "static-80211-hirate", base: staticCell, seeds: []int64{1, 2}},
	"fading-mobile":       {name: "fading-mobile", base: fadingCell, seeds: []int64{1, 2}},
}

var workloadNames = []string{
	"paper-rcast", "static-80211-hirate", "fading-mobile", "quick-suite", "serve-mixed",
}

func lookup(name string) func(runOpts) (*outcome, error) {
	if w, ok := cellWorkloads[name]; ok {
		return w.run
	}
	switch name {
	case "quick-suite":
		return runSuiteWorkload
	case "serve-mixed":
		return runServeWorkload
	}
	return nil
}

// outcome is what one run measured and checked.
type outcome struct {
	attempted, failed int
	vals              map[string]float64
	lines             []string // human-readable detail
}

func newOutcome() *outcome { return &outcome{vals: make(map[string]float64)} }

// check counts a failed output check.
func (o *outcome) check(err error) {
	if err != nil {
		o.failed++
		fmt.Fprintln(os.Stderr, "rcastbench: check failed:", err)
	}
}

// series records a timing series as its median and, with enough samples,
// its highest percentile that has ten samples beyond it.
func (o *outcome) series(name string, xs []float64) {
	line := fmt.Sprintf("%s: n=%d p50=%.4g", name, len(xs), median(xs))
	if pct, v, ok := tail(xs); ok {
		line += fmt.Sprintf(" p%.1f=%.4g", pct, v)
	}
	o.lines = append(o.lines, line)
}

func (o *outcome) peakRSS(pid int) error {
	mb, err := peakRSSMB(pid)
	o.vals["peak_rss_mb"] = mb
	return err
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("rcastbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
		seed     = fs.Int64("seed", 1, "seed the workload derives its inputs from")
		seconds  = fs.Float64("seconds", 20, "how long the run measures")
		traceArg = fs.Int("trace", 0, "1 = profiled run reporting the per-layer metrics")
		root     = fs.String("root", ".", "repository root")
		build    = fs.String("build", ".bench_build", "directory for built binaries and profiles")
		sets     = fs.Int("sets", 0, "repeatability mode: run every workload in this many sets and compare them")
		outPath  = fs.String("out", "", "-sets: write every run's metrics and the verdicts as JSON here")
		pin      = fs.Bool("pin", false, "recompute bench/pins.json from this checkout")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	buildDir, err := filepath.Abs(*build)
	if err == nil {
		err = os.MkdirAll(buildDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcastbench:", err)
		return 1
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *traceArg == 1, root: *root, build: buildDir}
	switch {
	case *pin:
		if err := writePins(o); err != nil {
			fmt.Fprintln(os.Stderr, "rcastbench: pin:", err)
			return 1
		}
		return 0
	case *sets > 0:
		return repeat(o, *sets, *outPath)
	}
	return runWorkload(*workload, o)
}

// runWorkload runs one workload and prints its report, ending with the
// JSON result line. It exits non-zero when an output check failed.
func runWorkload(name string, o runOpts) int {
	runFn := lookup(name)
	if runFn == nil {
		fmt.Fprintf(os.Stderr, "rcastbench: unknown workload %q (want one of %v)\n", name, workloadNames)
		return 2
	}
	out, err := runFn(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcastbench: %s: %v\n", name, err)
		return 1
	}
	res, err := out.result(o.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcastbench: %s: %v\n", name, err)
		return 1
	}
	fmt.Printf("%s seed=%d trace=%v: %d attempted, %d failed\n", name, o.seed, o.trace, out.attempted, out.failed)
	for _, l := range out.lines {
		fmt.Println("  " + l)
	}
	for _, d := range metricDefs(o.trace) {
		fmt.Printf("  %-30s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcastbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

func metricDefs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// result selects the run's reported metrics. End-to-end metrics are never
// 0 and the CPU shares add up to 1; anything else is a harness bug.
func (o *outcome) result(trace bool) (result, error) {
	res := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric),
	}
	for _, d := range metricDefs(trace) {
		v := o.vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (!trace && v <= 0) {
			return res, fmt.Errorf("metric %s measured %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if trace {
		sum := 0.0
		for _, l := range layers {
			sum += o.vals[l+".cpu_share"]
		}
		if math.Abs(sum-1) > 0.01 {
			return res, fmt.Errorf("layer CPU shares add up to %v", sum)
		}
	}
	return res, nil
}
