package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// layers are the buckets CPU samples are charged to, in report order:
// the repository's modules, "runtime" for samples with no rcast frame
// (GC workers, the scheduler), and "bench" for the harness's own work
// (hashing results, decoding responses).
var layers = []string{
	"sim", "phy", "propagation", "mac", "odpm", "dsr", "aodv", "mobility",
	"energy", "metrics", "trace", "audit", "scenario", "experiments", "serve",
	"runtime", "bench",
}

// profileHz is the in-process CPU sampling rate. The default 100 Hz gives
// a serial 20 s run about 2000 samples, right at the floor; 250 Hz clears
// it with room to spare.
const profileHz = 250

// layerOfPackage maps a package path below rcast/internal/ to its layer.
// Modules that are not layers of their own are charged to the layer that
// calls them: overhearing policies and clock sync run inside the MAC,
// CBR sources and fault plans are world wiring, summary statistics are
// metrics, replay is part of tracing, and the Prometheus exporter serves
// /metrics.
func layerOfPackage(rel string) string {
	first, rest, _ := strings.Cut(rel, "/")
	switch first {
	case "geom":
		return "mobility"
	case "core", "clocksync":
		return "mac"
	case "routing":
		if rest == "aodv" {
			return "aodv"
		}
		return "dsr"
	case "stats":
		return "metrics"
	case "metrics":
		if rest == "promtext" {
			return "serve"
		}
		return "metrics"
	case "traffic", "fault":
		return "scenario"
	case "replay":
		return "trace"
	case "profiling":
		return "runtime"
	}
	for _, l := range layers {
		if l == first {
			return l
		}
	}
	return "runtime"
}

// layerOfStack charges one sampled stack (leaf first) to the layer of its
// nearest rcast/internal frame, so math.Pow under propagation.(*Fading)
// counts as propagation. A stack with no such frame is the HTTP server's
// if it runs net/http (the daemon's request plumbing), the harness's if it
// runs main, and the Go runtime's otherwise.
func layerOfStack(frames []string) string {
	const prefix = "rcast/internal/"
	http, harness := false, false
	for _, f := range frames {
		if rel, ok := strings.CutPrefix(f, prefix); ok {
			return layerOfPackage(packageOf(rel))
		}
		http = http || strings.HasPrefix(f, "net/http.")
		harness = harness || strings.HasPrefix(f, "main.")
	}
	switch {
	case http:
		return "serve"
	case harness:
		return "bench"
	}
	return "runtime"
}

// packageOf strips the symbol from a function name below rcast/internal/:
// "phy.(*Channel).deliver" → "phy", "routing/dsr.(*Router).x" →
// "routing/dsr".
func packageOf(rel string) string {
	slash := strings.LastIndex(rel, "/")
	if dot := strings.Index(rel[slash+1:], "."); dot >= 0 {
		return rel[:slash+1+dot]
	}
	return rel
}

// cpuSplit is a profile's CPU time per layer.
type cpuSplit struct {
	total   time.Duration
	byLayer map[string]time.Duration
	samples int
}

// share returns the layer's fraction of the profile's CPU time.
func (c cpuSplit) share(layer string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.byLayer[layer]) / float64(c.total)
}

// parseTraces reads `go tool pprof -traces` output: a header whose
// "Total samples = <d>" line gives the profile's CPU time, then one block
// per distinct stack, separated by "-----------+---" rules, whose first
// line carries the stack's CPU time and leaf frame and whose next lines
// are its callers. The blocks must add up to the header's total within
// 1%, which catches a block the parser skipped.
func parseTraces(r io.Reader, hz int) (cpuSplit, error) {
	split := cpuSplit{byLayer: make(map[string]time.Duration)}
	var (
		headerTotal time.Duration
		weight      time.Duration
		frames      []string
		inBlock     bool
	)
	flush := func() {
		if inBlock && len(frames) > 0 {
			split.byLayer[layerOfStack(frames)] += weight
			split.total += weight
		}
		frames, inBlock = frames[:0], false
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			inBlock = true
		case !inBlock:
			if _, after, ok := strings.Cut(line, "Total samples = "); ok {
				d, err := time.ParseDuration(strings.Fields(after)[0])
				if err != nil {
					return split, fmt.Errorf("profile header %q: %w", line, err)
				}
				headerTotal = d
			}
		case len(frames) == 0:
			fields := strings.Fields(line)
			if len(fields) < 2 {
				return split, fmt.Errorf("profile block starts with %q", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return split, fmt.Errorf("profile block %q: %w", line, err)
			}
			weight = d
			frames = append(frames, fields[1])
		default:
			if fields := strings.Fields(line); len(fields) > 0 {
				frames = append(frames, fields[0])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return split, err
	}
	flush()
	if headerTotal == 0 || split.total == 0 {
		return split, fmt.Errorf("profile has no samples")
	}
	if diff := math.Abs(float64(split.total - headerTotal)); diff > 0.01*float64(headerTotal) {
		return split, fmt.Errorf("profile blocks add up to %v, header says %v", split.total, headerTotal)
	}
	split.samples = int(split.total / (time.Second / time.Duration(hz)))
	return split, nil
}

// attribute runs `go tool pprof -traces` over a CPU profile of binary and
// splits it by layer.
func attribute(binary, profile string, hz int) (cpuSplit, error) {
	var out, stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", binary, profile)
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return cpuSplit{}, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseTraces(&out, hz)
}

// phase is what measure observed of this process over one timed phase.
type phase struct {
	wall, cpu  time.Duration
	allocBytes uint64
	gcCycles   uint32
	split      cpuSplit // profiled runs only
}

// measure runs fn as the timed phase of a run, recording this process's
// CPU time, allocation and GC cycles across it. On a profiled run
// (o.trace) it also samples the CPU and splits the profile by layer.
func measure(o runOpts, fn func() error) (phase, error) {
	var ph phase
	path := filepath.Join(o.build, fmt.Sprintf("profile-%d.pprof", os.Getpid()))
	var stop func() error
	if o.trace {
		var err error
		if stop, err = startProfile(path); err != nil {
			return ph, err
		}
		defer os.Remove(path)
	}
	var ms0, ms1 runtime.MemStats
	cpu0, err := procCPU(os.Getpid())
	if err != nil {
		return ph, err
	}
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	runErr := fn()
	ph.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	cpu1, err := procCPU(os.Getpid())
	if stop != nil {
		if stopErr := stop(); runErr == nil {
			runErr = stopErr
		}
	}
	if runErr != nil {
		return ph, runErr
	}
	if err != nil {
		return ph, err
	}
	ph.cpu = cpu1 - cpu0
	ph.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gcCycles = ms1.NumGC - ms0.NumGC
	if o.trace {
		exe, err := os.Executable()
		if err != nil {
			return ph, err
		}
		if ph.split, err = attribute(exe, path, profileHz); err != nil {
			return ph, err
		}
	}
	return ph, nil
}

// report stores the phase's runtime metrics for simSeconds of simulated
// time.
func (ph phase) report(vals map[string]float64, simSeconds float64) {
	vals["runtime.alloc_mb_per_sim_s"] = ratio(float64(ph.allocBytes)/1e6, simSeconds)
	vals["runtime.gc_cycles_per_sim_s"] = ratio(float64(ph.gcCycles), simSeconds)
	vals["experiments.core_util"] = ph.cpu.Seconds() / (ph.wall.Seconds() * float64(runtime.NumCPU()))
}

// startProfile begins sampling this process's CPU at profileHz into path.
// The returned function stops sampling and closes the file.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	// Setting the rate first makes StartCPUProfile keep it (it logs that
	// it cannot apply its own default).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
