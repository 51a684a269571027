// Command perfsmoke is the CI performance gate: it times fixed simulation
// cells and fails if any got more than 30% slower than its committed
// baseline. Each cell is scored and gated on its own:
//
//   - static-3-node: a 3-node cell with steady CBR traffic, for the event
//     kernel;
//   - route-learning-100: 100 always-on static nodes at 2 pkt/s for 150 s,
//     whose route caches fill and then reject almost every overheard
//     route, for DSR route learning;
//   - paper-rcast-100: the paper's own cell (100 mobile nodes, Rcast over
//     DSR, 1125 s), for what a paper run exercises together: PSM beacons
//     and ATIM reach, the overhearing lottery's neighbor counts and the
//     PHY's reach lists under mobility;
//   - world-setup-100: the same world built and run for 1 ms with traffic
//     from t=0, for set-up, which is mostly allocating the nodes'
//     routers, caches, MACs and hooks (the RNG streams defer their
//     state). One ~0.4 ms build is too short to time alone, so each run
//     times a batch of builds;
//   - shadowing-rcast-40: ablation A9's quick-profile shadowing ×
//     Gauss–Markov Rcast cell (40 nodes, 900×300 m, 150 s), for the reach
//     lists' per-link radii under a random channel. One ~45 ms run is
//     short, so each timing runs a batch of four.
//
// Raw wall-clock time is useless as a committed number — CI machines
// differ by far more than any regression worth catching. Instead the gate
// normalizes: it times a fixed pure-Go calibration workload (the retained
// heap-oracle scheduler churning a large timer population) on the same
// machine in the same process, and scores the simulation as
//
//	score = calibration_time / simulation_time
//
// The calibration and the 3-node cell are dominated by the same kind of
// work (pointer-heavy event dispatch), so that ratio is stable across
// machines while still moving one-for-one with real event-kernel
// regressions.
//
// On a shared host the machine's speed drifts within seconds, so a
// calibration timed once, apart from the cell, drifts away from it. Each
// cell is therefore timed as five calibration/cell pairs, run back to
// back with the order swapped every pair, and scored on the median of
// its five paired ratios. The gate also runs on one core
// (GOMAXPROCS=1): the simulation is single-threaded anyway, and with a
// second core the garbage collector's background workers run there,
// where another tenant's load slows the allocation-heavy cells and not
// the calibration (on a 2-vCPU VM, world-setup-100's median ratio read
// 1.8-2.3 on two cores against 2.8-3.3 on one, over four alternating
// runs). Every baseline score is the median of nine -write runs.
//
// Usage:
//
//	go run ./tools/perfsmoke          # enforce against tools/perfsmoke/baseline.json
//	go run ./tools/perfsmoke -write   # regenerate the baseline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"rcast"
	"rcast/internal/sim"
)

const (
	baselineFile = "tools/perfsmoke/baseline.json"
	// Burstable CI containers show ±20% score wobble run to run, so the
	// tolerance sits above the noise; any regression worth catching (a
	// scheduler or allocation-path slip) moves the score by far more.
	maxRegress = 0.30 // fail when score drops >30% below baseline
	pairs      = 5    // calibration/cell timing pairs per cell
)

type baseline struct {
	Scores  map[string]float64 `json:"scores"`  // cell name -> calibration_time / simulation_time
	Comment string             `json:"comment"` // provenance note
}

// cell is one gated simulation, run batch times (once when batch is 0)
// per timing.
type cell struct {
	name  string
	cfg   func() rcast.Config
	batch int
}

var cells = []cell{
	{"static-3-node", func() rcast.Config {
		cfg := rcast.PaperDefaults()
		cfg.Nodes = 3
		cfg.FieldW, cfg.FieldH = 200, 200
		cfg.Connections = 2
		cfg.PacketRate = 8
		cfg.Duration = rcast.Seconds(3600)
		cfg.Pause = rcast.Seconds(3600) // static cell
		return cfg
	}, 0},
	{"route-learning-100", func() rcast.Config {
		cfg := rcast.PaperDefaults()
		cfg.Scheme = rcast.SchemeAlwaysOn
		cfg.PacketRate = 2
		cfg.Duration = rcast.Seconds(150)
		cfg.Pause = cfg.Duration // static cell
		return cfg
	}, 0},
	{"paper-rcast-100", rcast.PaperDefaults, 0},
	{"world-setup-100", func() rcast.Config {
		cfg := rcast.PaperDefaults()
		cfg.TrafficStart = 0
		cfg.Duration = rcast.Millisecond
		return cfg
	}, 50},
	{"shadowing-rcast-40", func() rcast.Config {
		cfg := rcast.PaperDefaults()
		cfg.Nodes = 40
		cfg.FieldW, cfg.FieldH = 900, 300
		cfg.Connections = 8
		cfg.Duration = rcast.Seconds(150)
		cfg.Pause = rcast.Seconds(75)
		cfg.Channel, cfg.Mobility = "shadowing", "gauss-markov"
		return cfg
	}, 4},
}

// calibrate runs the fixed reference workload: the heap-oracle scheduler
// scheduling and draining a pseudo-random timer population. This code is
// frozen (it exists as a differential oracle), so its timing only moves
// when the machine does.
func calibrate() error {
	s := sim.NewHeapScheduler()
	fn := func() {}
	x := uint64(12345)
	for i := 0; i < 300_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		s.After(sim.Time(x%100_000), fn)
		if i%4 == 0 {
			s.Step()
		}
	}
	s.Run()
	return nil
}

// timed returns how long f took. It collects garbage first, so neither
// side of a pair pays for the other's heap.
func timed(f func() error) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// score times pairs calibration/cell pairs, the calibration first in even
// pairs and second in odd ones, and returns the median calibration/cell
// ratio with the lowest and highest.
func score(c cell) (med, lo, hi float64, err error) {
	cfg := c.cfg()
	runCell := func() error {
		for range max(c.batch, 1) {
			if _, err := rcast.RunReplications(cfg, 1); err != nil {
				return err
			}
		}
		return nil
	}
	ratios := make([]float64, pairs)
	for i := range ratios {
		first, second := calibrate, runCell
		if i%2 == 1 {
			first, second = runCell, calibrate
		}
		t1, err := timed(first)
		if err != nil {
			return 0, 0, 0, err
		}
		t2, err := timed(second)
		if err != nil {
			return 0, 0, 0, err
		}
		if i%2 == 1 {
			t1, t2 = t2, t1
		}
		ratios[i] = t1.Seconds() / t2.Seconds()
	}
	sort.Float64s(ratios)
	return ratios[pairs/2], ratios[0], ratios[pairs-1], nil
}

func main() {
	write := flag.Bool("write", false, "regenerate "+baselineFile+" from the current run instead of comparing")
	flag.Parse()
	runtime.GOMAXPROCS(1)

	scores := make(map[string]float64, len(cells))
	for _, c := range cells {
		med, lo, hi, err := score(c)
		if err != nil {
			fail(fmt.Errorf("%s: %w", c.name, err))
		}
		scores[c.name] = med
		fmt.Printf("perfsmoke: %s: score %.3f (paired ratios %.3f-%.3f)\n", c.name, med, lo, hi)
	}

	if *write {
		b := baseline{Scores: scores, Comment: "median of 5 paired heap-oracle calibration/cell ratios per cell; regenerate with go run ./tools/perfsmoke -write"}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(baselineFile, append(data, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Println("perfsmoke: wrote baseline scores")
		return
	}

	data, err := os.ReadFile(baselineFile)
	if err != nil {
		fail(fmt.Errorf("no baseline — run with -write first: %w", err))
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		fail(fmt.Errorf("bad baseline: %w", err))
	}
	failed := false
	for _, c := range cells {
		base, ok := b.Scores[c.name]
		if !ok {
			fail(fmt.Errorf("no baseline score for cell %s — run with -write", c.name))
		}
		floor := base * (1 - maxRegress)
		if score := scores[c.name]; score < floor {
			fmt.Fprintf(os.Stderr, "perfsmoke: %s: FAIL — score %.3f is below floor %.3f (baseline %.3f, tolerance %d%%)\n",
				c.name, score, floor, base, int(maxRegress*100))
			failed = true
			continue
		}
		fmt.Printf("perfsmoke: %s: OK (baseline %.3f, floor %.3f)\n", c.name, base, floor)
	}
	if failed {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfsmoke:", err)
	os.Exit(1)
}
