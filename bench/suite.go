package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"rcast"
	"rcast/internal/experiments"
	"rcast/internal/sim"
)

// suiteWorkers is the experiment runner's fan-out. One worker keeps the
// suite's simulations to one core of the 2-core baseline host: with two,
// they share the host with the runtime and the system, and ten runs of
// the suite spread 12% against 3% with one, interleaved in one window.
const suiteWorkers = 1

// quickProfile is the profile the suite runs: experiments.Quick, or a
// 20-node, 30 s version of it for the smoke test. Its inputs are fixed:
// the suite users run has one base seed.
func quickProfile(toy bool) experiments.Profile {
	p := experiments.Quick()
	if toy {
		p.Nodes, p.FieldW, p.Connections = 20, 600, 4
		p.Duration, p.PauseMobile = 30*sim.Second, 15*sim.Second
	}
	return p
}

// runQuickSuite regenerates every table and figure of the profile and
// returns its stdout and how many simulations it ran.
func runQuickSuite(p experiments.Profile) ([]byte, int64, error) {
	var buf bytes.Buffer
	s := experiments.NewSuite(p, &buf)
	s.SetWorkers(suiteWorkers)
	if err := s.All(); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), s.SimRuns(), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func runSuiteWorkload(o runOpts) (*outcome, error) {
	out := newOutcome()
	p := quickProfile(o.toy)
	var refWall float64
	if o.trace {
		start := time.Now()
		if _, _, err := runQuickSuite(p); err != nil {
			return nil, err
		}
		refWall = time.Since(start).Seconds()
	} else {
		// Set-up is building one world of the profile's shape, which each
		// of the suite's runs does.
		setup, err := medianOf(5, 41, func() error {
			cfg := rcast.PaperDefaults()
			cfg.Nodes, cfg.FieldW, cfg.FieldH, cfg.Connections = p.Nodes, p.FieldW, p.FieldH, p.Connections
			cfg.Pause = p.PauseMobile
			cfg.TrafficStart, cfg.Duration = 0, rcast.Millisecond
			_, err := rcast.Run(cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		out.vals["setup_s"] = setup
	}

	var (
		walls []float64
		runs  int64
	)
	ph, err := measure(o, func() error {
		return passes([]int64{0}, o.seconds, func(int64) error {
			start := time.Now()
			stdout, n, err := runQuickSuite(p)
			if err != nil {
				return err
			}
			walls = append(walls, time.Since(start).Seconds())
			runs += n
			out.attempted++
			if got := digest(stdout); !o.toy && got != pinned.QuickSuite {
				out.check(fmt.Errorf("quick suite stdout digest %s, pinned %s", got, pinned.QuickSuite))
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	var wallSum float64
	for _, w := range walls {
		wallSum += w
	}
	simSeconds := float64(runs) * p.Duration.Seconds()
	out.vals["sim_s_per_wall_s"] = simSeconds / wallSum
	out.series("suite wall (s)", walls)
	out.vals["experiments.runs"] = float64(runs) / float64(len(walls))
	ph.report(out.vals, simSeconds)
	if o.trace {
		// The suite's results stay inside experiments.Suite, so there are
		// no work counts to divide by: only the shares are reported.
		reportSplit(out.vals, ph.split, workCounts{})
		out.vals["profile.overhead_ratio"] = median(walls) / refWall
	}
	if err := out.peakRSS(os.Getpid()); err != nil {
		return nil, err
	}
	return out, nil
}
