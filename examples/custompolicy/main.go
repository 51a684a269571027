// Custom policy: the overhearing decision is a small pluggable interface
// (paper §3.2 lists four candidate factors; §5 leaves them as future work).
// This example implements a user-defined policy — a deterministic duty
// cycle that overhears every k-th opportunity — and compares it against
// the built-ins.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"rcast"
)

// dutyCycle overhears exactly one in every Period randomized
// advertisements, a deterministic alternative to the paper's coin flip.
type dutyCycle struct {
	Period int
	count  int
}

func (d *dutyCycle) AdvertiseLevel(c rcast.Class) rcast.Level {
	if c == rcast.ClassRERR {
		return rcast.LevelUnconditional
	}
	if c == rcast.ClassData || c == rcast.ClassRREP {
		return rcast.LevelRandomized
	}
	return rcast.LevelUnconditional
}

// OverhearProbability is asked once per randomized advertisement; it
// answers with certainty, so the simulator draws no coin for it.
func (d *dutyCycle) OverhearProbability(rcast.ListenContext) float64 {
	d.count++
	if d.count%d.Period == 0 {
		return 1
	}
	return 0
}

func (d *dutyCycle) Name() string { return fmt.Sprintf("duty-1/%d", d.Period) }

// Reads declares that the decision consults no ListenContext field, so the
// simulator skips computing the neighbor count for it.
func (d *dutyCycle) Reads() rcast.Reads { return 0 }

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run simulates each policy on the same cell and writes one table row per
// policy to w.
func run(w io.Writer) error {
	fmt.Fprintln(w, "Custom overhearing policies on the Rcast stack (40 nodes, 200 s)")
	fmt.Fprintf(w, "%-12s %10s %8s %10s\n", "policy", "energy(J)", "PDR", "overhead")

	policies := []rcast.Policy{
		rcast.PolicyRcast,
		rcast.PolicySenderID,
		rcast.PolicyCombined,
		&dutyCycle{Period: 8},
	}
	for _, pol := range policies {
		cfg := rcast.PaperDefaults()
		cfg.Scheme = rcast.SchemeRcast
		cfg.Policy = pol
		cfg.Nodes = 40
		cfg.FieldW = 900
		cfg.Connections = 8
		cfg.PacketRate = 0.5
		cfg.Duration = 200 * rcast.Second
		cfg.Pause = 100 * rcast.Second

		res, err := rcast.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %10.0f %7.1f%% %10.2f\n",
			pol.Name(), res.TotalJoules, 100*res.PDR, res.NormalizedOverhead)
	}
	return nil
}
