// Command tracediff locates the first behavioural divergence between two
// simulation runs by diffing their packet-lifecycle traces.
//
// It has two modes. In run mode it builds two configs — side A from
// PaperDefaults and rcast-sim's config flags (every knob of the scenario
// field table), side B from the same base with any `-*-b` override
// applied — runs both with an in-memory trace recorder, and reports the
// first event where the traces differ. The defaults are the full 1125 s
// paper cell, so the examples pass a small one:
//
//	tracediff -nodes 25 -duration 30s -seed-b 2        # two seeds of one config
//	tracediff -nodes 25 -duration 30s -scheme PSM -scheme-b Rcast
//	tracediff -nodes 25 -duration 30s -routing AODV -faults all -audit-b   # audit-on vs audit-off (should be identical)
//
// In file mode it diffs two NDJSON traces captured earlier with
// `rcast-sim -trace` or downloaded from `rcast-serve`:
//
//	tracediff -a run1.jsonl -b run2.jsonl
//
// Exit status: 0 when the traces are identical, 1 on divergence, 2 on
// usage or execution errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rcast/internal/scenario"
	"rcast/internal/trace"
)

func main() {
	diverged, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracediff:", err)
	}
	os.Exit(exitCode(diverged, err))
}

// exitCode maps a run outcome to the documented process exit status:
// 0 identical, 1 diverged, 2 usage or execution error.
func exitCode(diverged bool, err error) int {
	switch {
	case err != nil:
		return 2
	case diverged:
		return 1
	}
	return 0
}

func run(args []string, out io.Writer) (bool, error) {
	fs := flag.NewFlagSet("tracediff", flag.ContinueOnError)
	applyConfig := scenario.RegisterFlags(fs)
	var (
		aFile = fs.String("a", "", "side A: NDJSON trace file (file mode; requires -b)")
		bFile = fs.String("b", "", "side B: NDJSON trace file (file mode; requires -a)")

		schemeB = fs.String("scheme-b", "", "side B scheme override")
		rateB   = fs.Float64("rate-b", 0, "side B packet rate override")
		seedB   = fs.Int64("seed-b", 0, "side B seed override")
		gossipB = fs.Float64("gossip-b", 0, "side B gossip fanout override")
		auditB  = fs.Bool("audit-b", false, "side B audit override")

		context = fs.Int("context", 3, "common events to print before the divergence")
	)
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if (*aFile == "") != (*bFile == "") {
		return false, fmt.Errorf("file mode needs both -a and -b")
	}

	var (
		evA, evB []trace.Event
		err      error
	)
	if *aFile != "" {
		if evA, err = readFile(*aFile); err != nil {
			return false, err
		}
		if evB, err = readFile(*bFile); err != nil {
			return false, err
		}
	} else {
		cfgA := scenario.PaperDefaults()
		if err = applyConfig(&cfgA); err != nil {
			return false, err
		}

		// Side B starts as a copy of A; only explicitly passed -*-b flags
		// override it, so `tracediff -seed-b 2` compares seeds and nothing
		// else.
		cfgB := cfgA
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if set["scheme-b"] {
			s, err := scenario.ParseScheme(*schemeB)
			if err != nil {
				return false, err
			}
			cfgB.Scheme = s
		}
		if set["rate-b"] {
			cfgB.PacketRate = *rateB
		}
		if set["seed-b"] {
			cfgB.Seed = *seedB
		}
		if set["gossip-b"] {
			cfgB.GossipFanout = *gossipB
		}
		if set["audit-b"] {
			cfgB.Audit = *auditB
		}

		if evA, err = record(cfgA); err != nil {
			return false, fmt.Errorf("side A: %w", err)
		}
		if evB, err = record(cfgB); err != nil {
			return false, fmt.Errorf("side B: %w", err)
		}
	}

	d, diverged := trace.Diff(evA, evB)
	if !diverged {
		fmt.Fprintf(out, "traces identical: %d events\n", len(evA))
		return false, nil
	}
	report(out, evA, evB, d, *context)
	return true, nil
}

// record runs one simulation with an in-memory trace recorder attached
// and returns its event stream.
func record(cfg scenario.Config) ([]trace.Event, error) {
	rec := trace.NewRecorder()
	cfg.Trace = rec
	if _, err := scenario.Run(cfg); err != nil {
		return nil, err
	}
	return rec.Events(), nil
}

func readFile(path string) ([]trace.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	evs, err := trace.ReadEvents(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return evs, nil
}
