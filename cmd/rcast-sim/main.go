// Command rcast-sim runs one MANET simulation and prints its metrics.
//
// Examples:
//
//	rcast-sim -scheme Rcast -rate 0.4 -pause 600s
//	rcast-sim -scheme ODPM -rate 2.0 -static -nodes 100 -duration 1125s
//	rcast-sim -scheme Rcast -per-node   # dump per-node energy and roles
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"rcast"
	"rcast/internal/profiling"
	"rcast/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rcast-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rcast-sim", flag.ContinueOnError)
	cfg := rcast.PaperDefaults()
	applyConfig := scenario.RegisterFlags(fs)
	var (
		reps       = fs.Int("reps", 1, "replications (per-rep seeds mixed from -seed)")
		perNode    = fs.Bool("per-node", false, "dump per-node energy and role numbers")
		traceFile  = fs.String("trace", "", "write NDJSON event trace to this file")
		replayFile = fs.String("replay", "", "replay a recorded NDJSON trace: re-execute with its decisions injected and verify byte-identity (requires the recording run's flags; -reps must be 1)")
		workers    = fs.Int("workers", 0, "parallel replication workers (0 = all CPUs, 1 = serial)")
		timeout    = fs.Duration("timeout", 0, "wall-clock budget for the whole run (0 = unlimited); an expired budget aborts mid-simulation")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a pprof allocation profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopCPU, err := profiling.StartCPU(*cpuProfile)
	if err != nil {
		return err
	}
	defer stopCPU()
	defer func() {
		if err := profiling.WriteHeap(*memProfile); err != nil {
			fmt.Fprintln(os.Stderr, "rcast-sim:", err)
		}
	}()

	if err := applyConfig(&cfg); err != nil {
		return err
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		// Buffered: one write syscall per traced event would dominate the
		// run otherwise.
		bw := bufio.NewWriterSize(f, 1<<20)
		defer bw.Flush()
		cfg.Trace = rcast.NewTraceWriter(bw)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var agg *rcast.Aggregate
	if *replayFile != "" {
		// Replay mode: re-execute the recorded run with its decision
		// stream injected. Replication 0 runs with cfg.Seed itself, so a
		// single-replication replay matches the recording run exactly;
		// more than one replication has no recorded counterpart.
		if *reps != 1 {
			return fmt.Errorf("-replay requires -reps 1 (a trace records one run)")
		}
		f, err := os.Open(*replayFile)
		if err != nil {
			return err
		}
		events, err := rcast.ReadTraceEvents(bufio.NewReaderSize(f, 1<<20))
		f.Close()
		if err != nil {
			return err
		}
		res, _, err := rcast.Replay(cfg, events)
		if err != nil {
			return err
		}
		agg = rcast.AggregateResults([]*rcast.Result{res})
	} else {
		var err error
		agg, err = rcast.RunReplicationsContext(ctx, cfg, *reps, *workers)
		if err != nil {
			return err
		}
	}
	res := agg.Results[0]

	fmt.Printf("scheme            %v\n", cfg.Scheme)
	fmt.Printf("nodes             %d on %.0fx%.0f m, range %.0f m\n", cfg.Nodes, cfg.FieldW, cfg.FieldH, cfg.RangeM)
	fmt.Printf("traffic           %d CBR x %.2f pkt/s x %d B, %.0f s\n",
		cfg.Connections, cfg.PacketRate, cfg.PacketBytes, cfg.Duration.Seconds())
	fmt.Printf("replications      %d\n", *reps)
	// Printed only off the defaults so default invocations keep their
	// historical byte-identical stdout.
	if cfg.Channel != "disk" || cfg.Mobility != "waypoint" {
		fmt.Printf("models            channel %s, mobility %s\n", cfg.Channel, cfg.Mobility)
	}
	if cfg.PolicyName != "" || cfg.TxPowerDBm != 0 {
		fmt.Printf("overhearing       policy %s, tx power %+.1f dB\n", cfg.EffectivePolicyName(), cfg.TxPowerDBm)
	}
	fmt.Println()
	fmt.Printf("packet delivery   %.2f%% ± %.2f\n", 100*agg.PDR.Mean(), 100*agg.PDR.CI95())
	fmt.Printf("avg delay         %.3f s\n", agg.AvgDelaySec.Mean())
	fmt.Printf("total energy      %.0f J (%.1f J/node)\n",
		agg.TotalJoules.Mean(), agg.TotalJoules.Mean()/float64(cfg.Nodes))
	fmt.Printf("energy variance   %.1f J^2\n", agg.EnergyVariance.Mean())
	fmt.Printf("energy per bit    %.3e J/bit\n", agg.EnergyPerBit.Mean())
	fmt.Printf("routing overhead  %.2f control tx per delivered packet\n", agg.NormalizedOverhead.Mean())
	fmt.Printf("delay p50/p95     %.3f / %.3f s, mean hops %.2f\n",
		res.DelayP50Sec, res.DelayP95Sec, res.MeanHops)
	if cfg.BatteryJoules > 0 {
		fmt.Printf("network lifetime  first death %.0f s, %d/%d nodes dead\n",
			res.FirstDeath.Seconds(), res.DeadNodes, cfg.Nodes)
	}
	if cfg.Faults != nil {
		fmt.Printf("fault injection   %d crashes, %d recoveries, %d pkts flushed, %d frames burst-lost\n",
			res.NodeCrashes, res.NodeRecoveries, res.CrashFlushedPackets, res.Channel.FaultLost)
	}
	fmt.Printf("drops             %v\n", res.Drops)
	fmt.Printf("channel           %d tx, %d collisions, %d missed asleep\n",
		res.Channel.Transmissions, res.Channel.Collisions, res.Channel.MissedAsleep)
	if cfg.Channel != "disk" {
		fmt.Printf("channel losses    %d chan-lost\n", res.Channel.ChannelLost)
	}

	if *perNode {
		fmt.Println("\nnode  joules    role")
		type row struct {
			id     int
			joules float64
			role   float64
		}
		rows := make([]row, len(res.PerNodeJoules))
		for i := range rows {
			rows[i] = row{id: i, joules: res.PerNodeJoules[i], role: res.RoleNumbers[i]}
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].joules < rows[j].joules })
		for _, r := range rows {
			fmt.Printf("%4d  %8.1f  %6.0f\n", r.id, r.joules, r.role)
		}
	}
	return nil
}
