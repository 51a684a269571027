package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json the repeatability mode reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(root string) (spec, error) {
	var s spec
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}

// setsReport is what -out writes: every run's end-to-end values, by
// workload, metric and set, and each pairing's verdict.
type setsReport struct {
	Host     map[string]string                       `json:"host"`
	Seconds  float64                                 `json:"seconds"`
	Reps     int                                     `json:"reps"`
	Values   map[string]map[string][][]float64       `json:"values"`
	Verdicts map[string]map[string]metricRepeatStats `json:"verdicts"`
}

type metricRepeatStats struct {
	Medians []float64 `json:"medians"`
	Spreads []float64 `json:"spreads"` // interquartile distance ÷ median
	Worse   float64   `json:"worse"`   // worst later-set median vs the first, in the bad direction
	Bound   float64   `json:"bound"`
	OK      bool      `json:"ok"`
}

// repsPerSet is how many runs of each workload a set makes, each with its
// own seed: ten, enough for quartiles that one outlying run cannot move.
const repsPerSet = 10

// repeat runs every workload repsPerSet times per set, each run its own
// subprocess with its own seed, alternating the workload order between
// sets. It fails when a metric's spread within a set (setup_s excepted)
// or the shift of a later set's median from the first set's, in the
// metric's bad direction, exceeds the metric's bound.
func repeat(o runOpts, sets int, outPath string) int {
	sp, err := readSpec(o.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcastbench: BENCHMARK.json:", err)
		return 1
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcastbench:", err)
		return 1
	}
	rep := setsReport{
		Host: map[string]string{
			"nproc":      strconv.Itoa(runtime.NumCPU()),
			"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
			"go":         runtime.Version(),
			"cpu":        cpuModel(),
		},
		Seconds:  o.seconds,
		Reps:     repsPerSet,
		Values:   make(map[string]map[string][][]float64),
		Verdicts: make(map[string]map[string]metricRepeatStats),
	}
	failures := 0
	for set := 0; set < sets; set++ {
		order := append([]string(nil), names...)
		if set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			for r := 0; r < repsPerSet; r++ {
				seed := int64(set*repsPerSet + r + 1)
				res, err := runChild(exe, w, seed, o)
				if err == nil && !res.Correct {
					err = fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
				}
				if err != nil {
					failures++
					fmt.Fprintf(os.Stderr, "set %d %s seed %d: %v\n", set+1, w, seed, err)
					continue
				}
				if rep.Values[w] == nil {
					rep.Values[w] = make(map[string][][]float64)
				}
				var line []string
				for _, m := range sp.EndToEnd {
					vs := rep.Values[w][m.Name]
					for len(vs) <= set {
						vs = append(vs, nil)
					}
					vs[set] = append(vs[set], res.Metrics[m.Name].Value)
					rep.Values[w][m.Name] = vs
					line = append(line, fmt.Sprintf("%s=%.4g", m.Name, res.Metrics[m.Name].Value))
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d: %s\n", set+1, w, seed, strings.Join(line, " "))
			}
		}
	}

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tmedians\tspreads\tworse\tbound\tverdict\t")
	for _, w := range names {
		rep.Verdicts[w] = make(map[string]metricRepeatStats)
		for _, m := range sp.EndToEnd {
			st := metricRepeatStats{Bound: m.Bound, OK: true}
			for _, vs := range rep.Values[w][m.Name] {
				st.Medians = append(st.Medians, median(vs))
				st.Spreads = append(st.Spreads, relSpread(vs))
			}
			for k, med := range st.Medians {
				if k > 0 {
					shift := (med - st.Medians[0]) / st.Medians[0]
					if m.Better == "higher" {
						shift = -shift
					}
					st.Worse = max(st.Worse, shift)
				}
				if m.Name != "setup_s" && st.Spreads[k] > m.Bound {
					st.OK = false
				}
			}
			if st.Worse > m.Bound || len(st.Medians) < sets {
				st.OK = false
			}
			verdict := "ok"
			if !st.OK {
				verdict = "OUT OF BOUND"
				failures++
			}
			rep.Verdicts[w][m.Name] = st
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\t\n", w, m.Name,
				joinG(st.Medians, "%.4g"), joinG(st.Spreads, "%.1f%%", 100), 100*st.Worse, 100*m.Bound, verdict)
		}
	}
	tw.Flush()
	fmt.Printf("host: nproc=%s GOMAXPROCS=%s %s, %s\n", rep.Host["nproc"], rep.Host["gomaxprocs"], rep.Host["go"], rep.Host["cpu"])
	if outPath != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "rcastbench:", err)
			return 1
		}
	}
	if failures > 0 {
		return 1
	}
	return 0
}

func joinG(xs []float64, format string, scale ...float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		for _, s := range scale {
			x *= s
		}
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " / ")
}

// runChild runs one workload in a subprocess of this binary and parses
// the JSON result on the last line of its output.
func runChild(exe, workload string, seed int64, o runOpts) (result, error) {
	var res result
	var stdout bytes.Buffer
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", "0",
		"-root", o.root, "-build", o.build)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// cpuModel names the host's processor, for the record.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
