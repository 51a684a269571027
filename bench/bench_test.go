package main

import (
	"math"
	"os"
	"strings"
	"testing"

	"rcast"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestTailReportsOnlyPercentilesWithTenSamplesBeyond(t *testing.T) {
	for n := 0; n < 20; n++ {
		if pct, _, ok := tail(seq(n)); ok {
			t.Errorf("n=%d: reported p%v; want nothing beyond the median below 20 samples", n, pct)
		}
	}
	for n := 20; n <= 300; n++ {
		xs := seq(n)
		pct, v, ok := tail(xs)
		if !ok {
			t.Fatalf("n=%d: no tail percentile", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != 10 {
			t.Errorf("n=%d: p%.2f=%v has %d samples beyond it, want 10", n, pct, v, beyond)
		}
		if want := 100 * float64(n-10) / float64(n); pct != want {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
	if pct, v, _ := tail(seq(100)); pct != 90 || v != 90 {
		t.Errorf("n=100: p%v=%v, want p90=90", pct, v)
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	if m := median(seq(5)); m != 3 {
		t.Errorf("median of 1..5 = %v", m)
	}
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median of 1..4 = %v", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 8.25];
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25].
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{{seq(10), 2.75, 8.25}, {seq(2), 0.75, 2.25}} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestParseTracesChargesNearestLayer(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	split, err := parseTraces(f, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"propagation": 0.30, // math.Pow under propagation.(*Fading)
		"phy":         0.15,
		"sim":         0.05, // generic wheel method
		"mobility":    0.10, // geom
		"dsr":         0.10, // routing/dsr
		"runtime":     0.05, // GC worker, no rcast frame
		"trace":       0.05, // allocation charged to the allocating layer
		"serve":       0.10, // net/http plumbing and metrics/promtext
		"bench":       0.05, // the harness's own hashing
		"mac":         0.05, // overhearing policy in core
	}
	sum := 0.0
	for _, l := range layers {
		got := split.share(l)
		sum += got
		if math.Abs(got-want[l]) > 1e-9 {
			t.Errorf("%s share %v, want %v", l, got, want[l])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if split.samples != 100 {
		t.Errorf("samples %d, want 100 at 100 Hz", split.samples)
	}
}

func TestParseTracesRejectsShortBlocks(t *testing.T) {
	b, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	// Dropping the first stack leaves the blocks 30% short of the header.
	text := string(b)
	first := strings.Index(text, "-----------+")
	second := first + 1 + strings.Index(text[first+1:], "-----------+")
	if _, err := parseTraces(strings.NewReader(text[:first]+text[second:]), 100); err == nil {
		t.Error("a profile missing a stack parsed without error")
	}
}

func TestVerifyRejectsUnpinnedResult(t *testing.T) {
	w := cellWorkloads["paper-rcast"]
	if err := w.verify(cellRun{seed: 1, res: &rcast.Result{}}, false); err == nil {
		t.Error("a result that differs from its pin verified")
	}
	if err := w.verify(cellRun{seed: 99, res: &rcast.Result{}}, false); err == nil {
		t.Error("a seed with no pin verified")
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at toy size (cells
// of 20 nodes for 30 s), timed and profiled, and checks each emits every
// metric BENCHMARK.json declares, with its unit.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	sp, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range sp.EndToEnd {
		declared[false][m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		declared[true][m.Name] = m.Unit
	}
	for _, trace := range []bool{false, true} {
		defs := metricDefs(trace)
		if len(defs) != len(declared[trace]) {
			t.Errorf("trace=%v: program defines %d metrics, BENCHMARK.json declares %d", trace, len(defs), len(declared[trace]))
		}
		for _, d := range defs {
			if unit, ok := declared[trace][d.name]; !ok || unit != d.unit {
				t.Errorf("metric %s %s is declared as %q (declared: %v)", d.name, d.unit, unit, ok)
			}
		}
	}

	build := t.TempDir()
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := runOpts{seed: 1, seconds: 0.2, trace: trace, toy: true, root: "..", build: build}
			if trace {
				o.seconds = 0.5 // enough samples to split by layer
			}
			out, err := lookup(name)(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res, err := out.result(trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", name, trace, res.Failed, res.Attempted)
			}
			for metric, unit := range declared[trace] {
				if got, ok := res.Metrics[metric]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s missing or not in %s", name, trace, metric, unit)
				}
			}
		}
	}
}
