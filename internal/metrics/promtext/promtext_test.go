package promtext

import (
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_requests_total", "Requests handled.")
	g := r.NewGauge("test_depth", "Queue depth.")
	r.NewGaugeFunc("test_capacity", "Queue capacity.", func() int64 { return 8 })
	cv := r.NewCounterFamily("test_jobs_total", "Jobs by state.", "state")
	h := r.NewHistogram("test_latency_seconds", "Run latency.", []float64{0.1, 1, 10})

	c.Add(3)
	g.Set(5)
	cv.Inc("done")
	cv.Inc("done")
	cv.Inc("canceled")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(100)

	got := render(t, r)
	want := `# HELP test_capacity Queue capacity.
# TYPE test_capacity gauge
test_capacity 8
# HELP test_depth Queue depth.
# TYPE test_depth gauge
test_depth 5
# HELP test_jobs_total Jobs by state.
# TYPE test_jobs_total counter
test_jobs_total{state="canceled"} 1
test_jobs_total{state="done"} 2
# HELP test_latency_seconds Run latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 1
test_latency_seconds_bucket{le="1"} 2
test_latency_seconds_bucket{le="10"} 2
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 100.55
test_latency_seconds_count 3
# HELP test_requests_total Requests handled.
# TYPE test_requests_total counter
test_requests_total 3
`
	if got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestExpositionDeterministic(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterFamily("x_total", "x", "k")
	for _, v := range []string{"b", "a", "c"} {
		cv.Inc(v)
	}
	r.NewCounter("a_total", "a")
	r.NewGauge("z", "z")
	first := render(t, r)
	for i := 0; i < 5; i++ {
		if got := render(t, r); got != first {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	if !strings.Contains(first, "x_total{k=\"a\"} 1\nx_total{k=\"b\"} 1\nx_total{k=\"c\"} 1") {
		t.Errorf("label values not sorted:\n%s", first)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h", "h", []float64{1, 2})
	// A sample exactly on a bound lands in that bound's bucket (le is <=).
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	got := render(t, r)
	for _, want := range []string{`h_bucket{le="1"} 1`, `h_bucket{le="2"} 2`, `h_bucket{le="+Inf"} 3`, "h_sum 6", "h_count 3"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewCounter("dup", "second")
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "c")
	g := r.NewGauge("g", "g")
	cv := r.NewCounterFamily("v_total", "v", "s")
	h := r.NewHistogram("h_seconds", "h", []float64{1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Inc()
				cv.Inc("a")
				h.Observe(0.5)
				var b strings.Builder
				_ = r.Write(&b)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || g.Value() != 8000 || cv.Value("a") != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: c=%d g=%d v=%d h=%d", c.Value(), g.Value(), cv.Value("a"), h.Count())
	}
}

func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	gv := r.NewGaugeFamily("test_worker_up", "Worker health.", "worker")
	gv.Set(1, "http://b:1")
	gv.Set(1, "http://a:1")
	gv.Set(0, "http://b:1")
	if got := gv.Value("http://a:1"); got != 1 {
		t.Errorf("Value(a) = %d, want 1", got)
	}
	if got := gv.Value("http://b:1"); got != 0 {
		t.Errorf("Value(b) = %d, want 0", got)
	}
	if got := gv.Value("http://never:1"); got != 0 {
		t.Errorf("Value(unset) = %d, want 0", got)
	}
	got := render(t, r)
	want := `# HELP test_worker_up Worker health.
# TYPE test_worker_up gauge
test_worker_up{worker="http://a:1"} 1
test_worker_up{worker="http://b:1"} 0
`
	if got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestCounterVec2(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterFamily("test_runs_total", "Runs by channel and policy.", "channel", "policy")
	cv.Inc("fading", "rcast")
	cv.Inc("disk", "rcast")
	cv.Inc("disk", "battery")
	cv.Inc("disk", "rcast")

	if got := cv.Value("disk", "rcast"); got != 2 {
		t.Fatalf("Value(disk,rcast) = %d, want 2", got)
	}
	if got := cv.Value("disk", "none"); got != 0 {
		t.Fatalf("Value of untouched pair = %d, want 0", got)
	}
	got := render(t, r)
	want := `# HELP test_runs_total Runs by channel and policy.
# TYPE test_runs_total counter
test_runs_total{channel="disk",policy="battery"} 1
test_runs_total{channel="disk",policy="rcast"} 2
test_runs_total{channel="fading",policy="rcast"} 1
`
	if got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestCounterVec2Concurrent(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterFamily("test_conc_total", "Concurrency check.", "a", "b")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				cv.Inc("x", "y")
			}
		}()
	}
	wg.Wait()
	if got := cv.Value("x", "y"); got != 8000 {
		t.Fatalf("Value = %d, want 8000", got)
	}
}

func TestGaugeFuncVec2SortedOutput(t *testing.T) {
	r := NewRegistry()
	r.NewGaugeFuncFamily("demo_events", "Demo family.", []string{"scheme", "kind"}, func() []Sample {
		// Deliberately unsorted: the writer must order by label values.
		return []Sample{
			{Values: []string{"psm", "wake"}, V: 3},
			{Values: []string{"always-on", "deliver"}, V: 7},
			{Values: []string{"psm", "deliver"}, V: 5},
		}
	})
	want := `# HELP demo_events Demo family.
# TYPE demo_events gauge
demo_events{scheme="always-on",kind="deliver"} 7
demo_events{scheme="psm",kind="deliver"} 5
demo_events{scheme="psm",kind="wake"} 3
`
	if got := render(t, r); got != want {
		t.Fatalf("exposition mismatch:\n got: %q\nwant: %q", got, want)
	}
}

func TestGaugeFuncVec2Empty(t *testing.T) {
	r := NewRegistry()
	r.NewGaugeFuncFamily("empty_fam", "Empty family.", []string{"a", "b"}, func() []Sample { return nil })
	want := "# HELP empty_fam Empty family.\n# TYPE empty_fam gauge\n"
	if got := render(t, r); got != want {
		t.Fatalf("exposition mismatch: %q", got)
	}
}

func TestFamilyAddAndLabelCount(t *testing.T) {
	r := NewRegistry()
	f := r.NewCounterFamily("cells_total", "Cells by source.", "source")
	f.Add(3, "computed")
	f.Inc("computed")
	if got := f.Value("computed"); got != 4 {
		t.Fatalf("Value = %d, want 4", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label count did not panic")
		}
	}()
	f.Inc("computed", "extra")
}
