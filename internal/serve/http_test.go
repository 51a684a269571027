package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rcast/internal/scenario"
	"rcast/internal/trace"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		shutdownServer(t, s)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, Status) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /api/v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var st Status
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("decode submit response %q: %v", raw, err)
		}
	}
	return resp, st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status: %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

func waitHTTPTerminal(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not terminate", id)
	return Status{}
}

const quickBody = `{"scheme":"Rcast","nodes":12,"connections":3,"duration_sec":10,"static":true,"reps":1}`

func TestHTTPSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})

	resp, st := postJob(t, ts, quickBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if st.ID == "" || len(st.Key) != 64 {
		t.Fatalf("submit response %+v", st)
	}

	// Result before completion may 409; after terminal it must be 200.
	final := waitHTTPTerminal(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	resp2, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET result status = %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Rcast-Key"); got != st.Key {
		t.Fatalf("result key header %q, want %q", got, st.Key)
	}
	var jr JobResult
	if err := json.NewDecoder(resp2.Body).Decode(&jr); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if jr.V != scenario.CanonicalVersion || jr.Key != st.Key || jr.Reps != 1 || len(jr.Results) != 1 {
		t.Fatalf("result envelope v=%d key=%s reps=%d n=%d", jr.V, jr.Key, jr.Reps, len(jr.Results))
	}
	if jr.Summary.PDRMean <= 0 || jr.Summary.PDRMean > 1 {
		t.Fatalf("implausible PDR %v", jr.Summary.PDRMean)
	}

	// Listing contains the job.
	resp3, err := http.Get(ts.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatalf("GET list: %v", err)
	}
	defer resp3.Body.Close()
	var all []Status
	if err := json.NewDecoder(resp3.Body).Decode(&all); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	if len(all) != 1 || all[0].ID != st.ID {
		t.Fatalf("list %+v", all)
	}
}

// TestHTTPParityWithCLIPath is the server-vs-CLI determinism pin over the
// real wire: bytes fetched from /result equal MarshalResult of a direct
// RunReplicationsContext call with the same resolved config.
func TestHTTPParityWithCLIPath(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8, SimWorkers: 2})

	body := `{"scheme":"ODPM","nodes":12,"connections":3,"duration_sec":10,"static":true,"reps":2,"seed":7}`
	resp, st := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if fin := waitHTTPTerminal(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("job ended %s: %s", fin.State, fin.Error)
	}
	resp2, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp2.Body.Close()
	got, _ := io.ReadAll(resp2.Body)

	req, err := ParseJobRequest(strings.NewReader(body))
	if err != nil {
		t.Fatalf("ParseJobRequest: %v", err)
	}
	cfg, reps, err := req.Config()
	if err != nil {
		t.Fatalf("Config: %v", err)
	}
	agg, err := scenario.RunReplicationsContext(context.Background(), cfg, reps, 1)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	want, err := MarshalResult(st.Key, reps, agg)
	if err != nil {
		t.Fatalf("MarshalResult: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("HTTP result bytes diverge from CLI-path engine run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestHTTPNamedPolicyParityWithCLIPath is the same pin for a cell selected
// through the policy registry and the tx-power knob: a named policy at
// reduced power resolves to the identical engine run over the wire and on
// the CLI path.
func TestHTTPNamedPolicyParityWithCLIPath(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8, SimWorkers: 2})

	body := `{"scheme":"Rcast","policy":"battery","tx_power_dbm":-3,"battery_joules":3000,"nodes":12,"connections":3,"duration_sec":10,"static":true,"reps":2,"seed":7}`
	resp, st := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if fin := waitHTTPTerminal(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("job ended %s: %s", fin.State, fin.Error)
	}
	resp2, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp2.Body.Close()
	got, _ := io.ReadAll(resp2.Body)

	req, err := ParseJobRequest(strings.NewReader(body))
	if err != nil {
		t.Fatalf("ParseJobRequest: %v", err)
	}
	cfg, reps, err := req.Config()
	if err != nil {
		t.Fatalf("Config: %v", err)
	}
	if cfg.PolicyName != "battery" || cfg.TxPowerDBm != -3 {
		t.Fatalf("request did not thread policy/tx-power: %+v", cfg)
	}
	agg, err := scenario.RunReplicationsContext(context.Background(), cfg, reps, 1)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	want, err := MarshalResult(st.Key, reps, agg)
	if err != nil {
		t.Fatalf("MarshalResult: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("HTTP result bytes diverge from CLI-path engine run (%d vs %d bytes)", len(got), len(want))
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})

	for name, body := range map[string]string{
		"malformed":     `{`,
		"unknown field": `{"scheme":"Rcast","warp":9}`,
		"bad scheme":    `{"scheme":"warp"}`,
		"bad routing":   `{"scheme":"Rcast","routing":"OSPF"}`,
		// Regression: a policy on the always-on scheme used to be silently
		// ignored; it must be a 400, not a cached lie.
		"policy on 802.11": `{"scheme":"802.11","policy":"rcast"}`,
		"unknown policy":   `{"scheme":"Rcast","policy":"fixed-0.50"}`,
		"bad tx power":     `{"scheme":"Rcast","tx_power_dbm":-99}`,
		// Negative values run exactly like 0 but would cache under
		// another key.
		"negative gossip":  `{"scheme":"Rcast","gossip_fanout":-1}`,
		"negative battery": `{"scheme":"Rcast","battery_joules":-5}`,
		"null scheme":      `{"scheme":null}`,
		// The nested objects reach the MAC and routers; an out-of-range
		// value there must be a 400, not a worker panic.
		"negative cw_min":      `{"scheme":"Rcast","mac":{"cw_min":-1}}`,
		"zero beacon interval": `{"scheme":"Rcast","mac":{"beacon_interval_us":0}}`,
		"zero data rate":       `{"scheme":"Rcast","mac":{"data_rate_mbps":0}}`,
		"negative dsr cache":   `{"scheme":"Rcast","dsr":{"cache_capacity":-1}}`,
		"negative sleep watts": `{"scheme":"Rcast","sleep_watts":-1}`,
	} {
		resp, _ := postJob(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	for name, body := range map[string]string{
		"negative cw_min axis": `{"scheme":"Rcast","axes":{"mac":[{"cw_min":31},{"cw_min":-1}]}}`,
		"negative keep-alive":  `{"schemes":["ODPM"],"odpm_data_keepalive_us":-1}`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("sweep %s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/api/v1/jobs/nope/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown job status = %d", resp.StatusCode)
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1, RetryAfter: 3 * time.Second})
	release := make(chan struct{})
	s.runFn = func(ctx context.Context, cfg scenario.Config, reps, workers int) (*scenario.Aggregate, error) {
		select {
		case <-release:
			return scenario.RunReplicationsContext(ctx, cfg, reps, workers)
		case <-ctx.Done():
			return nil, fmt.Errorf("stub: %w", scenario.ErrCanceled)
		}
	}
	defer close(release)

	_, stA := postJob(t, ts, quickBody)
	deadline := time.Now().Add(10 * time.Second)
	for getStatus(t, ts, stA.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("A never started")
		}
		time.Sleep(time.Millisecond)
	}
	respB, _ := postJob(t, ts, `{"scheme":"Rcast","nodes":12,"connections":3,"duration_sec":10,"static":true,"seed":91}`)
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("B status = %d", respB.StatusCode)
	}
	respC, _ := postJob(t, ts, `{"scheme":"Rcast","nodes":12,"connections":3,"duration_sec":10,"static":true,"seed":92}`)
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("C status = %d, want 429", respC.StatusCode)
	}
	if got := respC.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", got)
	}
}

// TestRetryAfterSeconds pins the backpressure hint rendering: whole
// seconds, rounded up, never 0. A sub-second RetryAfter used to truncate
// to "Retry-After: 0", which clients read as "retry immediately".
func TestRetryAfterSeconds(t *testing.T) {
	tests := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{time.Millisecond, 1},
		{500 * time.Millisecond, 1},
		{999 * time.Millisecond, 1},
		{time.Second, 1},
		{1001 * time.Millisecond, 2},
		{1500 * time.Millisecond, 2},
		{3 * time.Second, 3},
		{90 * time.Second, 90},
	}
	for _, tt := range tests {
		if got := retryAfterSeconds(tt.d); got != tt.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tt.d, got, tt.want)
		}
	}
}

// TestHTTPSubSecondRetryAfterNeverZero exercises the clamp end to end: a
// server configured with a 100 ms hint must still answer 429 with a
// positive whole-second Retry-After.
func TestHTTPSubSecondRetryAfterNeverZero(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1, RetryAfter: 100 * time.Millisecond})
	release := make(chan struct{})
	s.runFn = func(ctx context.Context, cfg scenario.Config, reps, workers int) (*scenario.Aggregate, error) {
		select {
		case <-release:
			return scenario.RunReplicationsContext(ctx, cfg, reps, workers)
		case <-ctx.Done():
			return nil, fmt.Errorf("stub: %w", scenario.ErrCanceled)
		}
	}
	defer close(release)

	_, stA := postJob(t, ts, quickBody)
	deadline := time.Now().Add(10 * time.Second)
	for getStatus(t, ts, stA.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("A never started")
		}
		time.Sleep(time.Millisecond)
	}
	postJob(t, ts, `{"scheme":"Rcast","nodes":12,"connections":3,"duration_sec":10,"static":true,"seed":81}`)
	resp, _ := postJob(t, ts, `{"scheme":"Rcast","nodes":12,"connections":3,"duration_sec":10,"static":true,"seed":82}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
}

func TestHTTPCacheHitSecondSubmit(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})

	_, st := postJob(t, ts, quickBody)
	if fin := waitHTTPTerminal(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("first job ended %s", fin.State)
	}
	runs := s.mRuns.Value("disk", "rcast")
	resp2, st2 := postJob(t, ts, quickBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cache-hit submit status = %d, want 200", resp2.StatusCode)
	}
	if !st2.CacheHit || st2.State != StateDone {
		t.Fatalf("cache-hit status %+v", st2)
	}
	if s.mRuns.Value("disk", "rcast") != runs {
		t.Fatal("cache hit triggered a re-run")
	}
	respR, err := http.Get(ts.URL + "/api/v1/jobs/" + st2.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer respR.Body.Close()
	if got := respR.Header.Get("X-Rcast-Cache"); got != "hit" {
		t.Fatalf("X-Rcast-Cache = %q, want hit", got)
	}
}

func TestHTTPCancelFlow(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})

	longBody := `{"scheme":"Rcast","nodes":30,"connections":5,"duration_sec":3600,"reps":1}`
	_, st := postJob(t, ts, longBody)
	deadline := time.Now().Add(10 * time.Second)
	for getStatus(t, ts, st.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs/"+st.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	fin := waitHTTPTerminal(t, ts, st.ID)
	if fin.State != StateCanceled {
		t.Fatalf("state after cancel = %s (%s)", fin.State, fin.Error)
	}
	// Result of a canceled job is a conflict, not a 200.
	respR, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	respR.Body.Close()
	if respR.StatusCode != http.StatusConflict {
		t.Fatalf("result of canceled job = %d, want 409", respR.StatusCode)
	}
	// Cancel of a terminal job is a conflict too.
	resp2, err := http.Post(ts.URL+"/api/v1/jobs/"+st.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("re-cancel status = %d, want 409", resp2.StatusCode)
	}
}

func TestHTTPEventsStreamToTerminal(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})

	_, st := postJob(t, ts, quickBody)
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	var states []State
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Status
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("decode event %q: %v", line, err)
		}
		states = append(states, ev.State)
	}
	// The stream must close on its own after the terminal event.
	if len(states) == 0 {
		t.Fatal("no events received")
	}
	if last := states[len(states)-1]; last != StateDone {
		t.Fatalf("last streamed state = %s, want done (saw %v)", last, states)
	}
}

func TestHTTPHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var hb healthBody
	if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if hb.Status != "ok" || hb.QueueCapacity != 2 {
		t.Fatalf("healthz body %+v", hb)
	}

	_, st := postJob(t, ts, quickBody)
	waitHTTPTerminal(t, ts, st.ID)

	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	page, _ := io.ReadAll(resp2.Body)
	for _, want := range []string{
		"rcast_serve_jobs_submitted_total 1",
		`rcast_serve_runs_total{channel="disk",policy="rcast"} 1`,
		`rcast_serve_jobs_total{state="done"} 1`,
		"rcast_serve_queue_capacity 2",
		"rcast_serve_run_seconds_count 1",
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("metrics page missing %q", want)
		}
	}

	// pprof index answers.
	resp3, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("pprof index = %d", resp3.StatusCode)
	}

	// Draining flips healthz to 503. Use a separate server so the
	// cleanup shutdown stays valid.
	s2 := New(Options{Workers: 1, QueueDepth: 1})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s2.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	resp4, err := http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	if resp4.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp4.StatusCode)
	}
	_ = s
}

// TestHTTPTraceArtifact exercises the trace option end to end: a traced
// submission bypasses the result cache, executes, serves a parseable
// NDJSON artifact from /trace, and produces result bytes identical to
// the untraced run of the same config.
func TestHTTPTraceArtifact(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})

	// Warm the cache with the untraced twin.
	_, plain := postJob(t, ts, quickBody)
	if fin := waitHTTPTerminal(t, ts, plain.ID); fin.State != StateDone {
		t.Fatalf("untraced job ended %s: %s", fin.State, fin.Error)
	}
	plainResult := getBody(t, ts, "/api/v1/jobs/"+plain.ID+"/result", http.StatusOK)

	// The traced twin must execute despite the warm cache.
	tracedBody := strings.TrimSuffix(quickBody, "}") + `,"trace":true}`
	resp, traced := postJob(t, ts, tracedBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("traced submit status = %d, want 202 (must not be served from cache)", resp.StatusCode)
	}
	if traced.CacheHit || !traced.Trace {
		t.Fatalf("traced submit status %+v", traced)
	}
	if fin := waitHTTPTerminal(t, ts, traced.ID); fin.State != StateDone {
		t.Fatalf("traced job ended %s: %s", fin.State, fin.Error)
	}

	tracedResult := getBody(t, ts, "/api/v1/jobs/"+traced.ID+"/result", http.StatusOK)
	if !bytes.Equal(plainResult, tracedResult) {
		t.Fatal("traced run's result differs from the untraced run — tracing perturbed the simulation")
	}

	resp2, err := http.Get(ts.URL + "/api/v1/jobs/" + traced.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET trace status = %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("trace content type %q", got)
	}
	evs, err := trace.ReadEvents(resp2.Body)
	if err != nil {
		t.Fatalf("parse trace artifact: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("trace artifact is empty")
	}

	// The untraced job has no artifact to serve.
	getBody(t, ts, "/api/v1/jobs/"+plain.ID+"/trace", http.StatusNotFound)
}

// TestHTTPTraceArtifactSurvivesFailure pins the partial-trace fix: a
// traced job that dies on its deadline — exactly the run you most want to
// debug — must still serve the trace captured up to the failure. Pre-fix,
// execute only persisted traceBuf on the success path.
func TestHTTPTraceArtifactSurvivesFailure(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, DefaultTimeout: 500 * time.Millisecond})

	// A 1h-sim-time job cannot finish inside a 500 ms wall deadline, but
	// emits plenty of trace events before dying.
	body := `{"scheme":"Rcast","nodes":30,"connections":5,"duration_sec":3600,"reps":1,"trace":true}`
	resp, st := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	fin := waitHTTPTerminal(t, ts, st.ID)
	if fin.State != StateFailed || !strings.Contains(fin.Error, "deadline") {
		t.Fatalf("job ended %s (%s), want deadline failure", fin.State, fin.Error)
	}

	resp2, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp2.Body)
		t.Fatalf("GET trace of failed traced job = %d (%s), want 200 with the partial artifact", resp2.StatusCode, raw)
	}
	if got := resp2.Header.Get("X-Rcast-Trace"); got != "partial" {
		t.Fatalf("X-Rcast-Trace = %q, want partial", got)
	}
	evs, err := trace.ReadEvents(resp2.Body)
	if err != nil {
		t.Fatalf("parse partial trace: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("partial trace is empty")
	}

	// A traced job canceled while still queued never executed: no
	// artifact, partial or otherwise.
	s2, ts2 := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	s2.runFn = func(ctx context.Context, cfg scenario.Config, reps, workers int) (*scenario.Aggregate, error) {
		select {
		case <-release:
			return scenario.RunReplicationsContext(ctx, cfg, reps, workers)
		case <-ctx.Done():
			return nil, fmt.Errorf("stub: %w", scenario.ErrCanceled)
		}
	}
	defer close(release)
	_, stA := postJob(t, ts2, quickBody) // occupies the worker
	tracedQueued := strings.TrimSuffix(quickBody, "}") + `,"seed":7,"trace":true}`
	_, stB := postJob(t, ts2, tracedQueued)
	respC, err := http.Post(ts2.URL+"/api/v1/jobs/"+stB.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	respC.Body.Close()
	getBody(t, ts2, "/api/v1/jobs/"+stB.ID+"/trace", http.StatusConflict)
	_ = stA
}

// getBody fetches a path and asserts the status code, returning the body.
func getBody(t *testing.T, ts *httptest.Server, path string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s status = %d, want %d (body %q)", path, resp.StatusCode, wantCode, body)
	}
	return body
}
