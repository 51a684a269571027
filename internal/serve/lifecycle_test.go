package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"rcast/internal/scenario"
)

// contractJobBody and contractSweepBody are one-cell submissions of the
// same fast configuration, so every lifecycle path runs on one engine
// call.
const (
	contractJobBody   = `{"scheme":"Rcast","nodes":12,"connections":3,"duration_sec":10,"reps":1}`
	contractSweepBody = `{"schemes":["Rcast"],"nodes":12,"connections":3,"duration_sec":10,"reps":1}`
)

// sseFrame is one server-sent event as it crossed the wire.
type sseFrame struct {
	event string
	data  string
}

// readFrames parses a whole SSE body into frames, requiring the exact
// "event: <name>\ndata: <json>\n\n" framing, and returns when the server
// closes the stream. first receives the first frame as soon as it
// arrives, so a caller can wait for the subscription to be attached.
func readFrames(body io.Reader, first chan<- struct{}) ([]sseFrame, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var frames []sseFrame
	for sc.Scan() {
		ev := sc.Text()
		if !strings.HasPrefix(ev, "event: ") {
			return frames, fmt.Errorf("frame %d starts %q, want an event line", len(frames), ev)
		}
		if !sc.Scan() || !strings.HasPrefix(sc.Text(), "data: ") {
			return frames, fmt.Errorf("frame %d: event line not followed by a data line", len(frames))
		}
		data := strings.TrimPrefix(sc.Text(), "data: ")
		if !sc.Scan() || sc.Text() != "" {
			return frames, fmt.Errorf("frame %d: data line not followed by a blank line", len(frames))
		}
		frames = append(frames, sseFrame{strings.TrimPrefix(ev, "event: "), data})
		if len(frames) == 1 {
			close(first)
		}
	}
	return frames, sc.Err()
}

// httpCall performs one request and returns its status code and body.
func httpCall(t *testing.T, method, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read body: %v", method, url, err)
	}
	return resp.StatusCode, string(b)
}

// TestLifecycleContract pins, for jobs and sweeps alike, every terminal
// path's state and error text, the 409 bodies of result and cancel, and
// the SSE framing: job frames are "event: state", sweep frames "event:
// cell"/"event: sweep", and the stream closes at the terminal state.
func TestLifecycleContract(t *testing.T) {
	cells, err := SweepRequest{Schemes: []string{"Rcast"}, Nodes: 12, Connections: 3, DurationSec: 10, Reps: 1}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	cellKey := cells[0].Key

	// How the stubbed engine behaves once the SSE stream is attached.
	type engine int
	const (
		park   engine = iota // block until the run's context ends
		fail                 // return a runner error at once
		finish               // run the real engine
	)
	// What the test does to end the lifecycle.
	type trigger int
	const (
		none     trigger = iota
		cancel           // POST …/cancel while running
		shutdown         // Shutdown with an already-short deadline
	)
	cases := []struct {
		name      string
		kind      string // "job" or "sweep"
		body      string
		engine    engine
		trigger   trigger
		timeout   time.Duration // Options.DefaultTimeout (0: default)
		wantState State
		wantError string
	}{
		{"job/done", "job", contractJobBody, finish, none, 0, StateDone, ""},
		{"job/client-cancel", "job", contractJobBody, park, cancel, 0, StateCanceled, "canceled by client"},
		{"job/shutdown", "job", contractJobBody, park, shutdown, 0, StateCanceled, "server shutting down"},
		{"job/deadline", "job", contractJobBody, park, none, 50 * time.Millisecond, StateFailed, "job deadline exceeded"},
		{"job/runner-error", "job", contractJobBody, fail, none, 0, StateFailed, "synthetic engine failure"},
		{"sweep/done", "sweep", contractSweepBody, finish, none, 0, StateDone, ""},
		{"sweep/client-cancel", "sweep", contractSweepBody, park, cancel, 0, StateCanceled, "canceled by client"},
		{"sweep/shutdown", "sweep", contractSweepBody, park, shutdown, 0, StateCanceled, "server shutting down"},
		{"sweep/cell-deadline", "sweep", contractSweepBody, park, none, 50 * time.Millisecond, StateFailed,
			fmt.Sprintf("cell 0 (%s): cell deadline exceeded", cellKey)},
		{"sweep/runner-error", "sweep", contractSweepBody, fail, none, 0, StateFailed,
			fmt.Sprintf("cell 0 (%s): synthetic engine failure", cellKey)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2, DefaultTimeout: tc.timeout})
			gate := make(chan struct{})
			base := s.runFn
			s.runFn = func(ctx context.Context, cfg scenario.Config, reps, workers int) (*scenario.Aggregate, error) {
				<-gate
				switch tc.engine {
				case fail:
					return nil, errors.New("synthetic engine failure")
				case finish:
					return base(ctx, cfg, reps, workers)
				}
				<-ctx.Done()
				return nil, fmt.Errorf("stub: %w", errors.Join(scenario.ErrCanceled, context.Cause(ctx)))
			}
			coll := "/api/v1/" + tc.kind + "s"
			id := tc.kind + "-1"
			entry := ts.URL + coll + "/" + id

			resp, err := http.Post(ts.URL+coll, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit = %d, want 202", resp.StatusCode)
			}

			sresp, err := http.Get(entry + "/events")
			if err != nil {
				t.Fatal(err)
			}
			defer sresp.Body.Close()
			first := make(chan struct{})
			type streamed struct {
				frames []sseFrame
				err    error
			}
			stream := make(chan streamed, 1)
			go func() {
				frames, err := readFrames(sresp.Body, first)
				stream <- streamed{frames, err}
			}()
			select {
			case <-first:
			case <-time.After(10 * time.Second):
				t.Fatal("no first SSE frame")
			}

			// Wait until the engine call is parked (the entry is running),
			// then let it proceed.
			deadline := time.Now().Add(10 * time.Second)
			for {
				var st struct{ State State }
				_, body := httpCall(t, http.MethodGet, entry)
				if err := json.Unmarshal([]byte(body), &st); err != nil {
					t.Fatalf("status body %q: %v", body, err)
				}
				if st.State == StateRunning {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s never started (state %s)", id, st.State)
				}
				time.Sleep(time.Millisecond)
			}
			if tc.trigger != none {
				code, body := httpCall(t, http.MethodGet, entry+"/result")
				want := fmt.Sprintf("{\"error\":\"%s %s is running; result not ready\"}\n", tc.kind, id)
				if code != http.StatusConflict || body != want {
					t.Fatalf("result while running = %d %q, want 409 %q", code, body, want)
				}
			}
			close(gate)
			switch tc.trigger {
			case cancel:
				if code, _ := httpCall(t, http.MethodPost, entry+"/cancel"); code != http.StatusAccepted {
					t.Fatalf("cancel = %d, want 202", code)
				}
			case shutdown:
				ctx, stop := context.WithTimeout(context.Background(), 20*time.Millisecond)
				defer stop()
				if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("Shutdown = %v, want deadline exceeded", err)
				}
			}

			var got streamed
			select {
			case got = <-stream:
			case <-time.After(30 * time.Second):
				t.Fatal("SSE stream did not close at the terminal state")
			}
			if got.err != nil {
				t.Fatalf("SSE framing: %v", got.err)
			}
			last := got.frames[len(got.frames)-1]
			var lastState State
			for i, f := range got.frames {
				if tc.kind == "job" {
					var st Status
					if f.event != "state" || json.Unmarshal([]byte(f.data), &st) != nil || st.ID != id {
						t.Fatalf("job frame %d = %+v, want event: state carrying %s", i, f, id)
					}
					lastState = st.State
					continue
				}
				var ev SweepEvent
				if (f.event != "cell" && f.event != "sweep") || json.Unmarshal([]byte(f.data), &ev) != nil || ev.Type != f.event || ev.Sweep.ID != id {
					t.Fatalf("sweep frame %d = %+v, want event: cell or sweep carrying %s", i, f, id)
				}
				if f.event == "cell" && (ev.Cell == nil || ev.Cell.State != StateDone) {
					t.Fatalf("cell frame %d = %+v", i, ev)
				}
				lastState = ev.Sweep.State
			}
			if tc.kind == "sweep" && last.event != "sweep" {
				t.Fatalf("last sweep frame is %q, want sweep", last.event)
			}
			if lastState != tc.wantState {
				t.Fatalf("last frame state = %s, want %s", lastState, tc.wantState)
			}
			if tc.kind == "sweep" && tc.wantState == StateDone && got.frames[len(got.frames)-2].event != "cell" {
				t.Fatal("done sweep streamed no cell frame before its terminal frame")
			}

			var st struct {
				State State
				Error string
			}
			_, body := httpCall(t, http.MethodGet, entry)
			if err := json.Unmarshal([]byte(body), &st); err != nil {
				t.Fatal(err)
			}
			if st.State != tc.wantState || st.Error != tc.wantError {
				t.Fatalf("terminal = %s %q, want %s %q", st.State, st.Error, tc.wantState, tc.wantError)
			}

			code, body := httpCall(t, http.MethodGet, entry+"/result")
			if tc.wantState == StateDone {
				if code != http.StatusOK || !strings.HasPrefix(body, "{") {
					t.Fatalf("result = %d %.80q, want 200 with the document", code, body)
				}
			} else {
				want := fmt.Sprintf("{\"error\":\"%s %s is %s: %s\"}\n", tc.kind, id, tc.wantState, tc.wantError)
				if code != http.StatusConflict || body != want {
					t.Fatalf("result = %d %q, want 409 %q", code, body, want)
				}
			}
			code, body = httpCall(t, http.MethodPost, entry+"/cancel")
			want := fmt.Sprintf("{\"error\":\"%s %s is %s; nothing to cancel\"}\n", tc.kind, id, tc.wantState)
			if code != http.StatusConflict || body != want {
				t.Fatalf("cancel of terminal = %d %q, want 409 %q", code, body, want)
			}
		})
	}
}
