// Command servesmoke is the end-to-end exercise of the rcast-serve
// daemon that scripts/ci.sh runs. It builds the real binary with the race
// detector and drives it over actual HTTP on ephemeral ports, in four
// phases:
//
//  1. Lifecycle: submit, poll and fetch a job, require the result to be
//     byte-identical to running the same config through the library path
//     the CLI tools use, and prove a resubmission is a cache hit that
//     executes nothing (/metrics runs_total stays flat).
//  2. Backpressure and drain: force a queue-full 429 with Retry-After,
//     then SIGTERM and require 503 intake, admitted work cancelable and
//     a clean exit.
//  3. Early SIGTERM: a SIGTERM sent right after the first healthy probe
//     drains the idle daemon to exit status 0.
//  4. Fleet: two workers plus a coordinator. One sweep cell is pre-warmed
//     on a worker's cache; the sweep driven through the coordinator must
//     be byte-identical to computing every cell serially, fetch the warm
//     cell through the peer-cache probe, report both workers up, and run
//     its faded cells under the fading label.
//
// Usage:
//
//	go run ./tools/servesmoke
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"rcast"
	"rcast/internal/serve"
)

const quickJob = `{"scheme":"Rcast","nodes":12,"connections":3,"duration_sec":10,"static":true,"reps":1}`

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "servesmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("servesmoke: OK")
}

func run() error {
	tmp, err := os.MkdirTemp("", "servesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "rcast-serve")
	build := exec.Command("go", "build", "-race", "-o", bin, "./cmd/rcast-serve")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build rcast-serve: %w", err)
	}

	for _, phase := range []struct {
		name string
		run  func(bin string) error
	}{
		{"lifecycle", lifecyclePhase},
		{"backpressure/drain", backpressureDrainPhase},
		{"early SIGTERM", earlySigtermPhase},
		{"fleet", fleetPhase},
	} {
		if err := phase.run(bin); err != nil {
			return fmt.Errorf("%s phase: %w", phase.name, err)
		}
	}
	return nil
}

// lifecyclePhase: submit → poll → result → CLI-path parity → cache hit.
func lifecyclePhase(bin string) error {
	d, err := startDaemon(bin, "daemon", "-workers", "2", "-queue", "8")
	if err != nil {
		return err
	}
	defer d.kill()

	var st serve.Status
	code, _, err := d.post("/api/v1/jobs", quickJob, &st)
	if err != nil {
		return err
	}
	if code != http.StatusAccepted {
		return fmt.Errorf("submit: HTTP %d, want 202", code)
	}
	if err := d.awaitJobDone(st.ID); err != nil {
		return err
	}
	got, err := d.fetch("/api/v1/jobs/" + st.ID + "/result")
	if err != nil {
		return err
	}
	req, err := serve.ParseJobRequest(strings.NewReader(quickJob))
	if err != nil {
		return err
	}
	want, err := libraryResult(req, st.Key)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("server result diverges from the CLI-path run (%d vs %d bytes)", len(got), len(want))
	}
	fmt.Println("servesmoke: parity ok, server result byte-identical to CLI path")

	// Resubmission must be a cache hit that executes nothing.
	const runs = `rcast_serve_runs_total{channel="disk",policy="rcast"} 1`
	if err := d.requireMetrics("before resubmit", runs); err != nil {
		return err
	}
	var st2 serve.Status
	code, _, err = d.post("/api/v1/jobs", quickJob, &st2)
	if err != nil {
		return err
	}
	if code != http.StatusOK || !st2.CacheHit || st2.State != serve.StateDone {
		return fmt.Errorf("resubmit: HTTP %d status %+v, want 200 cache hit", code, st2)
	}
	if err := d.requireMetrics("after cache hit",
		runs, // unchanged: the hit executed nothing
		"rcast_serve_cache_hits_total 1",
		`rcast_serve_jobs_total{state="done"} 2`,
	); err != nil {
		return err
	}
	fmt.Println("servesmoke: cache hit ok, no re-execution")
	return nil
}

// backpressureDrainPhase: fill the 1-slot queue for a 429, then SIGTERM
// and verify intake closes while admitted jobs finish.
func backpressureDrainPhase(bin string) error {
	d, err := startDaemon(bin, "daemon", "-workers", "1", "-queue", "1", "-drain-timeout", "2m")
	if err != nil {
		return err
	}
	defer d.kill()

	const longJob = `{"scheme":"Rcast","nodes":30,"connections":5,"duration_sec":3600,"reps":1%s}`
	var stA, stB serve.Status
	code, _, err := d.post("/api/v1/jobs", fmt.Sprintf(longJob, ""), &stA)
	if err != nil {
		return err
	}
	if code != http.StatusAccepted {
		return fmt.Errorf("submit long A: HTTP %d", code)
	}
	if err := d.await("/api/v1/jobs/"+stA.ID, &stA, func() bool { return stA.State == serve.StateRunning }, time.Minute); err != nil {
		return fmt.Errorf("long job never started: %w", err)
	}
	code, _, err = d.post("/api/v1/jobs", fmt.Sprintf(longJob, `,"seed":91`), &stB)
	if err != nil {
		return err
	}
	if code != http.StatusAccepted {
		return fmt.Errorf("submit queued B: HTTP %d", code)
	}
	code, hdr, err := d.post("/api/v1/jobs", fmt.Sprintf(longJob, `,"seed":92`), nil)
	if err != nil {
		return err
	}
	if code != http.StatusTooManyRequests {
		return fmt.Errorf("submit C with full queue: HTTP %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		return fmt.Errorf("429 without Retry-After")
	}
	fmt.Println("servesmoke: backpressure ok, full queue answered 429 + Retry-After")

	// SIGTERM: intake must close while the admitted jobs keep running.
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	deadline := time.Now().Add(time.Minute)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err != nil {
			return fmt.Errorf("healthz during drain: %w", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("healthz never reported draining")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code, _, err = d.post("/api/v1/jobs", quickJob, nil); err != nil || code != http.StatusServiceUnavailable {
		return fmt.Errorf("submit while draining: HTTP %d err %v, want 503", code, err)
	}
	fmt.Println("servesmoke: drain ok, intake rejected with 503")

	// Cancel the admitted jobs (allowed during drain) so the daemon can
	// finish promptly, and require a clean exit.
	for _, id := range []string{stA.ID, stB.ID} {
		code, _, err = d.post("/api/v1/jobs/"+id+"/cancel", "", nil)
		if err != nil {
			return err
		}
		if code != http.StatusAccepted {
			return fmt.Errorf("cancel %s during drain: HTTP %d", id, code)
		}
	}
	exited := make(chan error, 1)
	go func() { exited <- d.cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("daemon exited uncleanly after drain: %w", err)
		}
	case <-time.After(2 * time.Minute):
		return fmt.Errorf("daemon did not exit after drain")
	}
	fmt.Println("servesmoke: graceful exit ok, canceled jobs terminal and process exited 0")
	return nil
}

// earlySigtermPhase: a SIGTERM sent the moment /healthz first answers 200
// must drain the idle daemon to exit status 0, not kill it. Repeated, as
// the window it guards is a scheduling race.
func earlySigtermPhase(bin string) error {
	for i := 0; i < 3; i++ {
		d, err := startDaemon(bin, "daemon")
		if err != nil {
			return err
		}
		if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			d.kill()
			return err
		}
		if err := d.cmd.Wait(); err != nil {
			return fmt.Errorf("daemon signaled right after its first healthy probe exited: %w", err)
		}
	}
	fmt.Println("servesmoke: early SIGTERM ok, daemon drained and exited 0")
	return nil
}

// fleetPhase drives a small sweep through a coordinator over two
// workers: 2 schemes × 2 mobility points × 2 channels = 8 cells at quick
// scale. The fading axis makes the parity check also prove that a cell
// under a random propagation model round-trips through the fleet.
func fleetPhase(bin string) error {
	workerA, err := startDaemon(bin, "workerA", "-workers", "1", "-queue", "8")
	if err != nil {
		return err
	}
	defer workerA.kill()
	workerB, err := startDaemon(bin, "workerB", "-workers", "1", "-queue", "8")
	if err != nil {
		return err
	}
	defer workerB.kill()
	coord, err := startDaemon(bin, "coord", "-workers", "2", "-queue", "8",
		"-coordinator", workerA.base+","+workerB.base)
	if err != nil {
		return err
	}
	defer coord.kill()

	req := serve.SweepRequest{
		Schemes:     []string{"802.11", "Rcast"},
		PausesSec:   []float64{0, -1},
		Channels:    []string{"disk", "fading"},
		Nodes:       12,
		Connections: 3,
		DurationSec: 10,
		Reps:        1,
	}
	cells, err := req.Cells()
	if err != nil {
		return err
	}

	// Pre-warm the last cell on worker B so the coordinator must find it
	// via the HEAD probe against a worker cache instead of recomputing.
	warmBody, err := json.Marshal(cells[len(cells)-1].Req)
	if err != nil {
		return err
	}
	var warm serve.Status
	if code, _, err := workerB.post("/api/v1/jobs", string(warmBody), &warm); err != nil || (code != http.StatusAccepted && code != http.StatusOK) {
		return fmt.Errorf("pre-warm cell on worker B: HTTP %d err %v", code, err)
	}
	if err := workerB.awaitJobDone(warm.ID); err != nil {
		return fmt.Errorf("pre-warm cell on worker B: %w", err)
	}
	fmt.Println("servesmoke: pre-warmed 1 of", len(cells), "cells on worker B")

	sweepBody, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var st serve.SweepStatus
	code, _, err := coord.post("/api/v1/sweeps", string(sweepBody), &st)
	if err != nil {
		return err
	}
	if code != http.StatusAccepted {
		return fmt.Errorf("submit sweep: HTTP %d", code)
	}
	if err := coord.await("/api/v1/sweeps/"+st.ID, &st, func() bool { return st.State.Terminal() }, 2*time.Minute); err != nil {
		return err
	}
	if st.State != serve.StateDone {
		return fmt.Errorf("sweep ended %s: %s", st.State, st.Error)
	}
	if st.PeerHits == 0 {
		return fmt.Errorf("sweep completed without a peer cache hit: %+v", st)
	}
	got, err := coord.fetch("/api/v1/sweeps/" + st.ID + "/result")
	if err != nil {
		return err
	}

	// Parity: every cell run serially through the library path must
	// assemble into the same aggregate document, byte for byte.
	results := make([][]byte, len(cells))
	for i, c := range cells {
		if results[i], err = libraryResult(c.Req, c.Key); err != nil {
			return err
		}
	}
	want, err := serve.MarshalSweepResult(serve.SweepKey(cells), cells, results)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("fleet sweep diverges from the serial path (%d vs %d bytes)", len(got), len(want))
	}
	fmt.Println("servesmoke: fleet parity ok, sweep byte-identical to serial path")

	// The warm cell arrived via peer cache, the rest were computed, and
	// both workers stayed dispatchable.
	if err := coord.requireMetrics("coordinator",
		`rcast_serve_fleet_cells_total{source="peer_cache"} 1`,
		fmt.Sprintf(`rcast_serve_fleet_cells_total{source="computed"} %d`, len(cells)-1),
		fmt.Sprintf("rcast_serve_fleet_worker_up{worker=%q} 1", workerA.base),
		fmt.Sprintf("rcast_serve_fleet_worker_up{worker=%q} 1", workerB.base),
		`rcast_serve_sweeps_total{state="done"} 1`,
	); err != nil {
		return err
	}
	fmt.Println("servesmoke: fleet metrics ok, peer cache hit counted and both workers up")

	// The faded cells executed on the workers; at least one worker must
	// report runs under the fading label (the coordinator itself only
	// dispatches).
	pageA, err := workerA.fetch("/metrics")
	if err != nil {
		return err
	}
	pageB, err := workerB.fetch("/metrics")
	if err != nil {
		return err
	}
	if !bytes.Contains(append(pageA, pageB...), []byte(`rcast_serve_runs_total{channel="fading",policy="rcast"}`)) {
		return fmt.Errorf("no worker reported fading-channel runs:\nworkerA:\n%s\nworkerB:\n%s", pageA, pageB)
	}
	fmt.Println("servesmoke: fading cells executed and labeled in worker metrics")
	return nil
}

// libraryResult runs req through the library path the CLI tools use and
// renders it as the server would under key.
func libraryResult(req serve.JobRequest, key string) ([]byte, error) {
	cfg, reps, err := req.Config()
	if err != nil {
		return nil, err
	}
	agg, err := rcast.RunReplicationsContext(context.Background(), cfg, reps, 1)
	if err != nil {
		return nil, err
	}
	return serve.MarshalResult(key, reps, agg)
}

// daemon wraps one running rcast-serve process.
type daemon struct {
	name string
	cmd  *exec.Cmd
	base string // http://host:port
}

// startDaemon boots the binary on an ephemeral port and waits for a
// healthy /healthz. The listen address is parsed from the daemon's own
// startup log line.
func startDaemon(bin, name string, extraArgs ...string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintf(os.Stderr, "  [%s] %s\n", name, line)
			if i := strings.Index(line, "listening on "); i >= 0 {
				rest := line[i+len("listening on "):]
				if j := strings.IndexByte(rest, ' '); j > 0 {
					select {
					case addrCh <- rest[:j]:
					default:
					}
				}
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		return nil, fmt.Errorf("%s never logged its listen address", name)
	}
	d := &daemon{name: name, cmd: cmd, base: "http://" + addr}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			return nil, fmt.Errorf("%s never became healthy", name)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// kill hard-stops the daemon (cleanup path only).
func (d *daemon) kill() { _ = d.cmd.Process.Kill(); _, _ = d.cmd.Process.Wait() }

// post sends body to path and, on 200 or 202, decodes the response into v
// (when non-nil). Other status codes are returned for the caller to judge.
func (d *daemon) post(path, body string, v any) (int, http.Header, error) {
	resp, err := http.Post(d.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if v != nil && (resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted) {
		if err := json.Unmarshal(raw, v); err != nil {
			return resp.StatusCode, resp.Header, fmt.Errorf("decode %s response %q: %w", path, raw, err)
		}
	}
	return resp.StatusCode, resp.Header, nil
}

// fetch GETs path and returns its body, failing on anything but 200.
func (d *daemon) fetch(path string) ([]byte, error) {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: HTTP %d (%s)", d.name, path, resp.StatusCode, body)
	}
	return body, nil
}

// await polls path into v until done reports true or timeout passes.
func (d *daemon) await(path string, v any, done func() bool, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		body, err := d.fetch(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(body, v); err != nil {
			return err
		}
		if done() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s %s: not done after %s: %s", d.name, path, timeout, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitJobDone waits for job id to finish and requires it to succeed.
func (d *daemon) awaitJobDone(id string) error {
	var st serve.Status
	if err := d.await("/api/v1/jobs/"+id, &st, func() bool { return st.State.Terminal() }, 2*time.Minute); err != nil {
		return err
	}
	if st.State != serve.StateDone {
		return fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
	}
	return nil
}

// requireMetrics fails unless the /metrics page holds every line.
func (d *daemon) requireMetrics(when string, lines ...string) error {
	page, err := d.fetch("/metrics")
	if err != nil {
		return err
	}
	for _, line := range lines {
		if !bytes.Contains(page, []byte(line)) {
			return fmt.Errorf("%s metrics %s missing %q:\n%s", d.name, when, line, page)
		}
	}
	return nil
}
