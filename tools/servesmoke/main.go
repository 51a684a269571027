// Command servesmoke is the end-to-end exercise of the rcast-serve
// daemon that scripts/ci.sh runs: it builds the real binary with the
// race detector, boots it on an ephemeral port, and drives the full job
// lifecycle over actual HTTP — submit, poll, fetch, verify the result is
// byte-identical to running the same config through the library path the
// CLI tools use, prove a resubmission is a cache hit that executes
// nothing, force a queue-full 429, check /healthz and /metrics, and
// finally SIGTERM the daemon and assert a graceful drain (503 intake,
// admitted work finishing, clean exit), and require that a SIGTERM sent
// right after the first healthy probe also drains to exit status 0.
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

	if err := lifecyclePhase(bin); err != nil {
		return fmt.Errorf("lifecycle phase: %w", err)
	}
	if err := backpressureDrainPhase(bin); err != nil {
		return fmt.Errorf("backpressure/drain phase: %w", err)
	}
	if err := earlySigtermPhase(bin); err != nil {
		return fmt.Errorf("early SIGTERM phase: %w", err)
	}
	return nil
}

// earlySigtermPhase: a SIGTERM sent the moment /healthz first answers 200
// must drain the idle daemon to exit status 0, not kill it. Repeated, as
// the window it guards is a scheduling race.
func earlySigtermPhase(bin string) error {
	for i := 0; i < 3; i++ {
		d, err := startDaemon(bin)
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

// daemon wraps one running rcast-serve process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
}

// startDaemon boots the binary on an ephemeral port and waits for a
// healthy /healthz. The listen address is parsed from the daemon's own
// startup log line.
func startDaemon(bin string, extraArgs ...string) (*daemon, error) {
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
			fmt.Fprintln(os.Stderr, "  [daemon]", line)
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
		return nil, fmt.Errorf("daemon never logged its listen address")
	}
	d := &daemon{cmd: cmd, base: "http://" + addr}
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
			return nil, fmt.Errorf("daemon never became healthy")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// kill hard-stops the daemon (cleanup path only).
func (d *daemon) kill() { _ = d.cmd.Process.Kill(); _, _ = d.cmd.Process.Wait() }

func (d *daemon) submit(body string) (int, serve.Status, http.Header, error) {
	resp, err := http.Post(d.base+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, serve.Status{}, nil, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var st serve.Status
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &st); err != nil {
			return resp.StatusCode, st, resp.Header, fmt.Errorf("decode submit response %q: %w", raw, err)
		}
	}
	return resp.StatusCode, st, resp.Header, nil
}

func (d *daemon) status(id string) (serve.Status, error) {
	resp, err := http.Get(d.base + "/api/v1/jobs/" + id)
	if err != nil {
		return serve.Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.Status{}, fmt.Errorf("status %s: HTTP %d", id, resp.StatusCode)
	}
	var st serve.Status
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func (d *daemon) waitTerminal(id string, timeout time.Duration) (serve.Status, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := d.status(id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s still %s after %s", id, st.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (d *daemon) metricsPage() (string, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	return string(page), err
}

// lifecyclePhase: submit → poll → result → CLI-path parity → cache hit.
func lifecyclePhase(bin string) error {
	d, err := startDaemon(bin, "-workers", "2", "-queue", "8")
	if err != nil {
		return err
	}
	defer d.kill()

	code, st, _, err := d.submit(quickJob)
	if err != nil {
		return err
	}
	if code != http.StatusAccepted {
		return fmt.Errorf("submit: HTTP %d, want 202", code)
	}
	fin, err := d.waitTerminal(st.ID, 2*time.Minute)
	if err != nil {
		return err
	}
	if fin.State != serve.StateDone {
		return fmt.Errorf("job ended %s: %s", fin.State, fin.Error)
	}

	resp, err := http.Get(d.base + "/api/v1/jobs/" + st.ID + "/result")
	if err != nil {
		return err
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("result: HTTP %d (%s)", resp.StatusCode, got)
	}

	// Parity: the same request resolved and run through the library path
	// the CLI tools use must produce the same bytes.
	req, err := serve.ParseJobRequest(strings.NewReader(quickJob))
	if err != nil {
		return err
	}
	cfg, reps, err := req.Config()
	if err != nil {
		return err
	}
	agg, err := rcast.RunReplicationsContext(context.Background(), cfg, reps, 1)
	if err != nil {
		return err
	}
	want, err := serve.MarshalResult(st.Key, reps, agg)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("server result diverges from the CLI-path run (%d vs %d bytes)", len(got), len(want))
	}
	fmt.Println("servesmoke: parity ok, server result byte-identical to CLI path")

	// Resubmission must be a cache hit that executes nothing.
	page, err := d.metricsPage()
	if err != nil {
		return err
	}
	if !strings.Contains(page, `rcast_serve_runs_total{channel="disk",policy="rcast"} 1`) {
		return fmt.Errorf("metrics before resubmit missing runs_total 1:\n%s", page)
	}
	code2, st2, _, err := d.submit(quickJob)
	if err != nil {
		return err
	}
	if code2 != http.StatusOK || !st2.CacheHit || st2.State != serve.StateDone {
		return fmt.Errorf("resubmit: HTTP %d status %+v, want 200 cache hit", code2, st2)
	}
	page, err = d.metricsPage()
	if err != nil {
		return err
	}
	for _, wantLine := range []string{
		`rcast_serve_runs_total{channel="disk",policy="rcast"} 1`, // unchanged: the hit executed nothing
		"rcast_serve_cache_hits_total 1",
		`rcast_serve_jobs_total{state="done"} 2`,
	} {
		if !strings.Contains(page, wantLine) {
			return fmt.Errorf("metrics after cache hit missing %q:\n%s", wantLine, page)
		}
	}
	fmt.Println("servesmoke: cache hit ok, no re-execution")
	d.kill()
	return nil
}

// backpressureDrainPhase: fill the 1-slot queue for a 429, then SIGTERM
// and verify intake closes while admitted jobs finish.
func backpressureDrainPhase(bin string) error {
	d, err := startDaemon(bin, "-workers", "1", "-queue", "1", "-drain-timeout", "2m")
	if err != nil {
		return err
	}
	defer d.kill()

	longJob := `{"scheme":"Rcast","nodes":30,"connections":5,"duration_sec":3600,"reps":1}`
	code, stA, _, err := d.submit(longJob)
	if err != nil {
		return err
	}
	if code != http.StatusAccepted {
		return fmt.Errorf("submit long A: HTTP %d", code)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		st, err := d.status(stA.ID)
		if err != nil {
			return err
		}
		if st.State == serve.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("long job never started")
		}
		time.Sleep(10 * time.Millisecond)
	}
	code, stB, _, err := d.submit(`{"scheme":"Rcast","nodes":30,"connections":5,"duration_sec":3600,"reps":1,"seed":91}`)
	if err != nil {
		return err
	}
	if code != http.StatusAccepted {
		return fmt.Errorf("submit queued B: HTTP %d", code)
	}
	code, _, hdr, err := d.submit(`{"scheme":"Rcast","nodes":30,"connections":5,"duration_sec":3600,"reps":1,"seed":92}`)
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
	deadline = time.Now().Add(time.Minute)
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
	if drainCode, _, _, drainErr := d.submit(quickJob); drainErr != nil || drainCode != http.StatusServiceUnavailable {
		return fmt.Errorf("submit while draining: HTTP %d err %v, want 503", drainCode, drainErr)
	}
	fmt.Println("servesmoke: drain ok, intake rejected with 503")

	// Cancel the admitted jobs (allowed during drain) so the daemon can
	// finish promptly, and require a clean exit.
	for _, id := range []string{stA.ID, stB.ID} {
		resp, err := http.Post(d.base+"/api/v1/jobs/"+id+"/cancel", "", nil)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("cancel %s during drain: HTTP %d", id, resp.StatusCode)
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
