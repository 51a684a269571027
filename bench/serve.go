package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"rcast"
	"rcast/internal/experiments"
	"rcast/internal/serve"
)

// The serve-mixed workload drives an rcast-serve daemon over HTTP with a
// closed loop of two connections. Each connection draws its own seeded
// sequence of operations: 50% fresh jobs (cache misses that queue, run
// and insert), 40% resubmissions of one of its recently completed cells
// (cache hits that only read), and 10% four-cell sweeps, two of whose
// cells it has computed before and two it has not. Because every
// connection works on its own cells, its sequence does not depend on how
// the two interleave.

const (
	serveConns = 2
	// serveWorkers is the daemon's job executors. A sweep fans its cells
	// out over as many goroutines again, so one worker bounds the daemon
	// at two simulations at once, one per core of the 2-core baseline host;
	// with two workers ten runs spread 21% against 10%, interleaved in one
	// window.
	serveWorkers = 1
	// serveSpawns is how many times set-up starts the daemon; set-up time
	// is their median and the last one serves the load. A spawn takes a
	// few milliseconds, so many cost little and steady the median.
	serveSpawns = 15
	// hitWindow bounds resubmissions to a connection's most recent cells,
	// which stay far inside the daemon's 256-entry result cache.
	hitWindow = 32
	// pinGroups is how many of the first groups have their slot-0 and
	// slot-1 results pinned; each connection computes them in its first
	// eight fresh jobs.
	pinGroups = 8
)

var (
	serveSchemes = []string{"802.11", "ODPM", "Rcast"}
	serveRates   = []float64{0.2, 0.4, 1.0, 2.0}
)

// cellShape is the simulated network every serve cell shares.
type cellShape struct {
	nodes, conns                     int
	fieldW, fieldH, durSec, pauseSec float64
}

// serveShape is the quick profile's network (40 nodes for 150 s), or a
// 20-node, 30 s one for the smoke test.
func serveShape(toy bool) cellShape {
	if toy {
		return cellShape{nodes: 20, conns: 4, fieldW: 600, fieldH: 300, durSec: 30, pauseSec: 15}
	}
	q := experiments.Quick()
	return cellShape{
		nodes: q.Nodes, conns: q.Connections, fieldW: q.FieldW, fieldH: q.FieldH,
		durSec: q.Duration.Seconds(), pauseSec: q.PauseMobile.Seconds(),
	}
}

// The cells form groups: group g is one scheme and simulation seed with
// four packet-rate slots. Fresh jobs fill slots 0 and 1 of a connection's
// next group; a sweep over all four rates of a filled group then finds
// two cells cached and computes the other two.
func (sh cellShape) job(group, slot int) serve.JobRequest {
	seed, pause := int64(group+1), sh.pauseSec
	return serve.JobRequest{
		Scheme:      serveSchemes[group%len(serveSchemes)],
		Nodes:       sh.nodes,
		FieldW:      sh.fieldW,
		FieldH:      sh.fieldH,
		Connections: sh.conns,
		PacketRate:  serveRates[(group+slot)%len(serveRates)],
		DurationSec: sh.durSec,
		PauseSec:    &pause,
		Seed:        &seed,
	}
}

func (sh cellShape) sweep(group int) serve.SweepRequest {
	seed := int64(group + 1)
	rates := make([]float64, len(serveRates))
	for slot := range rates {
		rates[slot] = serveRates[(group+slot)%len(serveRates)]
	}
	return serve.SweepRequest{
		Schemes:     []string{serveSchemes[group%len(serveSchemes)]},
		Rates:       rates,
		PausesSec:   []float64{sh.pauseSec},
		Nodes:       sh.nodes,
		FieldW:      sh.fieldW,
		FieldH:      sh.fieldH,
		Connections: sh.conns,
		DurationSec: sh.durSec,
		Seed:        &seed,
	}
}

// daemon is a running rcast-serve process.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	logged chan struct{} // closed once its stderr reaches EOF
	mu     sync.Mutex
	log    bytes.Buffer
	exited bool
}

// startDaemon launches bin on a free loopback port and returns once
// /healthz answers 200, with the time that took.
func startDaemon(bin string) (*daemon, time.Duration, error) {
	start := time.Now()
	d := &daemon{
		cmd:    exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(serveWorkers)),
		logged: make(chan struct{}),
	}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logged)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log.WriteString(line + "\n")
			d.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.logged:
		d.kill()
		return nil, 0, fmt.Errorf("rcast-serve exited before listening: %s", d.logText())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, 0, errors.New("rcast-serve did not start listening within 30s")
	}
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("rcast-serve /healthz not ready within 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// stop sends SIGTERM and waits for the graceful drain; the daemon must
// exit 0.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.logged:
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("rcast-serve did not drain within 60s of SIGTERM")
	}
	d.exited = true
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("rcast-serve drain: %v: %s", err, d.logText())
	}
	return nil
}

// kill ends the daemon at once if it is still running and waits for it.
func (d *daemon) kill() {
	if d.exited {
		return
	}
	d.exited = true
	_ = d.cmd.Process.Kill() // it may already have exited
	<-d.logged
	_ = d.cmd.Wait() // killed: the exit status carries nothing
}

// client is one closed-loop connection's operation sequence and
// measurements.
type client struct {
	id    int
	rng   *rand.Rand
	http  *http.Client
	base  string
	shape cellShape

	nextGroup int // this connection's groups are id, id+2, id+4, ...
	filled    int // slots of the current group filled by fresh jobs
	// sweepable is the group most recently filled by fresh jobs, or -1.
	// Sweeping the newest group keeps its two computed cells well inside
	// the daemon's result cache.
	sweepable int
	done      []doneCell // completed cells, oldest first
	digests   map[string]string
	bodies    [][]byte // result bodies this connection caused to be computed

	ops, failed, refused     int
	hits, sweepCells, swHits int
	missMS, hitMS, sweepMS   []float64
	submitMS, fetchMS        []float64
	queueMS, runMS, overMS   []float64
	failures                 []string
}

type doneCell struct {
	req serve.JobRequest
	key string
}

var errRefused = errors.New("refused with 429")

func (c *client) loop(deadline time.Time) {
	for time.Now().Before(deadline) {
		c.ops++
		if err := c.op(); err != nil {
			c.failed++
			if errors.Is(err, errRefused) {
				c.refused++
			}
			c.failures = append(c.failures, err.Error())
		}
	}
}

func (c *client) op() error {
	x := c.rng.Float64()
	switch {
	case x < 0.5:
	case x < 0.9 && len(c.done) > 0:
		return c.hit(c.done[len(c.done)-1-c.rng.Intn(min(hitWindow, len(c.done)))])
	case x >= 0.9 && c.sweepable >= 0:
		g := c.sweepable
		c.sweepable = -1
		return c.sweep(g)
	}
	g := c.id + serveConns*c.nextGroup
	slot := c.filled
	if c.filled++; c.filled == 2 {
		c.sweepable = g
		c.nextGroup, c.filled = c.nextGroup+1, 0
	}
	return c.fresh(c.shape.job(g, slot))
}

// fresh submits a cell no one has asked for: it queues, runs and is
// cached. Its latency runs from submission to the SSE "done" event.
func (c *client) fresh(req serve.JobRequest) error {
	start := time.Now()
	var st serve.Status
	code, err := c.post("/api/v1/jobs", req, &st)
	if err != nil {
		return err
	}
	submitted := time.Since(start)
	if code != http.StatusAccepted || st.CacheHit {
		return fmt.Errorf("fresh job answered %d (cache_hit=%v)", code, st.CacheHit)
	}
	var fin serve.Status
	err = c.events("/api/v1/jobs/"+st.ID+"/events", func(data []byte) (bool, error) {
		if err := json.Unmarshal(data, &fin); err != nil {
			return false, err
		}
		return fin.State.Terminal(), nil
	})
	if err != nil {
		return err
	}
	latency := time.Since(start)
	if fin.State != serve.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, fin.State, fin.Error)
	}
	fetchStart := time.Now()
	body, err := c.get("/api/v1/jobs/" + st.ID + "/result")
	if err != nil {
		return err
	}
	c.fetchMS = append(c.fetchMS, ms(time.Since(fetchStart)))
	c.missMS = append(c.missMS, ms(latency))
	c.submitMS = append(c.submitMS, ms(submitted))
	c.queueMS = append(c.queueMS, ms(fin.StartedAt.Sub(fin.SubmittedAt)))
	c.runMS = append(c.runMS, ms(fin.FinishedAt.Sub(fin.StartedAt)))
	c.overMS = append(c.overMS, ms(latency-fin.FinishedAt.Sub(fin.SubmittedAt)))
	return c.record(req, st.Key, body)
}

// hit resubmits a cell this connection has completed: the daemon answers
// from its cache. Its latency runs from submission until the result bytes
// arrive, which must equal the bytes first returned.
func (c *client) hit(cell doneCell) error {
	start := time.Now()
	var st serve.Status
	code, err := c.post("/api/v1/jobs", cell.req, &st)
	if err != nil {
		return err
	}
	if code != http.StatusOK || !st.CacheHit {
		return fmt.Errorf("resubmitted job answered %d (cache_hit=%v)", code, st.CacheHit)
	}
	body, err := c.get("/api/v1/jobs/" + st.ID + "/result")
	if err != nil {
		return err
	}
	c.hitMS = append(c.hitMS, ms(time.Since(start)))
	c.hits++
	if got := digest(body); got != c.digests[cell.key] {
		return fmt.Errorf("cache hit for %s returned different bytes", cell.key)
	}
	return nil
}

// sweep submits the four rates of a group whose first two slots this
// connection computed; its latency runs until the terminal SSE event.
func (c *client) sweep(group int) error {
	start := time.Now()
	var st serve.SweepStatus
	code, err := c.post("/api/v1/sweeps", c.shape.sweep(group), &st)
	if err != nil {
		return err
	}
	if code != http.StatusAccepted {
		return fmt.Errorf("sweep answered %d", code)
	}
	var fin serve.SweepStatus
	err = c.events("/api/v1/sweeps/"+st.ID+"/events", func(data []byte) (bool, error) {
		var ev serve.SweepEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			return false, err
		}
		fin = ev.Sweep
		return ev.Type == "sweep" && fin.State.Terminal(), nil
	})
	if err != nil {
		return err
	}
	c.sweepMS = append(c.sweepMS, ms(time.Since(start)))
	if fin.State != serve.StateDone {
		return fmt.Errorf("sweep %s ended %s: %s", st.ID, fin.State, fin.Error)
	}
	c.sweepCells += fin.Cells
	c.swHits += fin.LocalHits
	if fin.Computed != 2 || fin.LocalHits != 2 {
		return fmt.Errorf("sweep %s computed %d and found %d cached, want 2 and 2", st.ID, fin.Computed, fin.LocalHits)
	}
	body, err := c.get("/api/v1/sweeps/" + st.ID + "/result")
	if err != nil {
		return err
	}
	var doc serve.SweepResult
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("sweep result: %w", err)
	}
	for _, cell := range doc.Cells {
		if want, ok := c.digests[cell.Key]; ok {
			if digest(cell.Result) != want {
				return fmt.Errorf("sweep %s cell %s differs from the job result", st.ID, cell.Key)
			}
			continue
		}
		if err := c.record(cell.Request, cell.Key, cell.Result); err != nil {
			return err
		}
	}
	return nil
}

// record keeps a computed cell for later resubmission and for the work
// counts.
func (c *client) record(req serve.JobRequest, key string, body []byte) error {
	if !bytes.Contains(body, []byte(`"key":"`+key+`"`)) {
		return fmt.Errorf("result body does not carry key %s", key)
	}
	c.digests[key] = digest(body)
	c.done = append(c.done, doneCell{req: req, key: key})
	c.bodies = append(c.bodies, body)
	return nil
}

// merge adds another connection's measurements to c's.
func (c *client) merge(o *client) {
	c.ops += o.ops
	c.failed += o.failed
	c.refused += o.refused
	c.hits += o.hits
	c.sweepCells += o.sweepCells
	c.swHits += o.swHits
	c.missMS = append(c.missMS, o.missMS...)
	c.hitMS = append(c.hitMS, o.hitMS...)
	c.sweepMS = append(c.sweepMS, o.sweepMS...)
	c.submitMS = append(c.submitMS, o.submitMS...)
	c.fetchMS = append(c.fetchMS, o.fetchMS...)
	c.queueMS = append(c.queueMS, o.queueMS...)
	c.runMS = append(c.runMS, o.runMS...)
	c.overMS = append(c.overMS, o.overMS...)
	c.bodies = append(c.bodies, o.bodies...)
	for k, v := range o.digests {
		c.digests[k] = v
	}
}

// report stores the serve layer's metrics for a load that lasted wall.
func (c *client) report(vals map[string]float64, wall time.Duration) {
	vals["serve.ops_per_s"] = float64(c.ops) / wall.Seconds()
	vals["serve.job_latency_p50_ms"] = median(c.missMS)
	vals["serve.hit_latency_p50_ms"] = median(c.hitMS)
	vals["serve.sweep_latency_p50_ms"] = median(c.sweepMS)
	vals["serve.job_latency_n"] = float64(len(c.missMS))
	vals["serve.hit_latency_n"] = float64(len(c.hitMS))
	if _, v, ok := tail(c.missMS); ok {
		vals["serve.job_latency_tail_ms"] = v
	}
	if _, v, ok := tail(c.hitMS); ok {
		vals["serve.hit_latency_tail_ms"] = v
	}
	vals["serve.submit_ms_p50"] = median(c.submitMS)
	vals["serve.queue_wait_ms_p50"] = median(c.queueMS)
	vals["serve.run_ms_p50"] = median(c.runMS)
	vals["serve.overhead_ms_p50"] = median(c.overMS)
	vals["serve.result_fetch_ms_p50"] = median(c.fetchMS)
	requested := c.hits + len(c.missMS) + c.sweepCells
	vals["serve.cache_hit_ratio"] = ratio(float64(c.hits+c.swHits), float64(requested))
	vals["serve.sweep_cells_computed"] = float64(c.sweepCells - c.swHits)
	vals["serve.refused"] = float64(c.refused)
}

func (c *client) post(path string, body, into any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		return resp.StatusCode, errRefused
	case http.StatusOK, http.StatusAccepted:
		return resp.StatusCode, json.Unmarshal(data, into)
	}
	return resp.StatusCode, fmt.Errorf("POST %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(data))
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// events reads a server-sent event stream, handing each event's data to
// each until it reports the stream's terminal event.
func (c *client) events(path string, each func(data []byte) (bool, error)) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", path, resp.StatusCode)
	}
	r := bufio.NewReader(resp.Body)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return fmt.Errorf("%s ended before a terminal event: %w", path, err)
		}
		data, ok := strings.CutPrefix(strings.TrimSuffix(line, "\n"), "data: ")
		if !ok {
			continue
		}
		last, err := each([]byte(data))
		if err != nil || last {
			// Drain the (now ending) stream so the connection is reused.
			io.Copy(io.Discard, r)
			return err
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// buildCommand builds one of the repository's commands into the build
// directory and returns the binary's path.
func buildCommand(o runOpts, name string) (string, error) {
	bin := filepath.Join(o.build, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = o.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/%s: %v\n%s", name, err, out)
	}
	return bin, nil
}

// pinnedServeDigest combines the digests of the pinned cells, ordered by
// key.
func pinnedServeDigest(digests map[string]string) string {
	keys := make([]string, 0, len(digests))
	for k := range digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, digests[k])
	}
	return digest([]byte(b.String()))
}

func runServeWorkload(o runOpts) (*outcome, error) {
	out := newOutcome()
	bin, err := buildCommand(o, "rcast-serve")
	if err != nil {
		return nil, err
	}
	var (
		setups []float64
		d      *daemon
	)
	for i := 0; i < serveSpawns; i++ {
		spawned, setup, err := startDaemon(bin)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		if i == serveSpawns-1 {
			d = spawned
			break
		}
		// Not a graceful stop: the daemon answers /healthz before it
		// installs its SIGTERM handler, so a signal this early would kill
		// it rather than drain it. The drain is checked after the load.
		spawned.kill()
	}
	defer d.kill()
	out.vals["setup_s"] = median(setups)

	shape := serveShape(o.toy)
	transport := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}
	defer transport.CloseIdleConnections()
	clients := make([]*client, serveConns)
	for i := range clients {
		clients[i] = &client{
			id:        i,
			rng:       rand.New(rand.NewSource(o.seed*serveConns + int64(i))),
			http:      &http.Client{Transport: transport},
			base:      d.base,
			shape:     shape,
			sweepable: -1,
			digests:   make(map[string]string),
		}
	}

	pid := d.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	profPath := filepath.Join(o.build, fmt.Sprintf("serve-profile-%d.pprof", os.Getpid()))
	profDone := make(chan error, 1)
	if o.trace {
		// The daemon profiles itself for the load's duration, over a
		// connection of its own outside the load's two.
		defer os.Remove(profPath)
		go func() { profDone <- fetchProfile(d.base, profPath, o.seconds) }()
	}
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.loop(deadline)
		}(c)
	}
	wg.Wait()
	phaseWall := time.Since(start)
	if o.trace {
		if err := <-profDone; err != nil {
			return nil, err
		}
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(pid)
	if err != nil {
		return nil, err
	}
	out.attempted++
	out.check(d.stop())

	total := &client{digests: make(map[string]string)}
	for _, c := range clients {
		for i, msg := range c.failures {
			if i == 5 {
				fmt.Fprintf(os.Stderr, "connection %d: %d more failures\n", c.id, len(c.failures)-i)
				break
			}
			fmt.Fprintf(os.Stderr, "connection %d: %s\n", c.id, msg)
		}
		total.merge(c)
	}
	out.attempted += total.ops
	out.failed += total.failed
	if !o.toy {
		out.check(checkServePins(shape, total.digests))
	}
	var counts workCounts
	for _, body := range total.bodies {
		var doc struct {
			Results []*rcast.Result `json:"results"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return nil, fmt.Errorf("result body: %w", err)
		}
		for _, res := range doc.Results {
			counts.add(countsOf(res, nil))
		}
	}

	out.vals["sim_s_per_wall_s"] = float64(len(total.bodies)) * shape.durSec / phaseWall.Seconds()
	out.vals["peak_rss_mb"] = rss
	out.series("job latency, cache miss (ms)", total.missMS)
	out.series("hit latency (ms)", total.hitMS)
	out.series("sweep latency (ms)", total.sweepMS)
	counts.report(out.vals)
	total.report(out.vals, phaseWall)
	out.vals["experiments.core_util"] = (cpu1 - cpu0).Seconds() / (phaseWall.Seconds() * float64(runtime.NumCPU()))
	if o.trace {
		split, err := attribute(bin, profPath, 100)
		if err != nil {
			return nil, err
		}
		reportSplit(out.vals, split, counts)
	}
	return out, nil
}

// fetchProfile saves the daemon's own CPU profile over the next seconds.
func fetchProfile(base, path string, seconds float64) error {
	secs := int(seconds + 0.999)
	resp, err := http.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", base, secs))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("daemon profile: %d", resp.StatusCode)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkServePins compares the pinned cells' results with pins.json.
func checkServePins(shape cellShape, digests map[string]string) error {
	pins := make(map[string]string)
	for g := 0; g < pinGroups; g++ {
		for slot := 0; slot < 2; slot++ {
			cfg, reps, err := shape.job(g, slot).Config()
			if err != nil {
				return err
			}
			key, err := cfg.CanonicalKey(reps)
			if err != nil {
				return err
			}
			d, ok := digests[key]
			if !ok {
				return fmt.Errorf("pinned serve cell (group %d, slot %d) was never computed", g, slot)
			}
			pins[key] = d
		}
	}
	if got := pinnedServeDigest(pins); got != pinned.Serve {
		return fmt.Errorf("serve results digest %s, pinned %s", got, pinned.Serve)
	}
	return nil
}
