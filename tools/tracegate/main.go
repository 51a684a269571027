// Command tracegate is the golden-trace regression gate: it re-runs every
// cell of the committed corpus (testdata/corpus) against the current tree
// and trace-diffs the fresh run against the cell's golden artifacts. Any
// behavioral drift — a changed lottery verdict, a reordered event, a
// shifted timestamp — surfaces as the first divergent event, pinned to a
// named cell, instead of as a silently different headline metric.
//
// Each corpus cell is a directory containing:
//
//	cell.json    the run's configuration, in the rcast-serve JobRequest
//	             format (strict JSON; reps must resolve to 1)
//	trace.ndjson the golden packet-lifecycle trace
//	result.json  the golden scenario.Result document
//	serve.check  optional marker: additionally submit the cell to an
//	             in-process rcast-serve instance and require the trace
//	             artifact it stores to match the golden bytes
//
// For every cell the gate checks three things:
//
//  1. Fresh run: the cell's config re-executed at HEAD emits a trace
//     byte-identical to trace.ndjson and a result byte-identical to
//     result.json.
//  2. Replay: the golden trace replayed through internal/replay
//     (decisions injected, RNG bypassed) reproduces itself byte-for-byte
//     and yields the golden result.
//  3. Serve (marked cells): the traced-job artifact served by rcast-serve
//     equals the golden trace.
//
// With -update the gate instead regenerates trace.ndjson and result.json
// from the fresh run (and still requires the replay check to pass before
// writing). Commit the regenerated goldens together with the change that
// moved them, and say why in the commit message — a golden that moves
// without an explanation is a regression until proven otherwise.
//
// Exit status: 0 when every cell passes, 1 on any divergence, 2 on usage
// or execution errors.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rcast/internal/replay"
	"rcast/internal/scenario"
	"rcast/internal/serve"
	"rcast/internal/trace"
)

func main() {
	diverged, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegate:", err)
		os.Exit(2)
	}
	if diverged {
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (bool, error) {
	fs := flag.NewFlagSet("tracegate", flag.ContinueOnError)
	var (
		corpus = fs.String("corpus", "testdata/corpus", "corpus directory (one sub-directory per cell)")
		cell   = fs.String("cell", "", "gate only the named cell (default: all)")
		update = fs.Bool("update", false, "regenerate golden trace.ndjson and result.json from the fresh run")
	)
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	cells, err := listCells(*corpus, *cell)
	if err != nil {
		return false, err
	}
	diverged := false
	for _, name := range cells {
		dir := filepath.Join(*corpus, name)
		var failures []string
		if *update {
			failures, err = updateCell(dir)
		} else {
			failures, err = gateCell(dir)
		}
		if err != nil {
			return false, fmt.Errorf("cell %s: %w", name, err)
		}
		if len(failures) == 0 {
			verb := "ok"
			if *update {
				verb = "updated"
			}
			fmt.Fprintf(out, "tracegate: %-18s %s\n", name, verb)
			continue
		}
		diverged = true
		for _, f := range failures {
			fmt.Fprintf(out, "tracegate: %-18s FAIL: %s\n", name, f)
		}
	}
	return diverged, nil
}

// listCells enumerates corpus cell directories, sorted for stable output.
func listCells(corpus, only string) ([]string, error) {
	entries, err := os.ReadDir(corpus)
	if err != nil {
		return nil, fmt.Errorf("read corpus: %w", err)
	}
	var cells []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if only != "" && e.Name() != only {
			continue
		}
		cells = append(cells, e.Name())
	}
	if len(cells) == 0 {
		if only != "" {
			return nil, fmt.Errorf("no cell %q in %s", only, corpus)
		}
		return nil, fmt.Errorf("no cells in %s", corpus)
	}
	sort.Strings(cells)
	return cells, nil
}

// loadCell parses a cell's configuration.
func loadCell(dir string) (serve.JobRequest, scenario.Config, error) {
	f, err := os.Open(filepath.Join(dir, "cell.json"))
	if err != nil {
		return serve.JobRequest{}, scenario.Config{}, err
	}
	defer f.Close()
	req, err := serve.ParseJobRequest(f)
	if err != nil {
		return req, scenario.Config{}, err
	}
	cfg, reps, err := req.Config()
	if err != nil {
		return req, cfg, err
	}
	if reps != 1 {
		return req, cfg, fmt.Errorf("corpus cells must resolve to reps=1, got %d", reps)
	}
	return req, cfg, nil
}

// freshRun executes the cell's config at HEAD, returning the trace bytes
// and the marshalled result document.
func freshRun(cfg scenario.Config) ([]byte, []byte, error) {
	var buf bytes.Buffer
	cfg.Trace = trace.NewWriter(&buf)
	res, err := scenario.Run(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("run: %w", err)
	}
	body, err := marshalResult(res)
	if err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), body, nil
}

// marshalResult renders the golden result document deterministically.
func marshalResult(res *scenario.Result) ([]byte, error) {
	body, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("marshal result: %w", err)
	}
	return append(body, '\n'), nil
}

// serializeEvents renders events exactly as the live Writer would, so a
// replayed stream can be byte-compared against a golden file.
func serializeEvents(events []trace.Event) []byte {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, e := range events {
		w.Emit(e)
	}
	return buf.Bytes()
}

// gateCell runs every check against a cell's committed goldens, returning
// one message per failed check (empty = cell passes).
func gateCell(dir string) ([]string, error) {
	req, cfg, err := loadCell(dir)
	if err != nil {
		return nil, err
	}
	goldenTrace, err := os.ReadFile(filepath.Join(dir, "trace.ndjson"))
	if err != nil {
		return nil, err
	}
	goldenResult, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		return nil, err
	}

	var failures []string

	// Check 1: fresh run at HEAD matches the goldens.
	gotTrace, gotResult, err := freshRun(cfg)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(gotTrace, goldenTrace) {
		failures = append(failures, describeTraceDiff(goldenTrace, gotTrace))
	}
	if !bytes.Equal(gotResult, goldenResult) {
		failures = append(failures, "fresh run result differs from golden result.json (run with -update after verifying the change is intended)")
	}

	// Check 2: the golden trace replays byte-identically and reproduces
	// the golden result.
	events, err := trace.ReadEvents(bytes.NewReader(goldenTrace))
	if err != nil {
		return nil, fmt.Errorf("parse golden trace: %w", err)
	}
	res, replayed, err := replay.Run(cfg, events)
	if err != nil {
		failures = append(failures, fmt.Sprintf("replay of golden trace: %v", err))
	} else {
		if got := serializeEvents(replayed); !bytes.Equal(got, goldenTrace) {
			failures = append(failures, describeTraceDiff(goldenTrace, got))
		}
		body, err := marshalResult(res)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(body, goldenResult) {
			failures = append(failures, "replayed result differs from golden result.json")
		}
	}

	// Check 3 (marked cells): the rcast-serve trace artifact matches.
	if _, err := os.Stat(filepath.Join(dir, "serve.check")); err == nil {
		artifact, err := serveTrace(req)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(artifact, goldenTrace) {
			failures = append(failures, "serve trace artifact differs from golden trace: "+describeTraceDiff(goldenTrace, artifact))
		}
	}
	return failures, nil
}

// updateCell regenerates a cell's goldens from a fresh run, refusing to
// write artifacts that do not survive their own replay check.
func updateCell(dir string) ([]string, error) {
	_, cfg, err := loadCell(dir)
	if err != nil {
		return nil, err
	}
	gotTrace, gotResult, err := freshRun(cfg)
	if err != nil {
		return nil, err
	}
	events, err := trace.ReadEvents(bytes.NewReader(gotTrace))
	if err != nil {
		return nil, fmt.Errorf("parse fresh trace: %w", err)
	}
	if _, _, err := replay.Run(cfg, events); err != nil {
		return []string{fmt.Sprintf("fresh trace does not replay; refusing to write goldens: %v", err)}, nil
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.ndjson"), gotTrace, 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), gotResult, 0o644); err != nil {
		return nil, err
	}
	return nil, nil
}

// describeTraceDiff names the first divergent event between a golden
// trace and a fresh one, falling back to a byte-level note when either
// side fails to parse.
func describeTraceDiff(golden, got []byte) string {
	evA, errA := trace.ReadEvents(bytes.NewReader(golden))
	evB, errB := trace.ReadEvents(bytes.NewReader(got))
	if errA != nil || errB != nil {
		return fmt.Sprintf("trace bytes differ (golden parse: %v, fresh parse: %v)", errA, errB)
	}
	d, diverged := trace.Diff(evA, evB)
	if !diverged {
		// Same events, different bytes: an encoding change, not a
		// behavioral one — still a golden break.
		return "trace bytes differ but events are identical (NDJSON encoding changed?)"
	}
	atGolden, atHead := d.Sides()
	return fmt.Sprintf("first divergence at event %d:\n  golden: %s\n  head:   %s", d.Index, atGolden, atHead)
}

// serveTrace submits the cell as a traced job to an in-process
// rcast-serve instance and returns the stored trace artifact.
func serveTrace(req serve.JobRequest) ([]byte, error) {
	req.Trace = true
	s := serve.New(serve.Options{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	job, outcome, err := s.Submit(req)
	if err != nil || outcome != serve.OutcomeAccepted {
		return nil, fmt.Errorf("serve submit: outcome=%v err=%v", outcome, err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for !job.State().Terminal() {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("serve job did not finish in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := job.State(); st != serve.StateDone {
		return nil, fmt.Errorf("serve job finished %s", st)
	}
	data, captured := job.Trace()
	if !captured {
		return nil, fmt.Errorf("serve job captured no trace")
	}
	return data, nil
}
