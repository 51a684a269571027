package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"rcast"
	"rcast/internal/serve"
)

// writePins recomputes every pinned digest from this checkout and writes
// bench/pins.json. It refuses when two paths that must agree do not: the
// traced, audited cells against the plain ones, and the in-process quick
// suite against the rcast-bench command. The serve pin is computed
// in-process, so a run checks the daemon against the library.
func writePins(o runOpts) error {
	p := pins{
		Note:  "Expected output digests; regenerate with `bash bench/run.sh -pin` only when a change is meant to alter simulation results.",
		Cells: make(map[string]map[int64]string),
	}
	for name, w := range cellWorkloads {
		p.Cells[name] = make(map[int64]string)
		for _, seed := range w.seeds {
			d, err := w.cellDigest(seed, false)
			if err != nil {
				return err
			}
			p.Cells[name][seed] = d
			if !w.traceCost {
				continue
			}
			traced, err := w.cellDigest(seed, true)
			if err != nil {
				return err
			}
			if traced != d {
				return fmt.Errorf("%s seed %d: traced digest %s differs from the plain %s", name, seed, traced, d)
			}
		}
	}

	stdout, _, err := runQuickSuite(quickProfile(false))
	if err != nil {
		return err
	}
	p.QuickSuite = digest(stdout)
	bin, err := buildCommand(o, "rcast-bench")
	if err != nil {
		return err
	}
	cliOut, err := exec.Command(bin).Output()
	if err != nil {
		return fmt.Errorf("rcast-bench: %w", err)
	}
	if got := digest(cliOut); got != p.QuickSuite {
		return fmt.Errorf("rcast-bench stdout digest %s differs from the in-process suite's %s", got, p.QuickSuite)
	}

	shape := serveShape(false)
	cells := make(map[string]string)
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
			agg, err := rcast.RunReplications(cfg, reps)
			if err != nil {
				return err
			}
			body, err := serve.MarshalResult(key, reps, agg)
			if err != nil {
				return err
			}
			cells[key] = digest(body)
		}
	}
	p.Serve = pinnedServeDigest(cells)

	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.root, "bench", "pins.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

func (w cellWorkload) cellDigest(seed int64, traced bool) (string, error) {
	cr, err := w.runCell(seed, false, traced)
	if err != nil {
		return "", err
	}
	return resultDigest(cr.res)
}
