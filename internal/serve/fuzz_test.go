package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzJobRequest: no body panics the job decoder, and an accepted body
// (it decodes, resolves and keys) re-marshals and re-parses to the same
// canonical key.
func FuzzJobRequest(f *testing.F) {
	for _, body := range []string{
		quickBody, contractJobBody, `{`, `{"scheme":null}`, `{"scheme":"Rcast","warp":9}`,
		`{"scheme":"ODPM","nodes":12,"connections":3,"duration_sec":10,"static":true,"reps":2,"seed":7}`,
		`{"scheme":"Rcast","policy":"battery","tx_power_dbm":-3,"battery_joules":3000,"nodes":12,"connections":3,"duration_sec":10,"static":true,"reps":2,"seed":7}`,
		`{"scheme":"Rcast","nodes":30,"connections":5,"duration_sec":3600,"reps":1,"trace":true}`,
		`{"scheme":"Rcast","mac":{"cw_min":-1}}`, `{"scheme":"Rcast","dsr":{"cache_capacity":8}}`,
		`{"scheme":"Rcast","nodes":0,"shadow_sigma_db":0,"channel":"shadowing","traffic_start_us":2000000,"mac":{"atim_window_us":40000},"reps":2}`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, err := ParseJobRequest(strings.NewReader(body))
		if err != nil {
			return
		}
		cfg, reps, err := req.Config()
		if err != nil {
			return
		}
		key, err := cfg.CanonicalKey(reps)
		if err != nil {
			return
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal accepted %q: %v", body, err)
		}
		again, err := ParseJobRequest(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("re-parse %s (from %q): %v", b, body, err)
		}
		cfg, reps, err = again.Config()
		if err != nil {
			t.Fatalf("re-resolve %s (from %q): %v", b, body, err)
		}
		if got, err := cfg.CanonicalKey(reps); err != nil || got != key {
			t.Fatalf("key of %s = %s (%v), want %s (from %q)", b, got, err, key, body)
		}
	})
}

// FuzzSweepRequest: no body panics the sweep decoder or its expansion,
// and an accepted body (it decodes and expands) re-marshals and re-parses
// to the same sweep key.
func FuzzSweepRequest(f *testing.F) {
	for _, body := range []string{
		quickSweepBody, contractSweepBody, legacySweep, `{}`, `{"schemes":["Rcast"],"bogus":1}`,
		`{"schemes":["802.11","Rcast"],"rates":[0.4,2],"pauses_sec":[600,-1],"duration_sec":900}`,
		`{"schemes":["Rcast"],"rates":[1.2],"pauses_sec":[-1,75],"fault_presets":["crash"],"gossip_fanouts":[3],"duration_sec":200}`,
		`{"schemes":["Rcast"],"static":true,"duration_sec":100,"axes":{"nodes":[10,20],"pause_sec":[5],"packet_bytes":[256]}}`,
		`{"schemes":["Rcast"],"channels":["disk"],"axes":{"channel":["fading"]}}`,
		`{"scheme":"Rcast","axes":{"mac":[{"cw_min":31},{"cw_min":-1}]}}`,
		`{"schemes":["Rcast"],"axes":{"seed":[1,2,3],"nodes":[10,20,30],"connections":[1,2]}}`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, err := ParseSweepRequest(strings.NewReader(body))
		if err != nil {
			return
		}
		cells, err := req.Cells()
		if err != nil {
			return
		}
		key := SweepKey(cells)
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal accepted %q: %v", body, err)
		}
		again, err := ParseSweepRequest(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("re-parse %s (from %q): %v", b, body, err)
		}
		cells, err = again.Cells()
		if err != nil {
			t.Fatalf("re-expand %s (from %q): %v", b, body, err)
		}
		if got := SweepKey(cells); got != key {
			t.Fatalf("sweep key of %s = %s, want %s (from %q)", b, got, key, body)
		}
	})
}
