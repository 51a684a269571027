package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// deadCounters lists the summed counters that read 0 in every committed
// corpus cell, each with the reason. Every other uint64 counter in
// MACTotal, DSRTotal and AODVTotal must be non-zero in at least one cell,
// and a listed one that turns non-zero fails too, so the list stays exact.
var deadCounters = map[string]string{
	"MACTotal.AtimFailures":  "zeroed by result.go until the next result epoch",
	"AODVTotal.Expirations":  "never incremented by the AODV router",
	"DSRTotal.GossipDropped": "no corpus cell enables broadcast gossip",
}

// TestCorpusCountersLive reads every committed corpus Result and checks
// that each summed MAC and routing counter is live in some cell, so a
// counter that silently stops counting (or never started) is caught.
func TestCorpusCountersLive(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*", "result.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus results: %v (found %d)", err, len(paths))
	}
	live := map[string]bool{}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		if err := json.Unmarshal(b, &res); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, group := range []string{"MACTotal", "DSRTotal", "AODVTotal"} {
			v := reflect.ValueOf(res).FieldByName(group)
			for i := 0; i < v.NumField(); i++ {
				if v.Field(i).Kind() != reflect.Uint64 {
					continue
				}
				name := group + "." + v.Type().Field(i).Name
				live[name] = live[name] || v.Field(i).Uint() != 0
			}
		}
	}
	for name, reason := range deadCounters {
		if _, ok := live[name]; !ok {
			t.Errorf("dead-counter entry %s names no counter", name)
		}
		if live[name] {
			t.Errorf("%s is listed dead (%s) but is non-zero in a corpus cell; drop it from the list", name, reason)
		}
	}
	for name, ok := range live {
		if _, dead := deadCounters[name]; !ok && !dead {
			t.Errorf("%s reads 0 in all %d corpus cells", name, len(paths))
		}
	}
}
