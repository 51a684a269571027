package dsr

import (
	"math"
	"testing"

	"rcast/internal/phy"
	"rcast/internal/sim"
)

func path(ids ...int) []phy.NodeID {
	out := make([]phy.NodeID, len(ids))
	for i, id := range ids {
		out[i] = phy.NodeID(id)
	}
	return out
}

func samePath(a, b []phy.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCacheAddAndFind(t *testing.T) {
	c := NewCache(0, 0, 0)
	if !c.Add(0, path(0, 1, 2, 3)) {
		t.Fatal("Add rejected valid path")
	}
	if got := c.Find(0, 3); !samePath(got, path(0, 1, 2, 3)) {
		t.Fatalf("Find(3) = %v", got)
	}
	// Routes through a node are truncated at it.
	if got := c.Find(0, 2); !samePath(got, path(0, 1, 2)) {
		t.Fatalf("Find(2) = %v", got)
	}
	if got := c.Find(0, 9); got != nil {
		t.Fatalf("Find(9) = %v, want nil", got)
	}
	if c.Find(0, 0) != nil {
		t.Fatal("Find(owner) should be nil")
	}
}

func TestCacheFindShortest(t *testing.T) {
	c := NewCache(0, 0, 0)
	c.Add(0, path(0, 1, 2, 3, 4))
	c.Add(0, path(0, 5, 4))
	if got := c.Find(0, 4); !samePath(got, path(0, 5, 4)) {
		t.Fatalf("Find(4) = %v, want shortest 0-5-4", got)
	}
}

func TestCacheRejections(t *testing.T) {
	c := NewCache(0, 0, 0)
	tests := []struct {
		name string
		give []phy.NodeID
	}{
		{name: "wrong owner", give: path(1, 2, 3)},
		{name: "too short", give: path(0)},
		{name: "loop", give: path(0, 1, 2, 1)},
		{name: "empty", give: nil},
	}
	for _, tt := range tests {
		if c.Add(0, tt.give) {
			t.Errorf("%s: Add accepted %v", tt.name, tt.give)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after rejected adds", c.Len())
	}
}

func TestCacheDedupAndPrefix(t *testing.T) {
	c := NewCache(0, 0, 0)
	c.Add(0, path(0, 1, 2, 3))
	if c.Add(0, path(0, 1, 2, 3)) {
		t.Fatal("exact duplicate accepted")
	}
	if c.Add(0, path(0, 1, 2)) {
		t.Fatal("prefix of cached route accepted")
	}
	if !c.Add(0, path(0, 1, 2, 3, 4)) {
		t.Fatal("extension of cached route rejected")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestCacheInsertCallbackAndCopySemantics(t *testing.T) {
	c := NewCache(0, 0, 0)
	var got [][]phy.NodeID
	c.SetInsertCallback(func(p []phy.NodeID) { got = append(got, p) })
	src := path(0, 1, 2)
	c.Add(0, src)
	src[1] = 99 // caller mutates its slice; cache must hold a copy
	if len(got) != 1 || !samePath(got[0], path(0, 1, 2)) {
		t.Fatalf("callback got %v", got)
	}
	if found := c.Find(0, 2); !samePath(found, path(0, 1, 2)) {
		t.Fatalf("cache aliased caller slice: %v", found)
	}
	// Find results are also copies.
	found := c.Find(0, 2)
	found[1] = 42
	if again := c.Find(0, 2); !samePath(again, path(0, 1, 2)) {
		t.Fatal("Find returned aliased storage")
	}
}

func TestCacheRemoveLink(t *testing.T) {
	c := NewCache(0, 0, 0)
	c.Add(0, path(0, 1, 2, 3)) // uses link 2-3
	c.Add(0, path(0, 4, 5))
	c.Add(0, path(0, 3, 2)) // uses link 3-2 (reverse direction)
	if n := c.RemoveLink(2, 3); n != 2 {
		t.Fatalf("RemoveLink affected %d, want 2", n)
	}
	// 0-1-2-3 truncated to 0-1-2; 0-3-2 truncated to 0-3; 0-4-5 untouched.
	if got := c.Find(0, 3); !samePath(got, path(0, 3)) {
		t.Fatalf("Find(3) = %v, want direct 0-3 remnant", got)
	}
	if got := c.Find(0, 2); !samePath(got, path(0, 1, 2)) {
		t.Fatalf("Find(2) = %v", got)
	}
	if got := c.Find(0, 5); got == nil {
		t.Fatal("unrelated route removed")
	}
}

func TestCacheRemoveLinkDropsShortRemnants(t *testing.T) {
	c := NewCache(0, 0, 0)
	c.Add(0, path(0, 1, 2))
	c.RemoveLink(0, 1) // remnant would be just [0]
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
}

func TestCacheCapacityFIFO(t *testing.T) {
	c := NewCache(0, 2, 0)
	c.Add(0, path(0, 1))
	c.Add(0, path(0, 2))
	c.Add(0, path(0, 3))
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if c.Find(0, 1) != nil {
		t.Fatal("oldest entry not evicted")
	}
	if c.Find(0, 3) == nil {
		t.Fatal("newest entry missing")
	}
	_, ev, _, _ := c.Stats()
	if ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestCacheLifetime(t *testing.T) {
	c := NewCache(0, 0, 10*sim.Second)
	c.Add(0, path(0, 1, 2))
	if c.Find(9*sim.Second, 2) == nil {
		t.Fatal("entry expired early")
	}
	if c.Find(11*sim.Second, 2) != nil {
		t.Fatal("entry survived past lifetime")
	}
	if c.HasRouteTo(11*sim.Second, 2) {
		t.Fatal("HasRouteTo sees expired entry")
	}
}

func TestCacheHasRouteToDoesNotCountStats(t *testing.T) {
	c := NewCache(0, 0, 0)
	c.Add(0, path(0, 1))
	c.HasRouteTo(0, 1)
	c.HasRouteTo(0, 9)
	_, _, hits, misses := c.Stats()
	if hits != 0 || misses != 0 {
		t.Fatalf("HasRouteTo counted hits=%d misses=%d", hits, misses)
	}
}

func TestCacheRoutesSnapshot(t *testing.T) {
	c := NewCache(0, 0, 0)
	c.Add(0, path(0, 1, 2))
	routes := c.Routes(0)
	if len(routes) != 1 {
		t.Fatalf("Routes len = %d", len(routes))
	}
	routes[0][1] = 77
	if got := c.Find(0, 2); !samePath(got, path(0, 1, 2)) {
		t.Fatal("Routes returned aliased storage")
	}
}

func TestCacheHitMissStats(t *testing.T) {
	c := NewCache(0, 0, 0)
	c.Add(0, path(0, 1))
	c.Find(0, 1)
	c.Find(0, 2)
	_, _, hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

// TestCacheHintIsOnlyAHint points the hint slot of [0 1 2] at its
// covering entry [0 1 2 3], then makes that hint stale in each way it can
// go stale, and requires Add to fall back to the scan and accept the
// probe, in lockstep with the reference cache.
func TestCacheHintIsOnlyAHint(t *testing.T) {
	// collide finds a one-hop path that shares a hint slot with [0 1 2]
	// but is not covered by [0 1 2 3].
	collide := func() []phy.NodeID {
		want := hintSlot(path(0, 1, 2))
		for n := 4; ; n++ {
			if p := path(0, n); hintSlot(p) == want {
				return p
			}
		}
	}
	tests := []struct {
		name     string
		capacity int
		lifetime sim.Time
		probe    []phy.NodeID // nil: [0 1 2] itself
		perturb  func(p *cachePair) sim.Time
	}{
		{name: "covering entry evicted", capacity: 2, perturb: func(p *cachePair) sim.Time {
			p.add(0, path(0, 4))
			p.add(0, path(0, 5))
			return 0
		}},
		{name: "covering entry expired", lifetime: 10 * sim.Second, perturb: func(*cachePair) sim.Time {
			return 11 * sim.Second
		}},
		{name: "covering entry cut short", perturb: func(p *cachePair) sim.Time {
			p.removeLink(2, 1)
			return 0
		}},
		{name: "cache cleared", perturb: func(p *cachePair) sim.Time {
			p.clear()
			return 0
		}},
		{name: "slot shared by another path", probe: collide(), perturb: func(*cachePair) sim.Time {
			return 0
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := newCachePair(t, 0, tt.capacity, tt.lifetime, 9)
			p.add(0, path(0, 1, 2, 3))
			p.add(0, path(0, 1, 2))
			cover := p.got.entries[0].seq
			probe := tt.probe
			if probe == nil {
				probe = path(0, 1, 2)
			}
			now := tt.perturb(p)
			p.now = now
			if got := p.got.hints[hintSlot(probe)]; got != cover {
				t.Fatalf("hint for %v = %d, want the stale %d", probe, got, cover)
			}
			if !p.got.Add(now, probe) || !p.want.Add(now, probe) {
				t.Fatalf("Add(%v) rejected behind a stale hint", probe)
			}
			p.check(now)
		})
	}
}

// TestCacheNumbersWrap runs the cache in lockstep with the reference while
// its entry numbers wrap past 2^32, through evictions, a link removal and
// hint hits on both sides of the wrap.
func TestCacheNumbersWrap(t *testing.T) {
	p := newCachePair(t, 0, 4, 0, 9)
	p.got.nextSeq = math.MaxUint32 - 2
	for i := 0; i < 12; i++ {
		p.add(0, path(0, 1+i%6, 7))
		p.add(0, path(0, 1+i%6))
		if i == 5 {
			p.removeLink(3, 7)
		}
		p.check(0)
	}
}
