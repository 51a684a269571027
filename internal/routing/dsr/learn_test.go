package dsr

import (
	"math/rand"
	"testing"

	"rcast/internal/phy"
	"rcast/internal/routing"
	"rcast/internal/sim"
)

// Route learning runs for every decoded unicast at every listener, and
// almost every candidate path is already cached. These tests pin that
// rejection path and the overhearing entry point as allocation-free; the
// benchmarks time them.

// fullCache returns a cache for node 0 holding capacity distinct loop-free
// routes of 2–5 hops over nodes 1..40, and the routes themselves.
func fullCache(capacity int) (*Cache, [][]phy.NodeID) {
	c := NewCache(0, capacity, 0)
	rng := rand.New(rand.NewSource(1)) //nolint:gosec // test randomness
	var routes [][]phy.NodeID
	for len(routes) < capacity {
		p := []phy.NodeID{0}
		for hops := 2 + rng.Intn(4); len(p) <= hops; {
			if n := phy.NodeID(1 + rng.Intn(40)); indexOf(p, n) < 0 {
				p = append(p, n)
			}
		}
		if c.Add(0, p) {
			routes = append(routes, p)
		}
	}
	return c, routes
}

// churnCache returns a full cache of capacity 64 with insert and evict
// callbacks installed, as every Router has, and 128 distinct three-hop
// routes none of which covers another, all offered once. Cycling through
// the routes, each Add accepts the route and evicts the oldest.
func churnCache() (*Cache, [][]phy.NodeID) {
	c := NewCache(0, 64, 0)
	c.SetInsertCallback(func([]phy.NodeID) {})
	c.SetEvictCallback(func([]phy.NodeID) {})
	routes := make([][]phy.NodeID, 128)
	for i := range routes {
		routes[i] = path(0, 1+i/10, 50+i%10, 99)
		c.Add(0, routes[i])
	}
	return c, routes
}

// learningRouter returns a router for node 9 that has already learned both
// directions of the route 0-1-2-3-4 overheard from node 2.
func learningRouter() (*Router, []phy.NodeID) {
	r := New(9, sim.NewScheduler(), nil, nil, DefaultConfig(), routing.Hooks{})
	route := path(0, 1, 2, 3, 4)
	r.learnFromTransmitter(0, 2, route)
	return r, route
}

func TestLearnAllocFree(t *testing.T) {
	c, routes := fullCache(64)
	prefix := routes[10][:len(routes[10])-1]
	if got := testing.AllocsPerRun(100, func() {
		if c.Add(0, prefix) {
			t.Fatal("cached prefix accepted")
		}
	}); got != 0 {
		t.Errorf("rejecting a cached prefix: %v allocs/op, want 0", got)
	}

	// One op is 1,000 insertions, so an allocation made only every few
	// dozen of them (a column regrowing, say) still counts.
	c, routes = churnCache()
	_, before, _, _ := c.Stats()
	if got := testing.AllocsPerRun(10, func() {
		for i := range 1000 {
			if !c.Add(0, routes[i%len(routes)]) {
				t.Fatal("evicted route rejected")
			}
		}
	}); got != 0 {
		t.Errorf("accepting 1000 routes into a full cache: %v allocs, want 0", got)
	}
	if _, evictions, _, _ := c.Stats(); evictions-before != 11*1000 {
		t.Fatalf("%d evictions, want one per accepted route", evictions-before)
	}

	r, route := learningRouter()
	inserts, _, _, _ := r.Cache().Stats()
	if got := testing.AllocsPerRun(100, func() {
		r.learnFromTransmitter(0, 2, route)
	}); got != 0 {
		t.Errorf("learnFromTransmitter on a known route: %v allocs/op, want 0", got)
	}
	if again, _, _, _ := r.Cache().Stats(); again != inserts {
		t.Fatalf("relearning a known route inserted %d paths", again-inserts)
	}
}

// BenchmarkCacheAdd offers a full 64-route cache a prefix of one of its
// own routes, cycling through them: the rejection that dominates
// overhearing.
func BenchmarkCacheAdd(b *testing.B) {
	c, routes := fullCache(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := routes[i%len(routes)]
		c.Add(0, p[:len(p)-1])
	}
}

// BenchmarkCacheInsertEvict offers a full 64-route cache, with callbacks
// installed, a route it no longer holds, so every call accepts it and
// evicts the oldest: the insert-heavy half of the paper cell's calls.
func BenchmarkCacheInsertEvict(b *testing.B) {
	c, routes := churnCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(0, routes[i%len(routes)])
	}
}

// BenchmarkLearnFromTransmitter overhears a known route from a transmitter
// in its middle, so both candidate paths are built and rejected.
func BenchmarkLearnFromTransmitter(b *testing.B) {
	r, route := learningRouter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.learnFromTransmitter(0, 2, route)
	}
}
