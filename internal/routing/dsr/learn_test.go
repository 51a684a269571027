package dsr

import (
	"fmt"
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
	r.cache.Learn(0, 2, route)
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

	// A memo miss builds both paths, has Add reject them and records the
	// pair. Bumping the generation before each call, as any change to the
	// route set would, makes every call a miss.
	r, route := learningRouter()
	inserts, _, _, _ := r.Cache().Stats()
	if got := testing.AllocsPerRun(100, func() {
		r.cache.gen++
		r.cache.Learn(0, 2, route)
	}); got != 0 {
		t.Errorf("Learn on a known route, memo miss: %v allocs/op, want 0", got)
	}
	if skips := r.cache.learnSkips; skips != 0 {
		t.Fatalf("%d relearnings at a new generation settled by the memo, want 0", skips)
	}

	// A route longer than a slot bypasses the memo: every call builds and
	// rejects both paths.
	long := path(0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11)
	r.cache.Learn(0, 2, long)
	inserts, _, _, _ = r.Cache().Stats()
	if got := testing.AllocsPerRun(100, func() {
		r.cache.Learn(0, 2, long)
	}); got != 0 {
		t.Errorf("Learn on a known route too long for the memo: %v allocs/op, want 0", got)
	}
	if skips := r.cache.learnSkips; skips != 0 {
		t.Fatalf("%d relearnings of a route too long for a slot settled by the memo, want 0", skips)
	}

	// A memo hit: the warm-up call records the pair, and the 100 timed
	// calls return before building a path.
	if got := testing.AllocsPerRun(100, func() {
		r.cache.Learn(0, 2, route)
	}); got != 0 {
		t.Errorf("Learn on a known route, memo hit: %v allocs/op, want 0", got)
	}
	if again, _, _, _ := r.Cache().Stats(); again != inserts {
		t.Fatalf("relearning known routes inserted %d paths", again-inserts)
	}
	if skips := r.cache.learnSkips; skips != 100 {
		t.Fatalf("%d of 101 relearnings settled by the memo, want 100", skips)
	}
}

// TestCacheLearnMemoMatchesReference drives the memoized cache and the
// memo-free reference with random Learn, Find, Add, RemoveLink and Clear
// calls, the
// clock stepping before some of them, and requires every observable to
// agree after every call. Routes come from a small pool, so most Learns
// repeat a pair the cache has absorbed, and lookups repeat too. Capacity
// 4 evicts on most inserts; a 3 s lifetime expires entries between calls.
func TestCacheLearnMemoMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		capacity int
		lifetime sim.Time
	}{{4, 0}, {64, 0}, {4, 3 * sim.Second}, {64, 3 * sim.Second}} {
		t.Run(fmt.Sprintf("cap%d-life%ds", tc.capacity, tc.lifetime/sim.Second), func(t *testing.T) {
			var skips uint64
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed)) //nolint:gosec // test randomness
				p := newCachePair(t, 0, tc.capacity, tc.lifetime, 9)
				type heard struct {
					from  phy.NodeID
					route []phy.NodeID
				}
				pool := make([]heard, 12)
				for i := range pool {
					var route []phy.NodeID
					for _, n := range rng.Perm(10)[:2+rng.Intn(6)] {
						route = append(route, phy.NodeID(n))
					}
					if rng.Intn(6) == 0 { // a looped route: both paths rejected
						route = append(route, route[0])
					}
					pool[i] = heard{route[rng.Intn(len(route))], route}
				}
				var now sim.Time
				for step := 0; step < 300; step++ {
					if rng.Intn(4) == 0 {
						now += sim.Time(rng.Intn(1500)) * sim.Millisecond
					}
					switch k := rng.Intn(40); {
					case k < 26:
						h := pool[rng.Intn(len(pool))]
						p.learn(now, h.from, h.route)
					case k < 34:
						p.find(now, phy.NodeID(rng.Intn(10)))
					case k < 36:
						h := pool[rng.Intn(len(pool))]
						p.add(now, append(path(0), h.route[:1+rng.Intn(len(h.route))]...))
					case k < 39:
						p.removeLink(phy.NodeID(rng.Intn(10)), phy.NodeID(rng.Intn(10)))
					default:
						p.clear()
					}
					p.check(now)
				}
				skips += p.got.learnSkips
			}
			if skips == 0 {
				t.Fatal("the learn memo settled no call")
			}
			t.Logf("learn memo settled %d calls", skips)
		})
	}
}

// TestEvictionMovesGeneration learns from inside an insert callback, which
// runs while the entry about to be evicted still covers the learned path:
// the memo records the pair at the insert's generation, and the eviction
// must retire that record, or the next Learn skips a path the cache no
// longer covers.
func TestEvictionMovesGeneration(t *testing.T) {
	c := NewCache(0, 1, 0)
	c.Add(0, path(0, 1, 2))
	c.SetInsertCallback(func([]phy.NodeID) { c.Learn(0, 1, path(1, 2)) })
	if !c.Add(0, path(0, 5)) {
		t.Fatal("0-5 rejected")
	}
	c.SetInsertCallback(nil)
	if got := c.Routes(0); len(got) != 1 || !samePath(got[0], path(0, 5)) {
		t.Fatalf("routes %v, want only 0-5", got)
	}
	c.Learn(0, 1, path(1, 2))
	if got := c.Routes(0); len(got) != 1 || !samePath(got[0], path(0, 1, 2)) {
		t.Fatalf("routes %v after relearning 1-2 from 1, want only 0-1-2", got)
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
// in its middle, so both candidate paths are built and rejected. The
// generation moves before each call, as a change to the route set would,
// so the learn memo misses every time and records the pair again.
func BenchmarkLearnFromTransmitter(b *testing.B) {
	r, route := learningRouter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.cache.gen++
		r.cache.Learn(0, 2, route)
	}
}

// BenchmarkLearnMemoHit overhears the same known route at an unchanged
// generation: after the first call the learn memo settles every call.
func BenchmarkLearnMemoHit(b *testing.B) {
	r, route := learningRouter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.cache.Learn(0, 2, route)
	}
}

// TestLearnMemoSkipsRepeatedRoutes sends a flow down the static line
// 0-1-2-3-4, where each packet is learned from seven times: by the
// addressee of each of its four hops and by the upstream neighbor
// overhearing each of the last three. Two packets settle every cache, so
// each later packet's seven learns must all be memo hits. A change that
// silently defeats the memo (say, a generation bump on the rejection
// path) breaks the exact count.
func TestLearnMemoSkipsRepeatedRoutes(t *testing.T) {
	n := newFakeNet(t)
	rs := n.line(5, DefaultConfig())
	skips := func() (total uint64) {
		for _, r := range rs {
			total += r.cache.learnSkips
		}
		return total
	}
	send := func(k int) {
		for range k {
			rs[0].SendData(4, 1, 512)
			n.run(n.sched.Now() + sim.Second)
		}
	}
	send(2)
	before := skips()
	send(10)
	if got := skips() - before; got != 7*10 {
		t.Fatalf("%d learns settled by the memo over 10 packets, want 70", got)
	}
	if len(n.delivered) != 12 {
		t.Fatalf("%d of 12 packets delivered", len(n.delivered))
	}
}

// TestLearnMemoizable keeps out of the memo what a slot cannot hold
// exactly: IDs outside uint16, which would alias a narrower ID, and
// routes longer than a slot.
func TestLearnMemoizable(t *testing.T) {
	for _, tt := range []struct {
		from  phy.NodeID
		route []phy.NodeID
		want  bool
	}{
		{1, path(0, 1, 65535), true},
		{1, path(0, 1, 65536), false},
		{65536, path(65536, 2), false},
		{-1, path(-1, 2), false},
		{1, path(0, 1, 2, 3, 4, 5, 6, 7, 8, 9), true},
		{1, path(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10), false},
	} {
		if got := memoizable(tt.from, tt.route); got != tt.want {
			t.Errorf("memoizable(%d, %v) = %v, want %v", tt.from, tt.route, got, tt.want)
		}
	}
}
