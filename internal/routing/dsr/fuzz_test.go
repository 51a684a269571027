package dsr

import (
	"testing"

	"rcast/internal/phy"
	"rcast/internal/sim"
)

// cacheInvariants checks the structural properties every cached route must
// satisfy after any mutation: rooted at the owner, at least two nodes,
// loop-free, and the route count bounded by the capacity.
func cacheInvariants(t *testing.T, c *Cache, owner phy.NodeID, capacity int, now sim.Time) {
	t.Helper()
	if c.Len() > capacity {
		t.Fatalf("cache holds %d routes, capacity %d", c.Len(), capacity)
	}
	for _, path := range c.Routes(now) {
		if len(path) < 2 {
			t.Fatalf("cached route %v shorter than one hop", path)
		}
		if path[0] != owner {
			t.Fatalf("cached route %v not rooted at owner %d", path, owner)
		}
		if hasDuplicates(path) {
			t.Fatalf("cached route %v has a loop", path)
		}
	}
}

// FuzzCacheOperations feeds the DSR route cache an arbitrary mutation
// stream — insertions (valid and deliberately malformed), link removals,
// lookups, time advances, expiry and crash-clears — in lockstep with the
// reference cache (cache_ref_test.go), both with callbacks installed. After
// every operation the two must agree on every observable and the cache's
// structural invariants must hold. Lookups additionally verify that any
// returned route is well-formed and actually ends at the queried
// destination; stats counters must never run backwards.
func FuzzCacheOperations(f *testing.F) {
	f.Add([]byte{0x00, 0x03, 0x01, 0x02, 0x03, 0x02, 0x03, 0x03, 0x01, 0x02})
	f.Add([]byte{0x00, 0x02, 0x05, 0x06, 0x02, 0x06, 0x01, 0x05, 0x06, 0x02, 0x06})
	f.Add([]byte{0x00, 0x04, 0x01, 0x02, 0x03, 0x04, 0x03, 0xff, 0x04, 0x00, 0x02, 0x03})
	f.Add([]byte{0x00, 0x03, 0x07, 0x08, 0x09, 0x03, 0x80, 0x00, 0x03, 0x07, 0x08, 0x09, 0x02, 0x09})
	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			owner    = phy.NodeID(0)
			capacity = 8
		)
		pc := 0
		next := func() byte {
			if pc >= len(data) {
				return 0
			}
			b := data[pc]
			pc++
			return b
		}
		// First byte picks the lifetime: 0 disables timeouts, anything else
		// expires entries after that many milliseconds.
		lifetime := sim.Time(next()) * sim.Millisecond
		p := newCachePair(t, owner, capacity, lifetime, 15)
		c := p.got
		var now sim.Time
		var prevInserts, prevEvictions, prevHits, prevMisses uint64
		for pc < len(data) {
			switch next() % 6 {
			case 0: // add a route: length byte, then node IDs
				ln := int(next())%6 + 1
				path := make([]phy.NodeID, 0, ln+1)
				path = append(path, owner)
				for i := 0; i < ln; i++ {
					path = append(path, phy.NodeID(next()%16))
				}
				// Occasionally corrupt the root so rejection paths run too.
				if len(path) > 1 && path[1] == owner {
					path = path[1:]
				}
				p.add(now, path)
			case 1: // invalidate a link
				a := phy.NodeID(next() % 16)
				b := phy.NodeID(next() % 16)
				p.removeLink(a, b)
			case 2: // shortest-route lookup
				dst := phy.NodeID(next() % 16)
				if route := c.Find(now, dst); route != nil {
					if len(route) < 2 || route[0] != owner || route[len(route)-1] != dst {
						t.Fatalf("Find(%d) returned malformed route %v", dst, route)
					}
					if hasDuplicates(route) {
						t.Fatalf("Find(%d) returned looping route %v", dst, route)
					}
					if !c.HasRouteTo(now, dst) {
						t.Fatalf("Find(%d) succeeded but HasRouteTo denies it", dst)
					}
				}
				p.want.Find(now, dst)
			case 3: // advance time (drives expiry)
				now += sim.Time(int(next())+1) * sim.Millisecond
			case 4: // crash-clear (recovered nodes restart with amnesia)
				p.clear()
				if c.Len() != 0 {
					t.Fatalf("Clear left %d routes behind", c.Len())
				}
			case 5: // read-only probe
				dst := phy.NodeID(next() % 16)
				if got, want := c.HasRouteTo(now, dst), p.want.HasRouteTo(now, dst); got != want {
					t.Fatalf("HasRouteTo(%d) = %v, reference %v", dst, got, want)
				}
			}
			p.check(now)
			cacheInvariants(t, c, owner, capacity, now)
			inserts, evictions, hits, misses := c.Stats()
			if inserts < prevInserts || evictions < prevEvictions ||
				hits < prevHits || misses < prevMisses {
				t.Fatalf("stats ran backwards: (%d,%d,%d,%d) after (%d,%d,%d,%d)",
					inserts, evictions, hits, misses,
					prevInserts, prevEvictions, prevHits, prevMisses)
			}
			prevInserts, prevEvictions, prevHits, prevMisses = inserts, evictions, hits, misses
		}
	})
}
