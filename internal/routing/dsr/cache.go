package dsr

import (
	"rcast/internal/phy"
	"rcast/internal/sim"
)

// Cache is a DSR path cache: an ordered set of loop-free source routes
// rooted at the owning node. It supports shortest-route lookup with
// truncation at the target, link-based invalidation (the RERR path), an
// optional entry lifetime (Hu & Johnson's cache-timeout mechanism), and
// FIFO capacity eviction.
type Cache struct {
	owner    phy.NodeID
	capacity int
	lifetime sim.Time // 0 disables timeouts
	entries  []cacheEntry
	// keys[i] is hopKey(entries[i].path), kept in lockstep with entries
	// through every append, eviction, truncation and removal: Add's
	// prefix scan filters on this dense column before touching a path.
	keys     []uint64
	insertCB func(path []phy.NodeID)
	evictCB  func(path []phy.NodeID)

	inserts   uint64
	evictions uint64
	hits      uint64
	misses    uint64
}

type cacheEntry struct {
	path    []phy.NodeID // path[0] == owner
	addedAt sim.Time
}

// hopKey packs a path's first two hops, path[1] and path[2], into one
// word: path[1] in the high half, path[2] (all ones for a one-hop path) in
// the low half. Equal hops give equal halves, so a key mismatch proves one
// path is not a prefix of another; a match proves nothing, and isPrefix
// decides.
func hopKey(path []phy.NodeID) uint64 {
	low := uint64(0xffffffff)
	if len(path) > 2 {
		low = uint64(uint32(path[2]))
	}
	return uint64(uint32(path[1]))<<32 | low
}

// NewCache creates a cache for owner. capacity <= 0 selects the default
// (64 routes, the ns-2 DSR ballpark); lifetime 0 disables entry timeouts.
func NewCache(owner phy.NodeID, capacity int, lifetime sim.Time) *Cache {
	if capacity <= 0 {
		capacity = 64
	}
	return &Cache{owner: owner, capacity: capacity, lifetime: lifetime}
}

// SetInsertCallback registers a hook fired for every accepted insertion —
// the paper's role-number metric counts intermediate nodes of inserted
// routes (§4.2).
func (c *Cache) SetInsertCallback(cb func(path []phy.NodeID)) { c.insertCB = cb }

// SetEvictCallback registers a hook fired for every capacity eviction
// with the evicted path. Timeout expiry is not reported — only FIFO
// pressure, the signal lifecycle tracing cares about.
func (c *Cache) SetEvictCallback(cb func(path []phy.NodeID)) { c.evictCB = cb }

// Len returns the number of cached routes.
func (c *Cache) Len() int { return len(c.entries) }

// Clear drops every cached route (node crash: a recovered node restarts
// with amnesia). Lifetime statistics survive; the insert callback stays
// installed.
func (c *Cache) Clear() { c.truncate(0) }

// Stats returns (inserts, evictions, hits, misses).
func (c *Cache) Stats() (inserts, evictions, hits, misses uint64) {
	return c.inserts, c.evictions, c.hits, c.misses
}

// Add inserts a route. The path must start at the owner, contain at least
// one other node, and be loop-free; offending paths are rejected. Exact
// duplicates and routes already present as a prefix of a cached route are
// ignored. Returns true if the cache changed.
func (c *Cache) Add(now sim.Time, path []phy.NodeID) bool {
	if len(path) < 2 || path[0] != c.owner || hasDuplicates(path) {
		return false
	}
	c.expire(now)
	// A one-hop path is a prefix of any route through the same neighbor,
	// so only the high half of its key must match. The scan runs newest
	// first: overheard routes repeat recent traffic, so a covering entry
	// tends to sit near the tail, and the order cannot change whether one
	// exists.
	key, mask := hopKey(path), ^uint64(0)
	if len(path) == 2 {
		mask <<= 32
	}
	keys := c.keys
	for i := len(keys) - 1; i >= 0; i-- {
		if (keys[i]^key)&mask == 0 && isPrefix(path, c.entries[i].path) {
			return false
		}
	}
	cp := make([]phy.NodeID, len(path))
	copy(cp, path)
	c.entries = append(c.entries, cacheEntry{path: cp, addedAt: now})
	c.keys = append(c.keys, key)
	c.inserts++
	if c.insertCB != nil {
		c.insertCB(cp)
	}
	for len(c.entries) > c.capacity {
		evicted := c.entries[0].path
		c.entries = c.entries[1:]
		c.keys = c.keys[1:]
		c.evictions++
		if c.evictCB != nil {
			c.evictCB(evicted)
		}
	}
	return true
}

// Find returns the shortest cached route from the owner to dst (inclusive
// of both endpoints), or nil. Routes passing through dst are truncated at
// dst.
func (c *Cache) Find(now sim.Time, dst phy.NodeID) []phy.NodeID {
	c.expire(now)
	var best []phy.NodeID
	for _, e := range c.entries {
		i := indexOf(e.path, dst)
		if i < 1 {
			continue
		}
		if best == nil || i+1 < len(best) {
			best = e.path[:i+1]
		}
	}
	if best == nil {
		c.misses++
		return nil
	}
	c.hits++
	out := make([]phy.NodeID, len(best))
	copy(out, best)
	return out
}

// HasRouteTo reports whether a route to dst exists without counting a
// hit/miss.
func (c *Cache) HasRouteTo(now sim.Time, dst phy.NodeID) bool {
	c.expire(now)
	for _, e := range c.entries {
		if indexOf(e.path, dst) >= 1 {
			return true
		}
	}
	return false
}

// RemoveLink invalidates the (bidirectional) link a–b: every cached route
// using it is truncated just before the link; truncations shorter than two
// nodes are dropped. Returns the number of affected routes.
func (c *Cache) RemoveLink(a, b phy.NodeID) int {
	affected := 0
	n := 0
	for _, e := range c.entries {
		cut := len(e.path)
		for i := 0; i+1 < len(e.path); i++ {
			x, y := e.path[i], e.path[i+1]
			if (x == a && y == b) || (x == b && y == a) {
				cut = i + 1
				break
			}
		}
		if cut < len(e.path) {
			affected++
			if cut < 2 {
				continue
			}
			e.path = e.path[:cut]
		}
		c.entries[n] = e
		c.keys[n] = hopKey(e.path)
		n++
	}
	c.truncate(n)
	return affected
}

// Routes returns copies of all cached routes (for inspection/metrics).
func (c *Cache) Routes(now sim.Time) [][]phy.NodeID {
	c.expire(now)
	out := make([][]phy.NodeID, 0, len(c.entries))
	for _, e := range c.entries {
		cp := make([]phy.NodeID, len(e.path))
		copy(cp, e.path)
		out = append(out, cp)
	}
	return out
}

// expire drops entries older than the lifetime. Entries are appended with
// the then-current time and only ever removed from the front, so addedAt is
// nondecreasing across the slice and the oldest entry alone decides whether
// anything can have expired.
func (c *Cache) expire(now sim.Time) {
	if c.lifetime <= 0 || len(c.entries) == 0 {
		return
	}
	if now-c.entries[0].addedAt <= c.lifetime {
		return
	}
	n := 0
	for i, e := range c.entries {
		if now-e.addedAt <= c.lifetime {
			c.entries[n] = e
			c.keys[n] = c.keys[i]
			n++
		}
	}
	c.truncate(n)
}

// truncate keeps the first n entries and their keys, zeroing the dropped
// entries so their paths are collectable.
func (c *Cache) truncate(n int) {
	clear(c.entries[n:])
	c.entries = c.entries[:n]
	c.keys = c.keys[:n]
}

// isPrefix reports whether p is a prefix of q.
func isPrefix(p, q []phy.NodeID) bool {
	if len(p) > len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}
