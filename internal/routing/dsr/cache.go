package dsr

import (
	"math/bits"

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
	// through every append, eviction, truncation and removal: Add's prefix
	// scan filters on this dense column before touching a path.
	keys []uint64
	// nextSeq is the number the next accepted entry gets. It starts at 1,
	// so an empty hint slot names no entry, and wraps after 2^32 inserts,
	// which can only misdirect a hint.
	nextSeq uint32
	// entryArr and keyArr are the arrays the two columns live in. Eviction
	// and expiry re-slice a column past its oldest elements, and pushFIFO
	// moves the column back to the start of its array when it reaches the
	// end, so neither is reallocated once the cache is full.
	entryArr []cacheEntry
	keyArr   []uint64
	// hints maps hintSlot(p) to the number of the entry that last covered
	// a path p hashing there. Only Add writes it, and nothing else keeps
	// it current: Add checks a hint against the live entry before using
	// it, so a stale one costs only the scan it would have run anyway.
	hints [hintSlots]uint32
	// free holds the backing arrays of evicted, expired and dropped paths
	// for Add to copy accepted paths into.
	free     [][]phy.NodeID
	insertCB func(path []phy.NodeID)
	evictCB  func(path []phy.NodeID)

	// gen is the cache's generation: every change to the route set (an
	// accepted insert, each eviction, a RemoveLink that cuts a route,
	// Clear, an expire that drops a route) bumps it, before any callback
	// runs, so two reads at the same generation see the same routes.
	// learned is Learn's memo, which holds only at the generation it
	// records; the first Learn allocates it, so set-up and caches that
	// never learn skip its 2 KB.
	gen     uint64
	learned *[learnSets][2]learnSlot
	// scratch holds the candidate paths addRooted builds.
	scratch []phy.NodeID

	inserts   uint64
	evictions uint64
	hits      uint64
	misses    uint64
	// learnSkips counts the Learn calls the memo settled (tests only).
	learnSkips uint64
}

// learnSlot records that at generation gen the cache took neither path
// Learn built from route heard from the transmitter from. IDs are kept as
// uint16, so a slot is 32 bytes and a set fills one 64-byte cache line.
type learnSlot struct {
	gen   uint64
	from  uint16
	n     uint16
	route [learnRouteMax]uint16 // the route's n nodes
}

// holds reports whether s records the pair at generation gen.
func (s *learnSlot) holds(gen uint64, from phy.NodeID, route []phy.NodeID) bool {
	if s.gen != gen || phy.NodeID(s.from) != from || int(s.n) != len(route) {
		return false
	}
	for k, n := range route {
		if phy.NodeID(s.route[k]) != n {
			return false
		}
	}
	return true
}

// memoizable reports whether a slot can hold the pair: the route is at
// most learnRouteMax nodes and every ID fits in uint16.
func memoizable(from phy.NodeID, route []phy.NodeID) bool {
	if len(route) > learnRouteMax || phy.NodeID(uint16(from)) != from {
		return false
	}
	for _, n := range route {
		if phy.NodeID(uint16(n)) != n {
			return false
		}
	}
	return true
}

type cacheEntry struct {
	path    []phy.NodeID // path[0] == owner
	addedAt sim.Time
	seq     uint32 // the entry's number; numbers ascend along entries
}

const (
	// hintSlots is the size of each cache's hint table (1 KB).
	hintSlots = 256
	// minPathCap is the smallest backing array a cached path gets, so a
	// recycled array fits most later paths.
	minPathCap = 8
	// Learn's memo has learnSets sets of two slots (2 KB); a slot holds
	// a route of up to learnRouteMax nodes, and longer ones bypass it.
	learnSetBits  = 5
	learnSets     = 1 << learnSetBits
	learnRouteMax = 10
)

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

// hintSlot hashes an owner-rooted path to its hint table slot. path[0] is
// always the owner, so it is left out.
func hintSlot(path []phy.NodeID) int {
	h := uint64(len(path))
	for _, n := range path[1:] {
		h = bits.RotateLeft64(h, 11) ^ uint64(n)
	}
	return int((h * 0x9e3779b97f4a7c15) >> 56)
}

// learnSet hashes a transmitter and the route it was heard on to a
// learn memo set.
func learnSet(from phy.NodeID, route []phy.NodeID) int {
	h := uint64(from)
	for _, n := range route {
		h = bits.RotateLeft64(h, 11) ^ uint64(n)
	}
	return int((h * 0x9e3779b97f4a7c15) >> (64 - learnSetBits))
}

// NewCache creates a cache for owner. capacity <= 0 selects the default
// (64 routes, the ns-2 DSR ballpark); lifetime 0 disables entry timeouts.
func NewCache(owner phy.NodeID, capacity int, lifetime sim.Time) *Cache {
	if capacity <= 0 {
		capacity = 64
	}
	// Generation 1, so the memo's zeroed slots record nothing.
	return &Cache{owner: owner, capacity: capacity, lifetime: lifetime, nextSeq: 1, gen: 1}
}

// SetInsertCallback registers a hook fired for every accepted insertion —
// the paper's role-number metric counts intermediate nodes of inserted
// routes (§4.2). The path is the cache's own storage, valid only during
// the call: it is reused once the route leaves the cache.
func (c *Cache) SetInsertCallback(cb func(path []phy.NodeID)) { c.insertCB = cb }

// SetEvictCallback registers a hook fired for every capacity eviction
// with the evicted path. Timeout expiry is not reported — only FIFO
// pressure, the signal lifecycle tracing cares about. The path is valid
// only during the call: its storage is recycled when the call returns.
func (c *Cache) SetEvictCallback(cb func(path []phy.NodeID)) { c.evictCB = cb }

// Len returns the number of cached routes.
func (c *Cache) Len() int { return len(c.entries) }

// Clear drops every cached route (node crash: a recovered node restarts
// with amnesia). Lifetime statistics survive; the insert callback stays
// installed.
func (c *Cache) Clear() {
	for _, e := range c.entries {
		c.recycle(e.path)
	}
	c.truncate(0)
	c.gen++
}

// Stats returns (inserts, evictions, hits, misses).
func (c *Cache) Stats() (inserts, evictions, hits, misses uint64) {
	return c.inserts, c.evictions, c.hits, c.misses
}

// Add inserts a route. The path must start at the owner, contain at least
// one other node, and be loop-free; offending paths are rejected. Exact
// duplicates and routes already present as a prefix of a cached route are
// ignored. Returns true if the cache changed.
func (c *Cache) Add(now sim.Time, path []phy.NodeID) bool {
	if len(path) < 2 || path[0] != c.owner {
		return false
	}
	// A hint is a guess. It holds only if the entry it names is still
	// cached, still covers the path (RemoveLink may have cut it since) and
	// outlives expire(now). A covered path is loop-free, as every cached
	// route is, so the loop check is skipped, and expire runs as it would
	// have for any well-formed path.
	slot := &c.hints[hintSlot(path)]
	if i := c.seqIndex(*slot); i >= 0 && isPrefix(path, c.entries[i].path) && !c.expired(now, c.entries[i]) {
		c.expire(now)
		return false
	}
	if hasDuplicates(path) {
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
			*slot = c.entries[i].seq
			return false
		}
	}
	cp := c.pathBuf(len(path))
	copy(cp, path)
	*slot = c.nextSeq // the new entry covers the path
	c.entries = pushFIFO(c.entries, &c.entryArr, cacheEntry{path: cp, addedAt: now, seq: c.nextSeq})
	c.keys = pushFIFO(c.keys, &c.keyArr, key)
	c.nextSeq++
	c.inserts++
	c.gen++
	if c.insertCB != nil {
		c.insertCB(cp)
	}
	// The callback ran with the oldest entry still cached, and a Learn
	// reached from it would record a pair at the insert's generation, so
	// each eviction bumps the generation too.
	for len(c.entries) > c.capacity {
		evicted := c.entries[0].path
		c.dropFront(1)
		c.gen++
		c.evictions++
		if c.evictCB != nil {
			c.evictCB(evicted)
		}
		c.recycle(evicted)
	}
	return true
}

// seqIndex returns the index of the entry numbered seq, or -1. Numbers
// ascend along the entries and entries leave from the front, except that
// RemoveLink may drop one anywhere, so the entry, unless it has left,
// sits nextSeq−seq places from the end, or nearer if RemoveLink dropped a
// newer entry. Only the first place is tried: after such a drop the hint
// fails and the scan finds the entry.
func (c *Cache) seqIndex(seq uint32) int {
	back := uint(c.nextSeq - seq)
	if back == 0 || back > uint(len(c.entries)) {
		return -1
	}
	i := len(c.entries) - int(back)
	if c.entries[i].seq != seq {
		return -1
	}
	return i
}

// pathBuf returns storage for an n-node path: the most recently freed
// backing array when it is large enough, a new one otherwise.
func (c *Cache) pathBuf(n int) []phy.NodeID {
	if k := len(c.free) - 1; k >= 0 {
		buf := c.free[k]
		c.free[k] = nil
		c.free = c.free[:k]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]phy.NodeID, n, max(n, minPathCap))
}

// recycle hands a path that left the cache to the free list.
func (c *Cache) recycle(path []phy.NodeID) { c.free = append(c.free, path[:0]) }

// Learn caches the routes implied by route heard from the transmitter
// from: from is a direct neighbor, so every node on the route is
// reachable through it, in both directions (paper Fig. 3: neighbors of a
// forwarding node learn S→D from overheard data packets). It offers Add
// self → from → the rest of the route, then self → from → the nodes
// before from, reversed.
//
// Almost every route a node hears it has heard before, and a cache that
// took neither path then, and has not changed since, takes neither now.
// So once both are rejected the pair is recorded at the current
// generation, and the same pair heard at that generation returns at once:
// a rejected Add changes nothing but hints, so skipping it is exact.
func (c *Cache) Learn(now sim.Time, from phy.NodeID, route []phy.NodeID) {
	if from == c.owner {
		return
	}
	i := indexOf(route, from)
	if i < 0 {
		return
	}
	// Expire first, so an entry that lapsed since the pair was recorded
	// moves the generation before the memo is read.
	c.expire(now)
	var set *[2]learnSlot
	if len(route) <= learnRouteMax {
		if c.learned == nil {
			c.learned = new([learnSets][2]learnSlot)
		}
		set = &c.learned[learnSet(from, route)]
		if set[0].holds(c.gen, from, route) || set[1].holds(c.gen, from, route) {
			c.learnSkips++
			return
		}
	}
	gen := c.gen
	if i+1 < len(route) {
		c.addRooted(now, route[i:], false)
	}
	if i > 0 {
		c.addRooted(now, route[:i+1], true)
	}
	if set == nil || c.gen != gen || !memoizable(from, route) {
		return
	}
	// The newer pair takes the first slot; a live older one moves over.
	if set[0].gen == gen {
		set[1] = set[0]
	}
	slot := &set[0]
	slot.gen, slot.from, slot.n = gen, uint16(from), uint16(len(route))
	for k, n := range route {
		slot.route[k] = uint16(n)
	}
}

// addRooted offers Add the owner followed by tail, reversed if reverse is
// set. The path is built in the cache's scratch buffer, which Add copies
// only on accept.
func (c *Cache) addRooted(now sim.Time, tail []phy.NodeID, reverse bool) {
	p := append(c.scratch[:0], c.owner)
	if reverse {
		p = appendReversed(p, tail)
	} else {
		p = append(p, tail...)
	}
	c.scratch = p[:0]
	c.Add(now, p)
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
	affected, n := 0, 0
	for i, e := range c.entries {
		key := c.keys[i]
		if cut := linkCut(e.path, a, b); cut < len(e.path) {
			affected++
			if cut < 2 {
				c.recycle(e.path)
				continue
			}
			e.path = e.path[:cut]
			key = hopKey(e.path)
		}
		c.entries[n], c.keys[n] = e, key
		n++
	}
	c.truncate(n)
	if affected > 0 {
		c.gen++
	}
	return affected
}

// linkCut returns the length path is cut to by removing the link a–b in
// either direction: the index of the link's second node, or len(path) if
// the path does not use the link.
func linkCut(path []phy.NodeID, a, b phy.NodeID) int {
	for i := 0; i+1 < len(path); i++ {
		x, y := path[i], path[i+1]
		if (x == a && y == b) || (x == b && y == a) {
			return i + 1
		}
	}
	return len(path)
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
// the then-current time and only ever removed from the front or in place,
// so addedAt is nondecreasing across the slice and the expired entries
// are a prefix of it.
func (c *Cache) expire(now sim.Time) {
	if c.lifetime <= 0 {
		return
	}
	k := 0
	for k < len(c.entries) && c.expired(now, c.entries[k]) {
		c.recycle(c.entries[k].path)
		k++
	}
	if k > 0 {
		c.dropFront(k)
		c.gen++
	}
}

// expired reports whether e is older than the lifetime at now.
func (c *Cache) expired(now sim.Time, e cacheEntry) bool {
	return c.lifetime > 0 && now-e.addedAt > c.lifetime
}

// dropFront removes the k oldest entries by re-slicing the columns past
// them; pushFIFO reclaims the room.
func (c *Cache) dropFront(k int) {
	c.entries = c.entries[k:]
	c.keys = c.keys[k:]
}

// pushFIFO appends v to the column s, which lives in *arr. A full column
// with room before it, left by dropFront, first moves back to the start of
// *arr; a column that must grow moves to a new array, which becomes *arr.
func pushFIFO[T any](s []T, arr *[]T, v T) []T {
	if len(s) == cap(s) && cap(s) < cap(*arr) {
		s = append((*arr)[:0], s...)
	}
	s = append(s, v)
	if cap(s) > cap(*arr) {
		*arr = s
	}
	return s
}

// truncate keeps the first n entries and their columns. The dropped
// entries' paths are on the free list, so their headers are left as they
// are.
func (c *Cache) truncate(n int) {
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
