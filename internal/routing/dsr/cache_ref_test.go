package dsr

import (
	"fmt"
	"slices"
	"testing"

	"rcast/internal/phy"
	"rcast/internal/sim"
)

// refCache is the straightforward route cache the optimized Cache must
// agree with, operation for operation: oldest-first prefix scan straight
// over the paths, a map-based loop check, no key column and no memo.
// Differential tests drive both in lockstep and compare every observable
// result.
type refCache struct {
	owner    phy.NodeID
	capacity int
	lifetime sim.Time
	entries  []refEntry
	insertCB func(path []phy.NodeID)
	evictCB  func(path []phy.NodeID)

	inserts   uint64
	evictions uint64
	hits      uint64
	misses    uint64
}

type refEntry struct {
	path    []phy.NodeID
	addedAt sim.Time
}

func newRefCache(owner phy.NodeID, capacity int, lifetime sim.Time) *refCache {
	if capacity <= 0 {
		capacity = 64
	}
	return &refCache{owner: owner, capacity: capacity, lifetime: lifetime}
}

func (c *refCache) Clear() { c.entries = nil }

func (c *refCache) Stats() (inserts, evictions, hits, misses uint64) {
	return c.inserts, c.evictions, c.hits, c.misses
}

func (c *refCache) Add(now sim.Time, path []phy.NodeID) bool {
	if len(path) < 2 || path[0] != c.owner || refHasDuplicates(path) {
		return false
	}
	c.expire(now)
	for _, e := range c.entries {
		if refIsPrefix(path, e.path) {
			return false
		}
	}
	cp := append([]phy.NodeID(nil), path...)
	c.entries = append(c.entries, refEntry{path: cp, addedAt: now})
	c.inserts++
	if c.insertCB != nil {
		c.insertCB(cp)
	}
	for len(c.entries) > c.capacity {
		evicted := c.entries[0].path
		c.entries = c.entries[1:]
		c.evictions++
		if c.evictCB != nil {
			c.evictCB(evicted)
		}
	}
	return true
}

// Learn offers both paths a route heard from the transmitter from
// implies, every time.
func (c *refCache) Learn(now sim.Time, from phy.NodeID, route []phy.NodeID) {
	i := slices.Index(route, from)
	if from == c.owner || i < 0 {
		return
	}
	c.expire(now)
	if i+1 < len(route) {
		c.Add(now, append([]phy.NodeID{c.owner, from}, route[i+1:]...))
	}
	if i > 0 {
		back := []phy.NodeID{c.owner, from}
		for k := i - 1; k >= 0; k-- {
			back = append(back, route[k])
		}
		c.Add(now, back)
	}
}

func (c *refCache) Find(now sim.Time, dst phy.NodeID) []phy.NodeID {
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
	return append([]phy.NodeID(nil), best...)
}

func (c *refCache) HasRouteTo(now sim.Time, dst phy.NodeID) bool {
	c.expire(now)
	for _, e := range c.entries {
		if indexOf(e.path, dst) >= 1 {
			return true
		}
	}
	return false
}

func (c *refCache) RemoveLink(a, b phy.NodeID) int {
	affected := 0
	var kept []refEntry
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
		kept = append(kept, e)
	}
	c.entries = kept
	return affected
}

func (c *refCache) Routes(now sim.Time) [][]phy.NodeID {
	c.expire(now)
	out := make([][]phy.NodeID, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, append([]phy.NodeID(nil), e.path...))
	}
	return out
}

func (c *refCache) expire(now sim.Time) {
	if c.lifetime <= 0 {
		return
	}
	var kept []refEntry
	for _, e := range c.entries {
		if now-e.addedAt <= c.lifetime {
			kept = append(kept, e)
		}
	}
	c.entries = kept
}

func refHasDuplicates(path []phy.NodeID) bool {
	seen := make(map[phy.NodeID]struct{}, len(path))
	for _, n := range path {
		if _, ok := seen[n]; ok {
			return true
		}
		seen[n] = struct{}{}
	}
	return false
}

func refIsPrefix(p, q []phy.NodeID) bool {
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

// cachePair drives a Cache and a refCache in lockstep, both with insert
// and evict callbacks installed that log every path they are handed. The
// insert callback also looks up the route's last node, as the router's
// does to flush its send buffer, before the insert's eviction.
type cachePair struct {
	t       testing.TB
	got     *Cache
	want    *refCache
	gotLog  []string
	wantLog []string
	maxID   phy.NodeID // check probes destinations 0..maxID
	now     sim.Time   // the time of the operation under way
}

func newCachePair(t testing.TB, owner phy.NodeID, capacity int, lifetime sim.Time, maxID phy.NodeID) *cachePair {
	p := &cachePair{
		t:     t,
		got:   NewCache(owner, capacity, lifetime),
		want:  newRefCache(owner, capacity, lifetime),
		maxID: maxID,
	}
	p.got.SetInsertCallback(func(path []phy.NodeID) {
		p.gotLog = append(p.gotLog, fmt.Sprint("+", path, p.got.Find(p.now, path[len(path)-1])))
	})
	p.got.SetEvictCallback(func(path []phy.NodeID) { p.gotLog = append(p.gotLog, fmt.Sprint("-", path)) })
	p.want.insertCB = func(path []phy.NodeID) {
		p.wantLog = append(p.wantLog, fmt.Sprint("+", path, p.want.Find(p.now, path[len(path)-1])))
	}
	p.want.evictCB = func(path []phy.NodeID) { p.wantLog = append(p.wantLog, fmt.Sprint("-", path)) }
	return p
}

func (p *cachePair) add(now sim.Time, path []phy.NodeID) {
	p.t.Helper()
	p.now = now
	got, want := p.got.Add(now, path), p.want.Add(now, path)
	if got != want {
		p.t.Fatalf("Add(%d, %v) = %v, reference %v", now, path, got, want)
	}
}

func (p *cachePair) learn(now sim.Time, from phy.NodeID, route []phy.NodeID) {
	p.now = now
	p.got.Learn(now, from, route)
	p.want.Learn(now, from, route)
}

func (p *cachePair) find(now sim.Time, dst phy.NodeID) {
	p.t.Helper()
	p.now = now
	if got, want := fmt.Sprint(p.got.Find(now, dst)), fmt.Sprint(p.want.Find(now, dst)); got != want {
		p.t.Fatalf("Find(%d, %d) = %s, reference %s", now, dst, got, want)
	}
}

func (p *cachePair) removeLink(a, b phy.NodeID) {
	p.t.Helper()
	if got, want := p.got.RemoveLink(a, b), p.want.RemoveLink(a, b); got != want {
		p.t.Fatalf("RemoveLink(%d, %d) = %d, reference %d", a, b, got, want)
	}
}

func (p *cachePair) clear() {
	p.got.Clear()
	p.want.Clear()
}

// check compares every observable of the two caches at now: the length
// before anything expires (so an operation that expired entries the
// reference kept, or kept ones it expired, is caught), the routes in
// order, Find and HasRouteTo for every probe destination, the statistics
// and the callback logs. It also checks the key column against the paths
// and that the entry numbers ascend.
func (p *cachePair) check(now sim.Time) {
	p.t.Helper()
	if got, want := p.got.Len(), len(p.want.entries); got != want {
		p.t.Fatalf("Len = %d, reference %d", got, want)
	}
	if got, want := fmt.Sprint(p.got.Routes(now)), fmt.Sprint(p.want.Routes(now)); got != want {
		p.t.Fatalf("Routes(%d) = %s, reference %s", now, got, want)
	}
	if len(p.got.keys) != len(p.got.entries) {
		p.t.Fatalf("%d keys for %d entries", len(p.got.keys), len(p.got.entries))
	}
	for i, e := range p.got.entries {
		if p.got.keys[i] != hopKey(e.path) {
			p.t.Fatalf("keys[%d] = %#x, want hopKey(%v) = %#x", i, p.got.keys[i], e.path, hopKey(e.path))
		}
		// Numbers ascend modulo 2^32: counted back from nextSeq, each
		// entry is nearer than the one before it, and none is at 0.
		back := p.got.nextSeq - e.seq
		if back == 0 || (i > 0 && back >= p.got.nextSeq-p.got.entries[i-1].seq) {
			p.t.Fatalf("entry %d numbered %d (next %d): numbers do not ascend", i, e.seq, p.got.nextSeq)
		}
	}
	for dst := phy.NodeID(0); dst <= p.maxID; dst++ {
		if got, want := p.got.HasRouteTo(now, dst), p.want.HasRouteTo(now, dst); got != want {
			p.t.Fatalf("HasRouteTo(%d, %d) = %v, reference %v", now, dst, got, want)
		}
		if got, want := fmt.Sprint(p.got.Find(now, dst)), fmt.Sprint(p.want.Find(now, dst)); got != want {
			p.t.Fatalf("Find(%d, %d) = %s, reference %s", now, dst, got, want)
		}
	}
	gi, ge, gh, gm := p.got.Stats()
	wi, we, wh, wm := p.want.Stats()
	if gi != wi || ge != we || gh != wh || gm != wm {
		p.t.Fatalf("Stats = (%d,%d,%d,%d), reference (%d,%d,%d,%d)", gi, ge, gh, gm, wi, we, wh, wm)
	}
	if !slices.Equal(p.gotLog, p.wantLog) {
		p.t.Fatalf("callback log %v, reference %v", p.gotLog, p.wantLog)
	}
}
