package dsr

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"rcast/internal/core"
	"rcast/internal/phy"
	"rcast/internal/routing"
	"rcast/internal/sim"
)

// Config parameterizes a Router. The JSON tags are the "dsr" object of the
// canonical run-configuration encoding (internal/scenario); the runtime
// gossip hooks have no serialized form.
type Config struct {
	// CacheCapacity and CacheLifetime configure the route cache
	// (lifetime 0 disables timeouts).
	CacheCapacity int      `json:"cache_capacity"`
	CacheLifetime sim.Time `json:"cache_lifetime_us"`

	// NonPropagatingFirst enables the expanding-ring search: the first
	// discovery attempt is a 1-hop RREQ.
	NonPropagatingFirst bool `json:"non_propagating_first"`
	// DiscoveryTimeout is the base RREP wait; it doubles per attempt.
	DiscoveryTimeout sim.Time `json:"discovery_timeout_us"`
	// MaxDiscoveryAttempts bounds a discovery round before buffered
	// packets for the target are dropped.
	MaxDiscoveryAttempts int `json:"max_discovery_attempts"`
	// SendBufferCap bounds buffered packets per destination;
	// SendBufferTimeout expires stale buffered packets.
	SendBufferCap     int      `json:"send_buffer_cap"`
	SendBufferTimeout sim.Time `json:"send_buffer_timeout_us"`

	// CacheReplies lets intermediate nodes answer RREQs from cache.
	CacheReplies bool `json:"cache_replies"`
	// MaxRepliesPerRequest caps how many RREP copies a target generates
	// for one discovery (DSR offers alternative routes; §2.1).
	MaxRepliesPerRequest int `json:"max_replies_per_request"`
	// MaxSalvage bounds per-packet salvage operations.
	MaxSalvage int `json:"max_salvage"`
	// RebroadcastJitter randomizes flood rebroadcasts to desynchronize
	// the broadcast storm.
	RebroadcastJitter sim.Time `json:"rebroadcast_jitter_us"`

	// Gossip, when non-nil, applies the Rcast broadcast extension:
	// probabilistic RREQ rebroadcast damping (§5).
	Gossip *core.BroadcastGossip `json:"-"`
	// NeighborCount supplies the local neighbor count for Gossip.
	NeighborCount func() int `json:"-"`
}

// DefaultConfig returns production defaults tuned for the paper's
// PSM-latency regime (a flood advances one hop per beacon interval, so
// discovery timeouts are generous).
func DefaultConfig() Config {
	return Config{
		CacheCapacity:        64,
		NonPropagatingFirst:  true,
		DiscoveryTimeout:     sim.Second,
		MaxDiscoveryAttempts: 6,
		SendBufferCap:        64,
		SendBufferTimeout:    30 * sim.Second,
		CacheReplies:         true,
		MaxRepliesPerRequest: 3,
		MaxSalvage:           1,
		RebroadcastJitter:    10 * sim.Millisecond,
	}
}

// maxDiscoveryAttempts bounds MaxDiscoveryAttempts: the RREP wait
// doubles per attempt, and past this many doublings it overflows.
const maxDiscoveryAttempts = 32

// Validate reports settings the router cannot run with. Zero fields keep
// the defaults New fills in; negative values are rejected.
func (c Config) Validate() error {
	switch {
	case c.CacheCapacity < 0 || c.SendBufferCap < 0 || c.MaxRepliesPerRequest < 0 || c.MaxSalvage < 0:
		return errors.New("dsr: capacities and reply/salvage limits must be >= 0")
	case c.MaxDiscoveryAttempts < 0 || c.MaxDiscoveryAttempts > maxDiscoveryAttempts:
		return fmt.Errorf("dsr: max discovery attempts must be in [0, %d]", maxDiscoveryAttempts)
	case c.CacheLifetime < 0 || c.DiscoveryTimeout < 0 || c.SendBufferTimeout < 0:
		return errors.New("dsr: cache lifetime and timeouts must be >= 0")
	case c.RebroadcastJitter < 0 || c.RebroadcastJitter == sim.MaxTime:
		return errors.New("dsr: rebroadcast jitter must be in [0, MaxTime)")
	}
	return nil
}

// Stats counts router events.
type Stats struct {
	RREQSent      uint64
	RREPSent      uint64
	RERRSent      uint64
	DataSent      uint64 // data transmissions (originations + forwards)
	Delivered     uint64
	Dropped       uint64
	Salvages      uint64
	CacheReplies  uint64
	LinkFailures  uint64
	GossipDropped uint64 // rebroadcasts suppressed by the gossip extension
}

// Router is one node's DSR instance.
type Router struct {
	id    phy.NodeID
	sched *sim.Scheduler
	rng   *rand.Rand
	tr    routing.Transport
	cfg   Config
	cache *Cache
	hooks routing.Hooks

	buf         map[phy.NodeID][]bufEntry
	seenRREQ    map[rreqKey]struct{}
	replyCount  map[rreqKey]int
	discoveries map[phy.NodeID]*discovery

	nextRREQID uint64
	nextSeq    uint64

	down bool // fault-injected crash: reversible via Restart

	stats Stats
}

var _ routing.Router = (*Router)(nil)

type bufEntry struct {
	pkt *DataPacket
	at  sim.Time
}

type rreqKey struct {
	origin phy.NodeID
	id     uint64
}

type discovery struct {
	attempts int
	timer    sim.Timer
}

// New creates a router. tr must be set before any traffic flows; hooks may
// be zero.
func New(id phy.NodeID, sched *sim.Scheduler, rng *rand.Rand, tr routing.Transport, cfg Config, hooks routing.Hooks) *Router {
	if cfg.DiscoveryTimeout <= 0 {
		cfg.DiscoveryTimeout = sim.Second
	}
	if cfg.MaxDiscoveryAttempts <= 0 {
		cfg.MaxDiscoveryAttempts = 6
	}
	if cfg.SendBufferCap <= 0 {
		cfg.SendBufferCap = 64
	}
	if cfg.SendBufferTimeout <= 0 {
		cfg.SendBufferTimeout = 30 * sim.Second
	}
	if cfg.MaxRepliesPerRequest <= 0 {
		cfg.MaxRepliesPerRequest = 3
	}
	r := &Router{
		id:          id,
		sched:       sched,
		rng:         rng,
		tr:          tr,
		cfg:         cfg,
		cache:       NewCache(id, cfg.CacheCapacity, cfg.CacheLifetime),
		hooks:       hooks,
		buf:         make(map[phy.NodeID][]bufEntry),
		seenRREQ:    make(map[rreqKey]struct{}),
		replyCount:  make(map[rreqKey]int),
		discoveries: make(map[phy.NodeID]*discovery),
	}
	r.cache.SetInsertCallback(func(path []phy.NodeID) {
		if r.hooks.CacheInserted != nil {
			r.hooks.CacheInserted(path)
		}
		// A fresh route may unblock buffered traffic.
		r.flushBuffer(path[len(path)-1])
	})
	r.cache.SetEvictCallback(func(path []phy.NodeID) {
		if r.hooks.CacheEvicted != nil {
			r.hooks.CacheEvicted(path)
		}
	})
	return r
}

// ID returns the owning node's ID.
func (r *Router) ID() phy.NodeID { return r.id }

// Cache exposes the route cache (read-mostly; used by metrics and tests).
func (r *Router) Cache() *Cache { return r.cache }

// BufferedData returns the data packets currently parked in the send buffer
// awaiting route discovery, ordered by destination then insertion. The
// audit layer enumerates still-buffered traffic with it at teardown.
func (r *Router) BufferedData() []*routing.Data {
	dsts := make([]phy.NodeID, 0, len(r.buf))
	for dst := range r.buf {
		dsts = append(dsts, dst)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	var out []*routing.Data
	for _, dst := range dsts {
		for _, e := range r.buf[dst] {
			out = append(out, &e.pkt.Data)
		}
	}
	return out
}

// Stats returns a copy of the router counters.
func (r *Router) Stats() Stats { return r.stats }

// Crash wipes the router for a fault-injected node crash: discovery timers
// are cancelled, the send buffer, RREQ dedup state and route cache are
// cleared, and the router stops originating until Restart. The buffered
// data packets are returned (destination order, as BufferedData) WITHOUT
// passing through the drop hook — the fault layer reconciles them as a
// terminal class of their own. Stats survive: they describe what the node
// did while it was up.
func (r *Router) Crash() []*routing.Data {
	if r.down {
		return nil
	}
	r.down = true
	flushed := r.BufferedData()
	dsts := make([]phy.NodeID, 0, len(r.discoveries))
	for dst := range r.discoveries {
		dsts = append(dsts, dst)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	for _, dst := range dsts {
		r.discoveries[dst].timer.Cancel()
		delete(r.discoveries, dst)
	}
	clear(r.buf)
	clear(r.seenRREQ)
	clear(r.replyCount)
	r.cache.Clear()
	return flushed
}

// Restart brings a crashed router back up with empty state (the sequence
// counters keep running so recycled packets never reuse a PacketKey).
func (r *Router) Restart() { r.down = false }

// SendData originates an application packet of payloadBytes to dst,
// discovering a route first if necessary.
func (r *Router) SendData(dst phy.NodeID, flowID uint64, payloadBytes int) {
	if r.down {
		return
	}
	now := r.sched.Now()
	r.nextSeq++
	pkt := &DataPacket{Data: routing.Data{
		FlowID:       flowID,
		Seq:          r.nextSeq,
		Src:          r.id,
		Dst:          dst,
		PayloadBytes: payloadBytes,
		OriginatedAt: now,
	}}
	if r.hooks.DataOriginated != nil {
		r.hooks.DataOriginated(&pkt.Data)
	}
	if dst == r.id {
		r.deliver(pkt, r.id, 0)
		return
	}
	if route := r.cache.Find(now, dst); route != nil {
		pkt.Route = route
		r.transmitData(pkt)
		return
	}
	r.bufferAndDiscover(pkt)
}

// --- data plane ---

// transmitData sends pkt to the next hop on its route.
func (r *Router) transmitData(pkt *DataPacket) {
	i := indexOf(pkt.Route, r.id)
	if i < 0 || i+1 >= len(pkt.Route) {
		r.drop(pkt, "bad-route")
		return
	}
	nh := pkt.Route[i+1]
	r.stats.DataSent++
	if r.hooks.DataActivity != nil {
		r.hooks.DataActivity()
	}
	r.tr.Send(nh, pkt, func(delivered bool) {
		if !delivered {
			r.handleLinkFailure(pkt, nh)
		}
	})
}

// handleLinkFailure reacts to a retry-exhausted unicast: purge the link,
// notify the flow source with a RERR, and salvage or drop the packet.
func (r *Router) handleLinkFailure(pkt *DataPacket, nh phy.NodeID) {
	r.stats.LinkFailures++
	r.cache.RemoveLink(r.id, nh)

	// RERR back to the source (unless we are the source).
	if pkt.Src != r.id {
		i := indexOf(pkt.Route, r.id)
		if i > 0 {
			ret := reversed(pkt.Route[:i+1]) // self..towards Src side of Route
			// After salvaging, Route may no longer contain Src; the RERR
			// then terminates at the route head, which is the salvager —
			// acceptable: the link purge still propagates by overhearing.
			r.sendRERR(&RouteError{
				Detector:   r.id,
				BrokenFrom: r.id,
				BrokenTo:   nh,
				ReturnPath: ret,
			})
		}
	}

	// Salvage: try an alternative cached route to the destination.
	if pkt.Salvaged < r.cfg.MaxSalvage {
		if alt := r.cache.Find(r.sched.Now(), pkt.Dst); alt != nil {
			sp := *pkt
			sp.Route = alt
			sp.Salvaged = pkt.Salvaged + 1
			r.stats.Salvages++
			if r.hooks.DataSalvaged != nil {
				r.hooks.DataSalvaged(&sp.Data, sp.Salvaged, sp.Route)
			}
			r.transmitData(&sp)
			return
		}
	}
	if pkt.Src == r.id {
		// Source: buffer and rediscover rather than losing the packet.
		r.bufferAndDiscover(pkt)
		return
	}
	r.drop(pkt, "link-failure")
}

func (r *Router) deliver(pkt *DataPacket, from phy.NodeID, hops int) {
	r.stats.Delivered++
	if r.hooks.DataActivity != nil {
		r.hooks.DataActivity()
	}
	if r.hooks.DataDelivered != nil {
		r.hooks.DataDelivered(&pkt.Data, from, hops)
	}
}

func (r *Router) drop(pkt *DataPacket, reason string) {
	r.stats.Dropped++
	if r.hooks.DataDropped != nil {
		r.hooks.DataDropped(&pkt.Data, reason)
	}
}

// --- discovery ---

// bufferAndDiscover queues pkt and ensures a discovery round is running.
func (r *Router) bufferAndDiscover(pkt *DataPacket) {
	q := r.buf[pkt.Dst]
	if len(q) >= r.cfg.SendBufferCap {
		r.drop(q[0].pkt, "buffer-overflow")
		q = q[1:]
	}
	r.buf[pkt.Dst] = append(q, bufEntry{pkt: pkt, at: r.sched.Now()})
	r.startDiscovery(pkt.Dst)
}

func (r *Router) startDiscovery(dst phy.NodeID) {
	if _, running := r.discoveries[dst]; running {
		return
	}
	d := &discovery{}
	r.discoveries[dst] = d
	r.issueRREQ(dst, d)
}

func (r *Router) issueRREQ(dst phy.NodeID, d *discovery) {
	d.attempts++
	if d.attempts > r.cfg.MaxDiscoveryAttempts {
		r.abandonDiscovery(dst)
		return
	}
	hopLimit := 255
	if r.cfg.NonPropagatingFirst && d.attempts == 1 {
		hopLimit = 1
	}
	r.nextRREQID++
	req := &RouteRequest{
		ID:       r.nextRREQID,
		Origin:   r.id,
		Target:   dst,
		Recorded: []phy.NodeID{r.id},
		HopLimit: hopLimit,
	}
	r.seenRREQ[rreqKey{origin: r.id, id: req.ID}] = struct{}{}
	r.stats.RREQSent++
	r.control(core.ClassRREQ)
	r.tr.Send(phy.Broadcast, req, nil)

	timeout := r.cfg.DiscoveryTimeout << uint(d.attempts-1)
	d.timer = r.sched.After(timeout, func() { r.issueRREQ(dst, d) })
}

// abandonDiscovery gives up on dst and drops its buffered packets.
func (r *Router) abandonDiscovery(dst phy.NodeID) {
	delete(r.discoveries, dst)
	for _, e := range r.buf[dst] {
		r.drop(e.pkt, "no-route")
	}
	delete(r.buf, dst)
}

// flushBuffer sends buffered packets for dst if a route is now cached.
func (r *Router) flushBuffer(dst phy.NodeID) {
	q, ok := r.buf[dst]
	if !ok {
		return
	}
	now := r.sched.Now()
	route := r.cache.Find(now, dst)
	if route == nil {
		return
	}
	if d, running := r.discoveries[dst]; running {
		d.timer.Cancel()
		delete(r.discoveries, dst)
	}
	delete(r.buf, dst)
	for _, e := range q {
		if now-e.at > r.cfg.SendBufferTimeout {
			r.drop(e.pkt, "buffer-timeout")
			continue
		}
		e.pkt.Route = route
		r.transmitData(e.pkt)
	}
}

// --- control-plane senders ---

func (r *Router) sendRREP(rep *RouteReply) {
	i := indexOf(rep.ReplyPath, r.id)
	if i < 0 || i+1 >= len(rep.ReplyPath) {
		return
	}
	r.stats.RREPSent++
	r.control(core.ClassRREP)
	r.tr.Send(rep.ReplyPath[i+1], rep, nil)
}

func (r *Router) sendRERR(rerr *RouteError) {
	i := indexOf(rerr.ReturnPath, r.id)
	if i < 0 || i+1 >= len(rerr.ReturnPath) {
		return
	}
	r.stats.RERRSent++
	r.control(core.ClassRERR)
	r.tr.Send(rerr.ReturnPath[i+1], rerr, nil)
}

func (r *Router) control(c core.Class) {
	if r.hooks.ControlSent != nil {
		r.hooks.ControlSent(c)
	}
}

// --- receive path (called by the MAC adapter) ---

// Receive processes a message addressed to this node (or broadcast),
// transmitted by `from`.
func (r *Router) Receive(from phy.NodeID, msg routing.Message) {
	switch m := msg.(type) {
	case *DataPacket:
		r.onData(from, m)
	case *RouteRequest:
		r.onRREQ(from, m)
	case *RouteReply:
		r.onRREP(from, m)
	case *RouteError:
		r.onRERR(from, m)
	}
}

// Overhear processes a message addressed to another node that this node's
// radio decoded — the mechanism the whole paper is about.
func (r *Router) Overhear(from phy.NodeID, msg routing.Message) {
	now := r.sched.Now()
	switch m := msg.(type) {
	case *DataPacket:
		r.cache.Learn(now, from, m.Route)
	case *RouteReply:
		r.cache.Learn(now, from, m.Route)
		r.cache.Learn(now, from, m.ReplyPath)
	case *RouteError:
		// Purge the stale link everywhere, as fast as possible (§3.3).
		r.cache.RemoveLink(m.BrokenFrom, m.BrokenTo)
	}
}

func (r *Router) onData(from phy.NodeID, pkt *DataPacket) {
	now := r.sched.Now()
	r.cache.Learn(now, from, pkt.Route)
	if pkt.Dst == r.id {
		r.deliver(pkt, from, len(pkt.Route)-1)
		return
	}
	if r.hooks.DataForwarded != nil {
		r.hooks.DataForwarded(&pkt.Data)
	}
	r.transmitData(pkt)
}

func (r *Router) onRREQ(from phy.NodeID, req *RouteRequest) {
	if req.Origin == r.id || indexOf(req.Recorded, r.id) >= 0 {
		return // our own flood, or a loop
	}
	now := r.sched.Now()
	// Learn the reverse route back to the origin.
	r.cache.addRooted(now, req.Recorded, true)

	key := rreqKey{origin: req.Origin, id: req.ID}
	if r.id == req.Target {
		// Targets answer each arriving copy (up to the cap) so the origin
		// collects alternative routes — the behaviour behind the paper's
		// "more than one RREP per discovery" observation.
		if r.replyCount[key] >= r.cfg.MaxRepliesPerRequest {
			return
		}
		r.replyCount[key]++
		route := appendHop(req.Recorded, r.id)
		r.sendRREP(&RouteReply{ID: req.ID, Route: route, ReplyPath: reversed(route)})
		return
	}
	if _, dup := r.seenRREQ[key]; dup {
		return
	}
	r.seenRREQ[key] = struct{}{}

	// Cache reply: splice recorded prefix with our cached suffix.
	if r.cfg.CacheReplies {
		if tail := r.cache.Find(now, req.Target); tail != nil {
			full := append(appendHop(req.Recorded, r.id), tail[1:]...)
			if !hasDuplicates(full) {
				r.stats.CacheReplies++
				reply := appendHop(req.Recorded, r.id)
				r.sendRREP(&RouteReply{
					ID:        req.ID,
					Route:     full,
					ReplyPath: reversed(reply),
					FromCache: true,
				})
				return
			}
		}
	}

	if req.HopLimit <= 1 {
		return // non-propagating search halts here
	}
	// Gossip damping (Rcast-for-broadcast extension). The first ring of
	// rebroadcasts around the origin is exempt (gossip with hop gating, as
	// in Haas et al.) so small floods always reach two hops.
	if r.cfg.Gossip != nil && r.cfg.NeighborCount != nil && len(req.Recorded) >= 2 {
		if !r.cfg.Gossip.ShouldRebroadcast(r.rng, r.cfg.NeighborCount()) {
			r.stats.GossipDropped++
			return
		}
	}
	fwd := &RouteRequest{
		ID:       req.ID,
		Origin:   req.Origin,
		Target:   req.Target,
		Recorded: appendHop(req.Recorded, r.id),
		HopLimit: req.HopLimit - 1,
	}
	jitter := sim.Time(0)
	if r.cfg.RebroadcastJitter > 0 {
		jitter = sim.Time(r.rng.Int63n(int64(r.cfg.RebroadcastJitter) + 1))
	}
	r.sched.After(jitter, func() {
		if r.down {
			return // crashed while the rebroadcast sat in its jitter window
		}
		r.stats.RREQSent++
		r.control(core.ClassRREQ)
		r.tr.Send(phy.Broadcast, fwd, nil)
	})
}

func (r *Router) onRREP(from phy.NodeID, rep *RouteReply) {
	now := r.sched.Now()
	if r.hooks.RREPReceived != nil {
		r.hooks.RREPReceived()
	}
	// Learn from the discovered route relative to our own position, and
	// from the transmitter.
	r.cache.Learn(now, from, rep.Route)

	i := indexOf(rep.ReplyPath, r.id)
	if i < 0 {
		return
	}
	if i+1 == len(rep.ReplyPath) {
		// We are the discovery origin: cache the full discovered route
		// (Route[0] is us); buffered traffic flushes via the insert hook.
		r.cache.Add(now, rep.Route)
		return
	}
	r.sendRREP(rep)
}

func (r *Router) onRERR(from phy.NodeID, rerr *RouteError) {
	r.cache.RemoveLink(rerr.BrokenFrom, rerr.BrokenTo)
	i := indexOf(rerr.ReturnPath, r.id)
	if i < 0 || i+1 == len(rerr.ReturnPath) {
		return // we are the flow source (or off-path): purge only
	}
	r.sendRERR(rerr)
}
