package dsr

import (
	"errors"
	"fmt"
	"math/rand"

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

// discovery returns the knobs the shared discovery core reads.
func (c Config) discovery() routing.Discovery {
	return routing.Discovery{
		NonPropagatingFirst: c.NonPropagatingFirst,
		Timeout:             c.DiscoveryTimeout,
		MaxAttempts:         c.MaxDiscoveryAttempts,
		BufferCap:           c.SendBufferCap,
		Jitter:              c.RebroadcastJitter,
	}
}

// Validate reports settings the router cannot run with. Zero fields keep
// the defaults New fills in; negative values are rejected.
func (c Config) Validate() error {
	switch {
	case c.CacheCapacity < 0 || c.MaxRepliesPerRequest < 0 || c.MaxSalvage < 0:
		return errors.New("dsr: cache capacity and reply/salvage limits must be >= 0")
	case c.CacheLifetime < 0 || c.SendBufferTimeout < 0:
		return errors.New("dsr: cache lifetime and send buffer timeout must be >= 0")
	}
	if err := c.discovery().Validate(); err != nil {
		return fmt.Errorf("dsr: %w", err)
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

// Router is one node's DSR instance. The embedded core owns the send
// buffer, the discovery loop, RREQ dedup and the crash reset.
type Router struct {
	routing.OnDemand[*DataPacket]

	id    phy.NodeID
	sched *sim.Scheduler
	rng   *rand.Rand
	tr    routing.Transport
	cfg   Config
	cache *Cache
	hooks routing.Hooks

	replyCount map[rreqKey]int

	stats Stats
}

var _ routing.Router = (*Router)(nil)

type rreqKey struct {
	origin phy.NodeID
	id     uint64
}

// New creates a router. tr must be set before any traffic flows; hooks may
// be zero.
func New(id phy.NodeID, sched *sim.Scheduler, rng *rand.Rand, tr routing.Transport, cfg Config, hooks routing.Hooks) *Router {
	if cfg.SendBufferTimeout <= 0 {
		cfg.SendBufferTimeout = 30 * sim.Second
	}
	if cfg.MaxRepliesPerRequest <= 0 {
		cfg.MaxRepliesPerRequest = 3
	}
	r := &Router{
		id:         id,
		sched:      sched,
		rng:        rng,
		tr:         tr,
		cfg:        cfg,
		cache:      NewCache(id, cfg.CacheCapacity, cfg.CacheLifetime),
		hooks:      hooks,
		replyCount: make(map[rreqKey]int),
	}
	r.OnDemand = routing.NewOnDemand[*DataPacket](id, sched, rng, tr, hooks, cfg.discovery(), r.newRREQ)
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

// Cache exposes the route cache (read-mostly; used by metrics and tests).
func (r *Router) Cache() *Cache { return r.cache }

// Stats returns a copy of the router counters.
func (r *Router) Stats() Stats {
	s, c := r.stats, r.Counts()
	s.RREQSent, s.Delivered, s.Dropped = c.RREQSent, c.Delivered, c.Dropped
	return s
}

// Crash wipes the router for a fault-injected node crash: besides what the
// core resets, the reply counts and the route cache are cleared. Stats
// survive: they describe what the node did while it was up.
func (r *Router) Crash() []*routing.Data {
	if r.Down() {
		return nil
	}
	clear(r.replyCount)
	r.cache.Clear()
	return r.OnDemand.Crash()
}

// SendData originates an application packet of payloadBytes to dst,
// discovering a route first if necessary.
func (r *Router) SendData(dst phy.NodeID, flowID uint64, payloadBytes int) {
	if r.Down() {
		return
	}
	pkt := &DataPacket{}
	if !r.Originate(pkt, dst, flowID, payloadBytes) {
		return
	}
	if route := r.cache.Find(r.sched.Now(), dst); route != nil {
		pkt.Route = route
		r.transmitData(pkt)
		return
	}
	r.Park(pkt)
}

// --- data plane ---

// transmitData sends pkt to the next hop on its route.
func (r *Router) transmitData(pkt *DataPacket) {
	i := indexOf(pkt.Route, r.id)
	if i < 0 || i+1 >= len(pkt.Route) {
		r.Drop(&pkt.Data, "bad-route")
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
		r.Park(pkt)
		return
	}
	r.Drop(&pkt.Data, "link-failure")
}

// --- discovery ---

// newRREQ builds the request of one discovery attempt for dst.
func (r *Router) newRREQ(dst phy.NodeID, id uint64, hopLimit int) routing.Message {
	return &RouteRequest{
		ID:       id,
		Origin:   r.id,
		Target:   dst,
		Recorded: []phy.NodeID{r.id},
		HopLimit: hopLimit,
	}
}

// flushBuffer sends buffered packets for dst if a route is now cached.
func (r *Router) flushBuffer(dst phy.NodeID) {
	if !r.Waiting(dst) {
		return
	}
	now := r.sched.Now()
	route := r.cache.Find(now, dst)
	if route == nil {
		return
	}
	for _, e := range r.RouteFound(dst) {
		if now-e.At > r.cfg.SendBufferTimeout {
			r.Drop(&e.Pkt.Data, "buffer-timeout")
			continue
		}
		e.Pkt.Route = route
		r.transmitData(e.Pkt)
	}
}

// --- control-plane senders ---

func (r *Router) sendRREP(rep *RouteReply) {
	i := indexOf(rep.ReplyPath, r.id)
	if i < 0 || i+1 >= len(rep.ReplyPath) {
		return
	}
	r.stats.RREPSent++
	r.Control(core.ClassRREP)
	r.tr.Send(rep.ReplyPath[i+1], rep, nil)
}

func (r *Router) sendRERR(rerr *RouteError) {
	i := indexOf(rerr.ReturnPath, r.id)
	if i < 0 || i+1 >= len(rerr.ReturnPath) {
		return
	}
	r.stats.RERRSent++
	r.Control(core.ClassRERR)
	r.tr.Send(rerr.ReturnPath[i+1], rerr, nil)
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
		r.Deliver(&pkt.Data, from, len(pkt.Route)-1)
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
	if !r.FirstSight(req.Origin, req.ID) {
		return
	}

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
		if !sim.Bernoulli(r.rng, r.cfg.Gossip.Probability(r.cfg.NeighborCount())) {
			r.stats.GossipDropped++
			return
		}
	}
	r.Rebroadcast(&RouteRequest{
		ID:       req.ID,
		Origin:   req.Origin,
		Target:   req.Target,
		Recorded: appendHop(req.Recorded, r.id),
		HopLimit: req.HopLimit - 1,
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
