package aodv

import (
	"errors"
	"fmt"
	"math/rand"

	"rcast/internal/core"
	"rcast/internal/phy"
	"rcast/internal/routing"
	"rcast/internal/sim"
)

// Config parameterizes a Router. Zero fields take RFC-flavoured defaults
// scaled for the PSM latency regime (a flood advances roughly one hop per
// beacon interval). The JSON tags are the "aodv" object of the canonical
// run-configuration encoding (internal/scenario).
type Config struct {
	// ActiveRouteTimeout is the route lifetime, refreshed on use. The RFC
	// default of 3 s is the behaviour the paper criticizes: at low packet
	// rates routes expire between packets and every packet re-floods.
	ActiveRouteTimeout sim.Time `json:"active_route_timeout_us"`
	// DiscoveryTimeout is the base RREP wait, doubled per retry.
	DiscoveryTimeout sim.Time `json:"discovery_timeout_us"`
	// MaxDiscoveryAttempts bounds retries (RREQ_RETRIES+1 in RFC terms).
	MaxDiscoveryAttempts int `json:"max_discovery_attempts"`
	// NonPropagatingFirst enables the TTL=1 expanding-ring first attempt.
	NonPropagatingFirst bool `json:"non_propagating_first"`
	// HelloInterval spaces periodic hello broadcasts while the node has
	// active routes; 0 disables hellos.
	HelloInterval sim.Time `json:"hello_interval_us"`
	// SendBufferCap bounds buffered packets per destination.
	SendBufferCap int `json:"send_buffer_cap"`
	// RebroadcastJitter desynchronizes flood rebroadcasts.
	RebroadcastJitter sim.Time `json:"rebroadcast_jitter_us"`
	// IntermediateReplies lets nodes with fresh-enough table entries
	// answer RREQs (RFC default behaviour).
	IntermediateReplies bool `json:"intermediate_replies"`
}

// DefaultConfig returns the defaults used by the comparison experiments.
func DefaultConfig() Config {
	return Config{
		ActiveRouteTimeout:   3 * sim.Second,
		DiscoveryTimeout:     sim.Second,
		MaxDiscoveryAttempts: 6,
		NonPropagatingFirst:  true,
		HelloInterval:        sim.Second,
		SendBufferCap:        64,
		RebroadcastJitter:    10 * sim.Millisecond,
		IntermediateReplies:  true,
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
	if c.ActiveRouteTimeout < 0 || c.HelloInterval < 0 {
		return errors.New("aodv: route timeout and hello interval must be >= 0")
	}
	if err := c.discovery().Validate(); err != nil {
		return fmt.Errorf("aodv: %w", err)
	}
	return nil
}

// Stats counts router events.
type Stats struct {
	RREQSent     uint64
	RREPSent     uint64
	RERRSent     uint64
	HelloSent    uint64
	DataSent     uint64
	Delivered    uint64
	Dropped      uint64
	LinkFailures uint64
	Expirations  uint64 // discoveries forced by expired routes
}

// Router is one node's AODV instance. The embedded core owns the send
// buffer, the discovery loop, RREQ dedup and the crash reset.
type Router struct {
	routing.OnDemand[*DataPacket]

	id    phy.NodeID
	sched *sim.Scheduler
	tr    routing.Transport
	cfg   Config
	table *Table
	hooks routing.Hooks

	seq      uint64 // own sequence number
	helloSeq uint64

	helloTimer sim.Timer
	stopped    bool

	stats Stats
}

var _ routing.Router = (*Router)(nil)

// New creates an AODV router and starts its hello schedule (if enabled).
func New(id phy.NodeID, sched *sim.Scheduler, rng *rand.Rand, tr routing.Transport, cfg Config, hooks routing.Hooks) *Router {
	if cfg.ActiveRouteTimeout <= 0 {
		cfg.ActiveRouteTimeout = 3 * sim.Second
	}
	r := &Router{
		id:    id,
		sched: sched,
		tr:    tr,
		cfg:   cfg,
		table: NewTable(id),
		hooks: hooks,
	}
	r.OnDemand = routing.NewOnDemand[*DataPacket](id, sched, rng, tr, hooks, cfg.discovery(), r.newRREQ)
	if cfg.HelloInterval > 0 {
		r.scheduleHello()
	}
	return r
}

// Table exposes the routing table for metrics and tests.
func (r *Router) Table() *Table { return r.table }

// Stats returns a copy of the router counters.
func (r *Router) Stats() Stats {
	s, c := r.stats, r.Counts()
	s.RREQSent, s.Delivered, s.Dropped = c.RREQSent, c.Delivered, c.Dropped
	return s
}

// Stop halts periodic activity (hellos).
func (r *Router) Stop() {
	r.stopped = true
	r.helloTimer.Cancel()
}

// Crash wipes the router for a fault-injected node crash: besides what the
// core resets, hellos stop and the routing table is cleared. Stats and
// sequence counters survive.
func (r *Router) Crash() []*routing.Data {
	if r.Down() {
		return nil
	}
	r.Stop()
	r.table = NewTable(r.id)
	return r.OnDemand.Crash()
}

// Restart brings a crashed router back up with empty state and resumes the
// hello schedule.
func (r *Router) Restart() {
	if !r.Down() {
		return
	}
	r.OnDemand.Restart()
	r.stopped = false
	if r.cfg.HelloInterval > 0 {
		r.scheduleHello()
	}
}

// SendData originates an application packet to dst.
func (r *Router) SendData(dst phy.NodeID, flowID uint64, payloadBytes int) {
	if r.Down() {
		return
	}
	pkt := &DataPacket{}
	if r.Originate(pkt, dst, flowID, payloadBytes) {
		r.forwardOrDiscover(pkt)
	}
}

// forwardOrDiscover sends pkt to the next hop, or buffers it and starts a
// discovery when no valid route exists.
func (r *Router) forwardOrDiscover(pkt *DataPacket) {
	now := r.sched.Now()
	route := r.table.Lookup(now, pkt.Dst)
	if route == nil {
		r.Park(pkt)
		return
	}
	r.table.Refresh(now, pkt.Dst, r.cfg.ActiveRouteTimeout)
	r.stats.DataSent++
	if r.hooks.DataActivity != nil {
		r.hooks.DataActivity()
	}
	nh := route.NextHop
	r.tr.Send(nh, pkt, func(delivered bool) {
		if !delivered {
			r.handleLinkFailure(pkt, nh)
		}
	})
}

// handleLinkFailure invalidates routes via the dead hop and emits a RERR
// to the affected precursors (broadcast, as RFC 3561 §6.11 allows).
func (r *Router) handleLinkFailure(pkt *DataPacket, nh phy.NodeID) {
	r.stats.LinkFailures++
	now := r.sched.Now()
	unreachable := r.table.InvalidateVia(now, nh)
	if len(unreachable) > 0 {
		r.sendRERR(&RouteError{From: r.id, Unreachable: unreachable})
	}
	if pkt.Src == r.id {
		// Source: re-buffer and rediscover.
		r.forwardOrDiscover(pkt)
		return
	}
	r.Drop(&pkt.Data, "link-failure")
}

// --- discovery ---

// newRREQ builds the request of one discovery attempt for dst; the
// origin bumps its own sequence number first (RFC 3561 §6.3).
func (r *Router) newRREQ(dst phy.NodeID, id uint64, hopLimit int) routing.Message {
	r.seq++
	return &RouteRequest{
		ID:        id,
		Origin:    r.id,
		OriginSeq: r.seq,
		Target:    dst,
		TargetSeq: r.table.LastKnownSeq(dst),
		HopLimit:  hopLimit,
	}
}

// routeEstablished flushes buffered traffic when a route to dst appears.
func (r *Router) routeEstablished(dst phy.NodeID) {
	for _, e := range r.RouteFound(dst) {
		r.forwardOrDiscover(e.Pkt)
	}
}

// --- control senders ---

func (r *Router) sendRREP(to phy.NodeID, rep *RouteReply) {
	r.stats.RREPSent++
	r.Control(core.ClassRREP)
	r.tr.Send(to, rep, nil)
}

func (r *Router) sendRERR(rerr *RouteError) {
	r.stats.RERRSent++
	r.Control(core.ClassRERR)
	r.tr.Send(phy.Broadcast, rerr, nil)
}

// --- hello schedule ---

func (r *Router) scheduleHello() {
	r.helloTimer = r.sched.After(r.cfg.HelloInterval, func() {
		if r.stopped {
			return
		}
		now := r.sched.Now()
		if r.table.ActiveRoutes(now) > 0 {
			r.helloSeq++
			r.seq++
			r.stats.HelloSent++
			r.Control(core.ClassRREP) // hellos are unsolicited RREPs
			r.tr.Send(phy.Broadcast, &Hello{From: r.id, Seq: r.seq}, nil)
		}
		r.scheduleHello()
	})
}

// --- receive path ---

// Receive processes a message addressed to this node (or broadcast).
func (r *Router) Receive(from phy.NodeID, msg routing.Message) {
	switch m := msg.(type) {
	case *DataPacket:
		r.onData(from, m)
	case *RouteRequest:
		r.onRREQ(from, m)
	case *RouteReply:
		r.onRREP(from, m)
	case *Hello:
		r.onHello(from, m)
	case *RouteError:
		r.onRERR(from, m)
	}
}

// Overhear is a no-op: AODV, by design, gathers no route information from
// packets addressed to other nodes (paper §1 footnote).
func (r *Router) Overhear(phy.NodeID, routing.Message) {}

func (r *Router) onData(from phy.NodeID, pkt *DataPacket) {
	now := r.sched.Now()
	// Seeing traffic from `from` refreshes the neighbor route.
	r.table.Update(now, from, from, 1, r.table.LastKnownSeq(from), r.cfg.ActiveRouteTimeout)
	if pkt.Dst == r.id {
		r.Deliver(&pkt.Data, from, pkt.HopsTaken+1)
		return
	}
	fwd := *pkt
	fwd.HopsTaken = pkt.HopsTaken + 1
	if fwd.HopsTaken > 32 {
		r.Drop(&fwd.Data, "ttl-exceeded")
		return
	}
	if r.hooks.DataForwarded != nil {
		r.hooks.DataForwarded(&fwd.Data)
	}
	// Refresh the reverse route towards the source as well (§6.2).
	r.table.Refresh(now, pkt.Src, r.cfg.ActiveRouteTimeout)
	r.forwardOrDiscover(&fwd)
}

func (r *Router) onRREQ(from phy.NodeID, req *RouteRequest) {
	if req.Origin == r.id {
		return
	}
	if !r.FirstSight(req.Origin, req.ID) {
		return
	}
	now := r.sched.Now()

	hops := req.HopCount + 1
	// Install/refresh the reverse route to the origin through `from`.
	r.table.Update(now, req.Origin, from, hops, req.OriginSeq, r.cfg.ActiveRouteTimeout)
	if req.Origin != from {
		r.table.Update(now, from, from, 1, r.table.LastKnownSeq(from), r.cfg.ActiveRouteTimeout)
	}
	r.routeEstablished(req.Origin)

	if r.id == req.Target {
		if req.TargetSeq > r.seq {
			r.seq = req.TargetSeq
		}
		r.seq++ // destination bumps its sequence number before replying
		r.sendRREP(from, &RouteReply{
			Origin:    req.Origin,
			Target:    r.id,
			TargetSeq: r.seq,
			HopCount:  0,
			Lifetime:  r.cfg.ActiveRouteTimeout,
		})
		return
	}

	// Intermediate reply from a fresh-enough table entry.
	if r.cfg.IntermediateReplies {
		if route := r.table.Lookup(now, req.Target); route != nil && route.DstSeq >= req.TargetSeq && req.TargetSeq > 0 {
			r.table.AddPrecursor(req.Target, from)
			r.sendRREP(from, &RouteReply{
				Origin:    req.Origin,
				Target:    req.Target,
				TargetSeq: route.DstSeq,
				HopCount:  route.HopCount,
				Lifetime:  route.ValidUntil - now,
			})
			return
		}
	}

	if req.HopLimit <= 1 {
		return
	}
	fwd := *req
	fwd.HopCount = hops
	fwd.HopLimit = req.HopLimit - 1
	r.Rebroadcast(&fwd)
}

func (r *Router) onRREP(from phy.NodeID, rep *RouteReply) {
	now := r.sched.Now()
	if r.hooks.RREPReceived != nil {
		r.hooks.RREPReceived()
	}
	hops := rep.HopCount + 1
	lifetime := rep.Lifetime
	if lifetime <= 0 {
		lifetime = r.cfg.ActiveRouteTimeout
	}
	// Install the forward route to the target through `from`.
	r.table.Update(now, rep.Target, from, hops, rep.TargetSeq, lifetime)
	r.routeEstablished(rep.Target)

	if rep.Origin == r.id {
		return
	}
	// Forward towards the origin along the reverse route.
	back := r.table.Lookup(now, rep.Origin)
	if back == nil {
		return // reverse route expired; the origin will retry
	}
	r.table.AddPrecursor(rep.Target, back.NextHop)
	r.table.AddPrecursor(rep.Origin, from)
	fwd := *rep
	fwd.HopCount = hops
	r.sendRREP(back.NextHop, &fwd)
}

func (r *Router) onHello(from phy.NodeID, h *Hello) {
	now := r.sched.Now()
	// A hello is an unsolicited 1-hop RREP about the sender itself.
	r.table.Update(now, from, from, 1, h.Seq, 2*r.cfg.HelloInterval+r.cfg.ActiveRouteTimeout/2)
}

func (r *Router) onRERR(from phy.NodeID, rerr *RouteError) {
	now := r.sched.Now()
	var propagate []Unreachable
	for _, u := range rerr.Unreachable {
		dropped, precursors := r.table.Invalidate(now, u.Dst, from, u.Seq)
		if dropped && len(precursors) > 0 {
			propagate = append(propagate, u)
		}
	}
	if len(propagate) > 0 {
		r.sendRERR(&RouteError{From: r.id, Unreachable: propagate})
	}
}
