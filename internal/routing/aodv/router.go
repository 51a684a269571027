package aodv

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"rcast/internal/core"
	"rcast/internal/phy"
	"rcast/internal/sim"
)

// Transport is the MAC-facing send interface (mirrors dsr.Transport).
type Transport interface {
	Send(nh phy.NodeID, msg Message, onResult func(delivered bool))
}

// Hooks are optional observation points; nil fields are skipped.
type Hooks struct {
	DataOriginated func(p *DataPacket)
	DataDelivered  func(p *DataPacket, from phy.NodeID)
	DataDropped    func(p *DataPacket, reason string)
	DataForwarded  func(p *DataPacket)
	ControlSent    func(c core.Class)
	RREPReceived   func()
	DataActivity   func()
}

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

// maxDiscoveryAttempts bounds MaxDiscoveryAttempts: the RREP wait
// doubles per attempt, and past this many doublings it overflows.
const maxDiscoveryAttempts = 32

// Validate reports settings the router cannot run with. Zero fields keep
// the defaults New fills in; negative values are rejected.
func (c Config) Validate() error {
	switch {
	case c.SendBufferCap < 0:
		return errors.New("aodv: send buffer capacity must be >= 0")
	case c.MaxDiscoveryAttempts < 0 || c.MaxDiscoveryAttempts > maxDiscoveryAttempts:
		return fmt.Errorf("aodv: max discovery attempts must be in [0, %d]", maxDiscoveryAttempts)
	case c.ActiveRouteTimeout < 0 || c.DiscoveryTimeout < 0 || c.HelloInterval < 0:
		return errors.New("aodv: route timeout, discovery timeout and hello interval must be >= 0")
	case c.RebroadcastJitter < 0 || c.RebroadcastJitter == sim.MaxTime:
		return errors.New("aodv: rebroadcast jitter must be in [0, MaxTime)")
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

// Router is one node's AODV instance.
type Router struct {
	id    phy.NodeID
	sched *sim.Scheduler
	rng   *rand.Rand
	tr    Transport
	cfg   Config
	table *Table
	hooks Hooks

	seq        uint64 // own sequence number
	nextRREQID uint64
	nextPktSeq uint64
	helloSeq   uint64

	seenRREQ    map[rreqKey]struct{}
	buf         map[phy.NodeID][]*DataPacket
	discoveries map[phy.NodeID]*discovery
	helloTimer  sim.Timer
	stopped     bool
	down        bool // fault-injected crash: reversible via Restart

	stats Stats
}

type rreqKey struct {
	origin phy.NodeID
	id     uint64
}

type discovery struct {
	attempts int
	timer    sim.Timer
}

// New creates an AODV router and starts its hello schedule (if enabled).
func New(id phy.NodeID, sched *sim.Scheduler, rng *rand.Rand, tr Transport, cfg Config, hooks Hooks) *Router {
	if cfg.ActiveRouteTimeout <= 0 {
		cfg.ActiveRouteTimeout = 3 * sim.Second
	}
	if cfg.DiscoveryTimeout <= 0 {
		cfg.DiscoveryTimeout = sim.Second
	}
	if cfg.MaxDiscoveryAttempts <= 0 {
		cfg.MaxDiscoveryAttempts = 6
	}
	if cfg.SendBufferCap <= 0 {
		cfg.SendBufferCap = 64
	}
	r := &Router{
		id:          id,
		sched:       sched,
		rng:         rng,
		tr:          tr,
		cfg:         cfg,
		table:       NewTable(id),
		hooks:       hooks,
		seenRREQ:    make(map[rreqKey]struct{}),
		buf:         make(map[phy.NodeID][]*DataPacket),
		discoveries: make(map[phy.NodeID]*discovery),
	}
	if cfg.HelloInterval > 0 {
		r.scheduleHello()
	}
	return r
}

// ID returns the owning node's ID.
func (r *Router) ID() phy.NodeID { return r.id }

// Table exposes the routing table for metrics and tests.
func (r *Router) Table() *Table { return r.table }

// BufferedData returns the data packets currently parked awaiting route
// discovery, ordered by destination then insertion. The audit layer
// enumerates still-buffered traffic with it at teardown.
func (r *Router) BufferedData() []*DataPacket {
	dsts := make([]phy.NodeID, 0, len(r.buf))
	for dst := range r.buf {
		dsts = append(dsts, dst)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	var out []*DataPacket
	for _, dst := range dsts {
		out = append(out, r.buf[dst]...)
	}
	return out
}

// Stats returns a copy of the router counters.
func (r *Router) Stats() Stats { return r.stats }

// Stop halts periodic activity (hellos).
func (r *Router) Stop() {
	r.stopped = true
	r.helloTimer.Cancel()
}

// Crash wipes the router for a fault-injected node crash: hellos stop,
// discovery timers are cancelled, and the send buffer, RREQ dedup state
// and routing table are cleared. The buffered data packets are returned
// (destination order, as BufferedData) WITHOUT passing through the drop
// hook — the fault layer reconciles them as a terminal class of their own.
// Stats and sequence counters survive (the latter so recycled packets
// never reuse a PacketKey).
func (r *Router) Crash() []*DataPacket {
	if r.down {
		return nil
	}
	r.down = true
	flushed := r.BufferedData()
	r.Stop()
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
	r.table = NewTable(r.id)
	return flushed
}

// Restart brings a crashed router back up with empty state and resumes the
// hello schedule.
func (r *Router) Restart() {
	if !r.down {
		return
	}
	r.down = false
	r.stopped = false
	if r.cfg.HelloInterval > 0 {
		r.scheduleHello()
	}
}

// SendData originates an application packet to dst.
func (r *Router) SendData(dst phy.NodeID, flowID uint64, payloadBytes int) {
	if r.down {
		return
	}
	now := r.sched.Now()
	r.nextPktSeq++
	pkt := &DataPacket{
		FlowID:       flowID,
		Seq:          r.nextPktSeq,
		Src:          r.id,
		Dst:          dst,
		PayloadBytes: payloadBytes,
		OriginatedAt: now,
	}
	if r.hooks.DataOriginated != nil {
		r.hooks.DataOriginated(pkt)
	}
	if dst == r.id {
		r.deliver(pkt, r.id)
		return
	}
	r.forwardOrDiscover(pkt)
}

// forwardOrDiscover sends pkt to the next hop, or buffers it and starts a
// discovery when no valid route exists.
func (r *Router) forwardOrDiscover(pkt *DataPacket) {
	now := r.sched.Now()
	route := r.table.Lookup(now, pkt.Dst)
	if route == nil {
		q := r.buf[pkt.Dst]
		if len(q) >= r.cfg.SendBufferCap {
			r.drop(q[0], "buffer-overflow")
			q = q[1:]
		}
		r.buf[pkt.Dst] = append(q, pkt)
		r.startDiscovery(pkt.Dst)
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
	r.drop(pkt, "link-failure")
}

func (r *Router) deliver(pkt *DataPacket, from phy.NodeID) {
	r.stats.Delivered++
	if r.hooks.DataActivity != nil {
		r.hooks.DataActivity()
	}
	if r.hooks.DataDelivered != nil {
		r.hooks.DataDelivered(pkt, from)
	}
}

func (r *Router) drop(pkt *DataPacket, reason string) {
	r.stats.Dropped++
	if r.hooks.DataDropped != nil {
		r.hooks.DataDropped(pkt, reason)
	}
}

// --- discovery ---

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
		delete(r.discoveries, dst)
		for _, pkt := range r.buf[dst] {
			r.drop(pkt, "no-route")
		}
		delete(r.buf, dst)
		return
	}
	hopLimit := 255
	if r.cfg.NonPropagatingFirst && d.attempts == 1 {
		hopLimit = 1
	}
	r.seq++ // RFC: increment own seq before a discovery
	r.nextRREQID++
	req := &RouteRequest{
		ID:        r.nextRREQID,
		Origin:    r.id,
		OriginSeq: r.seq,
		Target:    dst,
		TargetSeq: r.table.LastKnownSeq(dst),
		HopLimit:  hopLimit,
	}
	r.seenRREQ[rreqKey{origin: r.id, id: req.ID}] = struct{}{}
	r.stats.RREQSent++
	r.control(core.ClassRREQ)
	r.tr.Send(phy.Broadcast, req, nil)

	timeout := r.cfg.DiscoveryTimeout << uint(d.attempts-1)
	d.timer = r.sched.After(timeout, func() { r.issueRREQ(dst, d) })
}

// routeEstablished flushes buffered traffic when a route to dst appears.
func (r *Router) routeEstablished(dst phy.NodeID) {
	if d, running := r.discoveries[dst]; running {
		d.timer.Cancel()
		delete(r.discoveries, dst)
	}
	q := r.buf[dst]
	delete(r.buf, dst)
	for _, pkt := range q {
		r.forwardOrDiscover(pkt)
	}
}

// --- control senders ---

func (r *Router) sendRREP(to phy.NodeID, rep *RouteReply) {
	r.stats.RREPSent++
	r.control(core.ClassRREP)
	r.tr.Send(to, rep, nil)
}

func (r *Router) sendRERR(rerr *RouteError) {
	r.stats.RERRSent++
	r.control(core.ClassRERR)
	r.tr.Send(phy.Broadcast, rerr, nil)
}

func (r *Router) control(c core.Class) {
	if r.hooks.ControlSent != nil {
		r.hooks.ControlSent(c)
	}
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
			r.control(core.ClassRREP) // hellos are unsolicited RREPs
			r.tr.Send(phy.Broadcast, &Hello{From: r.id, Seq: r.seq}, nil)
		}
		r.scheduleHello()
	})
}

// --- receive path ---

// Receive processes a message addressed to this node (or broadcast).
func (r *Router) Receive(from phy.NodeID, msg Message) {
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
// packets addressed to other nodes (paper §1 footnote). It exists so AODV
// satisfies the same routing interface as DSR.
func (r *Router) Overhear(phy.NodeID, Message) {}

func (r *Router) onData(from phy.NodeID, pkt *DataPacket) {
	now := r.sched.Now()
	// Seeing traffic from `from` refreshes the neighbor route.
	r.table.Update(now, from, from, 1, r.table.LastKnownSeq(from), r.cfg.ActiveRouteTimeout)
	if pkt.Dst == r.id {
		r.deliver(pkt, from)
		return
	}
	fwd := *pkt
	fwd.HopsTaken = pkt.HopsTaken + 1
	if fwd.HopsTaken > 32 {
		r.drop(&fwd, "ttl-exceeded")
		return
	}
	if r.hooks.DataForwarded != nil {
		r.hooks.DataForwarded(&fwd)
	}
	// Refresh the reverse route towards the source as well (§6.2).
	r.table.Refresh(now, pkt.Src, r.cfg.ActiveRouteTimeout)
	r.forwardOrDiscover(&fwd)
}

func (r *Router) onRREQ(from phy.NodeID, req *RouteRequest) {
	if req.Origin == r.id {
		return
	}
	now := r.sched.Now()
	key := rreqKey{origin: req.Origin, id: req.ID}
	if _, dup := r.seenRREQ[key]; dup {
		return
	}
	r.seenRREQ[key] = struct{}{}

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
		r.tr.Send(phy.Broadcast, &fwd, nil)
	})
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
