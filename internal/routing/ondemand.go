package routing

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"rcast/internal/core"
	"rcast/internal/phy"
	"rcast/internal/sim"
)

// Packet is a protocol's data packet: a pointer to a struct embedding Data.
type Packet interface{ appData() *Data }

// Discovery holds the route-discovery knobs both protocols' Configs carry.
type Discovery struct {
	NonPropagatingFirst bool     // the first attempt is a 1-hop RREQ
	Timeout             sim.Time // base RREP wait, doubled per attempt
	MaxAttempts         int      // attempts before parked packets are dropped
	BufferCap           int      // parked packets per destination
	Jitter              sim.Time // bound on the flood rebroadcast delay
}

// maxAttempts bounds Discovery.MaxAttempts: the RREP wait doubles per
// attempt, and past this many doublings it overflows.
const maxAttempts = 32

// Validate reports discovery settings a router cannot run with. Zero
// fields keep the defaults NewOnDemand fills in; negatives are rejected.
func (d Discovery) Validate() error {
	switch {
	case d.BufferCap < 0:
		return errors.New("send buffer capacity must be >= 0")
	case d.MaxAttempts < 0 || d.MaxAttempts > maxAttempts:
		return fmt.Errorf("max discovery attempts must be in [0, %d]", maxAttempts)
	case d.Timeout < 0:
		return errors.New("discovery timeout must be >= 0")
	case d.Jitter < 0 || d.Jitter == sim.MaxTime:
		return errors.New("rebroadcast jitter must be in [0, MaxTime)")
	}
	return nil
}

// Counts are the counters OnDemand keeps, named as in both protocols'
// Stats.
type Counts struct{ RREQSent, Delivered, Dropped uint64 }

// Parked is a data packet waiting for a route, and when it was parked.
type Parked[P Packet] struct {
	Pkt P
	At  sim.Time
}

// OnDemand is the route-discovery cycle DSR and AODV share. A packet with
// no route is parked in a per-destination send buffer while an RREQ is
// flooded and retried with a doubling wait; the parked packets go back to
// the router when a route appears, or are dropped with "no-route" when
// the attempts run out. It also originates packets, suppresses duplicate
// RREQs, rebroadcasts floods after a jitter and wipes all of this on a
// crash. A router embeds it and keeps what differs: how it routes, and
// the RREQ it builds for each attempt.
type OnDemand[P Packet] struct {
	id      phy.NodeID
	sched   *sim.Scheduler
	rng     *rand.Rand
	tr      Transport
	hooks   Hooks
	cfg     Discovery
	request func(dst phy.NodeID, id uint64, hopLimit int) Message

	buf         map[phy.NodeID][]Parked[P]
	discoveries map[phy.NodeID]*discovery
	seen        map[rreqKey]struct{}
	nextRREQID  uint64
	nextSeq     uint64
	down        bool // fault-injected crash: reversible via Restart
	counts      Counts
}

type rreqKey struct {
	origin phy.NodeID
	id     uint64
}

type discovery struct {
	attempts int
	timer    sim.Timer
}

// NewOnDemand returns the discovery core of router id; request builds the
// RREQ of each attempt. Zero knobs take their defaults: a 1 s RREP wait,
// 6 attempts and 64 parked packets per destination.
func NewOnDemand[P Packet](id phy.NodeID, sched *sim.Scheduler, rng *rand.Rand, tr Transport, hooks Hooks,
	cfg Discovery, request func(dst phy.NodeID, id uint64, hopLimit int) Message) OnDemand[P] {
	if cfg.Timeout <= 0 {
		cfg.Timeout = sim.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 6
	}
	if cfg.BufferCap <= 0 {
		cfg.BufferCap = 64
	}
	return OnDemand[P]{
		id: id, sched: sched, rng: rng, tr: tr, hooks: hooks, cfg: cfg, request: request,
		buf:         make(map[phy.NodeID][]Parked[P]),
		discoveries: make(map[phy.NodeID]*discovery),
		seen:        make(map[rreqKey]struct{}),
	}
}

// Down reports whether the router is crashed.
func (o *OnDemand[P]) Down() bool { return o.down }

// Counts returns the counters OnDemand keeps.
func (o *OnDemand[P]) Counts() Counts { return o.counts }

// Originate stamps p as this node's next application packet to dst and
// reports it to DataOriginated. A packet addressed to the node itself is
// delivered at once, over 0 hops, and Originate returns false; otherwise
// the router routes p.
func (o *OnDemand[P]) Originate(p P, dst phy.NodeID, flowID uint64, payloadBytes int) bool {
	o.nextSeq++
	d := p.appData()
	*d = Data{FlowID: flowID, Seq: o.nextSeq, Src: o.id, Dst: dst, PayloadBytes: payloadBytes, OriginatedAt: o.sched.Now()}
	if o.hooks.DataOriginated != nil {
		o.hooks.DataOriginated(d)
	}
	if dst == o.id {
		o.Deliver(d, o.id, 0)
		return false
	}
	return true
}

// BufferedData returns the parked data packets, ordered by destination
// then insertion. The audit enumerates still-buffered traffic with it.
func (o *OnDemand[P]) BufferedData() []*Data {
	var out []*Data
	for _, dst := range sortedKeys(o.buf) {
		for _, e := range o.buf[dst] {
			out = append(out, e.Pkt.appData())
		}
	}
	return out
}

// Park queues p for its destination, dropping the oldest parked packet
// with "buffer-overflow" when the buffer is full, and starts a discovery
// unless one is running.
func (o *OnDemand[P]) Park(p P) {
	dst := p.appData().Dst
	q := o.buf[dst]
	if len(q) >= o.cfg.BufferCap {
		o.Drop(q[0].Pkt.appData(), "buffer-overflow")
		q = q[1:]
	}
	o.buf[dst] = append(q, Parked[P]{Pkt: p, At: o.sched.Now()})
	if _, running := o.discoveries[dst]; !running {
		d := &discovery{}
		o.discoveries[dst] = d
		o.issueRREQ(dst, d)
	}
}

// Waiting reports whether packets are parked for dst; a discovery runs
// exactly while they are.
func (o *OnDemand[P]) Waiting(dst phy.NodeID) bool {
	_, ok := o.buf[dst]
	return ok
}

// RouteFound ends the discovery for dst and hands back the packets parked
// for it, oldest first.
func (o *OnDemand[P]) RouteFound(dst phy.NodeID) []Parked[P] {
	if d, running := o.discoveries[dst]; running {
		d.timer.Cancel()
		delete(o.discoveries, dst)
	}
	q := o.buf[dst]
	delete(o.buf, dst)
	return q
}

// issueRREQ floods the next attempt of d and schedules the one after it,
// or gives up on dst once the attempts run out.
func (o *OnDemand[P]) issueRREQ(dst phy.NodeID, d *discovery) {
	d.attempts++
	if d.attempts > o.cfg.MaxAttempts {
		delete(o.discoveries, dst)
		for _, e := range o.buf[dst] {
			o.Drop(e.Pkt.appData(), "no-route")
		}
		delete(o.buf, dst)
		return
	}
	hopLimit := 255
	if o.cfg.NonPropagatingFirst && d.attempts == 1 {
		hopLimit = 1
	}
	o.nextRREQID++
	req := o.request(dst, o.nextRREQID, hopLimit)
	o.seen[rreqKey{origin: o.id, id: o.nextRREQID}] = struct{}{}
	o.counts.RREQSent++
	o.Control(core.ClassRREQ)
	o.tr.Send(phy.Broadcast, req, nil)

	timeout := o.cfg.Timeout << uint(d.attempts-1)
	d.timer = o.sched.After(timeout, func() { o.issueRREQ(dst, d) })
}

// FirstSight records the RREQ (origin, id) and reports whether it is the
// first copy this router has seen.
func (o *OnDemand[P]) FirstSight(origin phy.NodeID, id uint64) bool {
	key := rreqKey{origin: origin, id: id}
	if _, dup := o.seen[key]; dup {
		return false
	}
	o.seen[key] = struct{}{}
	return true
}

// Rebroadcast floods req on after a jitter drawn from the router's stream.
// A router that crashes inside the jitter window sends nothing.
func (o *OnDemand[P]) Rebroadcast(req Message) {
	jitter := sim.Time(0)
	if o.cfg.Jitter > 0 {
		jitter = sim.Time(o.rng.Int63n(int64(o.cfg.Jitter) + 1))
	}
	o.sched.After(jitter, func() {
		if o.down {
			return
		}
		o.counts.RREQSent++
		o.Control(core.ClassRREQ)
		o.tr.Send(phy.Broadcast, req, nil)
	})
}

// Deliver hands a packet that reached its destination over hops links to
// the hooks.
func (o *OnDemand[P]) Deliver(p *Data, from phy.NodeID, hops int) {
	o.counts.Delivered++
	if o.hooks.DataActivity != nil {
		o.hooks.DataActivity()
	}
	if o.hooks.DataDelivered != nil {
		o.hooks.DataDelivered(p, from, hops)
	}
}

// Drop gives up on a data packet for reason.
func (o *OnDemand[P]) Drop(p *Data, reason string) {
	o.counts.Dropped++
	if o.hooks.DataDropped != nil {
		o.hooks.DataDropped(p, reason)
	}
}

// Control reports one control-packet transmission of class c.
func (o *OnDemand[P]) Control(c core.Class) {
	if o.hooks.ControlSent != nil {
		o.hooks.ControlSent(c)
	}
}

// Crash marks the router down, cancels its discoveries and forgets its
// send buffer and the RREQs it has seen. It returns the parked packets as
// BufferedData lists them, without passing them through DataDropped. The
// router calls it once per crash, after checking Down and wiping its own
// state.
func (o *OnDemand[P]) Crash() []*Data {
	o.down = true
	flushed := o.BufferedData()
	for _, dst := range sortedKeys(o.discoveries) {
		o.discoveries[dst].timer.Cancel()
		delete(o.discoveries, dst)
	}
	clear(o.buf)
	clear(o.seen)
	return flushed
}

// Restart brings a crashed router back up. The sequence counters keep
// running, so a packet sent after Restart never reuses a key.
func (o *OnDemand[P]) Restart() { o.down = false }

// sortedKeys returns m's destinations in ascending order.
func sortedKeys[V any](m map[phy.NodeID]V) []phy.NodeID {
	dsts := make([]phy.NodeID, 0, len(m))
	for dst := range m {
		dsts = append(dsts, dst)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	return dsts
}
