// Package phy models the wireless physical layer: half-duplex radios, a
// shared broadcast channel, deterministic disk propagation derived from the
// two-ray ground model (or a pluggable Propagation model), per-receiver
// collision detection, and carrier sense. Who hears whom is answered from
// per-radio reach lists (reach.go) rather than by scanning every radio.
//
// The paper's ns-2 setup uses the two-ray ground reflection model with a
// 250 m nominal transmission range at 2 Mbps. Under two-ray ground the
// received power falls off as d^-4 with no fading, so "decodable" is a
// deterministic function of distance: a disk of radius Range. This package
// therefore implements disk propagation with the radius as the configured
// range — exactly the behaviour ns-2 exhibits for this model (see DESIGN.md
// §2 for the substitution note).
package phy

import (
	"math"
	"strconv"

	"rcast/internal/geom"
	"rcast/internal/mobility"
	"rcast/internal/sim"
)

// NodeID identifies a node (and its radio) within a scenario.
type NodeID int

// Broadcast is the link-layer broadcast address.
const Broadcast NodeID = -1

// String implements fmt.Stringer. Built without fmt: node IDs are
// rendered once per traced MAC/PHY event.
func (id NodeID) String() string {
	if id == Broadcast {
		return "bcast"
	}
	return "n" + strconv.Itoa(int(id))
}

// PreambleTime is the PHY preamble + PLCP header duration (802.11 DSSS long
// preamble, transmitted at 1 Mbps regardless of the data rate).
const PreambleTime = 192 * sim.Microsecond

// Airtime returns how long a frame of the given on-air size occupies the
// channel at the given data rate.
func Airtime(bytes int, rateMbps float64) sim.Time {
	if bytes < 0 {
		bytes = 0
	}
	if rateMbps <= 0 {
		rateMbps = 2
	}
	payload := sim.FromSeconds(float64(bytes) * 8 / (rateMbps * 1e6))
	return PreambleTime + payload
}

// TwoRayGroundRange returns the crossover/decode radius in metres for the
// two-ray ground model given transmit power pt (W), antenna gains, antenna
// height ht=hr (m) and receive threshold rxThresh (W):
//
//	Pr(d) = Pt * Gt * Gr * ht^2 * hr^2 / d^4
//
// With the ns-2 defaults (Pt=0.2818 W, G=1, h=1.5 m, RXThresh=3.652e-10 W)
// this yields the paper's 250 m range.
func TwoRayGroundRange(pt, gt, gr, ht, hr, rxThresh float64) float64 {
	if pt <= 0 || rxThresh <= 0 {
		return 0
	}
	return math.Pow(pt*gt*gr*ht*ht*hr*hr/rxThresh, 0.25)
}

// Frame is the unit the PHY carries. Payload is an opaque MAC frame; Bytes
// is the full on-air size used for airtime and energy accounting.
type Frame struct {
	From    NodeID
	To      NodeID // Broadcast or a unicast link-layer destination
	Bytes   int
	Payload any
}

// Receiver is the upcall interface a MAC registers on its radio.
type Receiver interface {
	// OnFrame delivers a successfully decoded frame: the radio was awake and
	// in range for the whole transmission and no overlapping transmission
	// corrupted it. It is called for every decodable frame regardless of the
	// To address — address filtering and overhearing policy are MAC
	// concerns.
	OnFrame(f Frame)
}

// DeliveryObserver is notified of every reception that completes
// successfully, immediately before the MAC upcall (invariant auditing).
// awake is the receiving radio's power state at the delivery instant.
type DeliveryObserver interface {
	FrameDelivered(now sim.Time, rx NodeID, awake bool, f Frame)
}

// Frame-loss reasons reported to a DropObserver, matching the Stats
// counters the channel increments alongside each report.
const (
	LossCollision    = "collision"     // overlap or half-duplex corruption
	LossMissedAsleep = "missed-asleep" // receiving radio was (or fell) asleep
	LossFault        = "fault-lost"    // injected by the LossModel
	LossChannel      = "chan-lost"     // propagation model declined the link (non-disk channels)
)

// DropObserver is notified of every per-receiver frame loss the channel
// classifies, at the instant the matching Stats counter increments
// (lifecycle tracing). A nil observer costs one pointer check per loss.
type DropObserver interface {
	FrameLost(now sim.Time, rx NodeID, f Frame, reason string)
}

// TxObserver is notified of every frame put on the air, at the instant
// the transmission starts (per-transmission energy accounting under
// variable TX power). A nil observer costs one pointer check per
// transmission.
type TxObserver interface {
	FrameTransmitted(now sim.Time, tx NodeID, airtime sim.Time)
}

// Stats counts channel-level events. ChannelLost is omitempty so results
// from disk-channel runs keep their historical JSON encoding byte for
// byte (the golden corpus pins those bytes).
type Stats struct {
	Transmissions uint64 // frames put on the air
	Deliveries    uint64 // successful per-receiver decodes
	Collisions    uint64 // per-receiver losses due to overlap
	MissedAsleep  uint64 // per-receiver losses because the radio slept
	FaultLost     uint64 // per-receiver losses injected by the LossModel

	// ChannelLost counts receivers within the propagation model's reach
	// whose per-(link, instant) verdict declined the frame.
	ChannelLost uint64 `json:",omitempty"`
}

// LossModel decides, per completed reception, whether the channel corrupts
// the frame (fault injection; see internal/fault). Lose is consulted only
// for frames that would otherwise decode — after collision, half-duplex and
// sleep filtering — so implementations see a deterministic query sequence:
// reception completions in scheduler order at monotone instants.
type LossModel interface {
	Lose(now sim.Time, tx, rx NodeID) bool
}

// Propagation decides per-(link, instant) decodability for the channel
// (see internal/propagation for the implementations). Implementations
// must be pure functions of their construction parameters and the call
// arguments — no internal state, no shared RNG streams — so verdicts are
// identical regardless of query order or repetition, and must be
// symmetric in (a, b). Decodable must return false whenever dist exceeds
// MaxRange: the reach lists prune candidates at that bound, so a verdict
// beyond it would never be asked for. A model whose verdict is a fixed
// radius per link declares it through LinkRanger, and the channel then
// settles its verdicts without calling Decodable at all.
//
// Per-transmitter power control composes on top of this contract without
// breaking purity or symmetry: a transmitter whose range is scaled by s
// is queried at dist/s against reach MaxRange()*s, so the model itself
// stays a symmetric function of distance while links become directional
// (A at high power may reach B while B at low power cannot reach A).
type Propagation interface {
	// Decodable reports whether a frame transmitted between a and b
	// (unordered) at instant now spanning dist metres decodes.
	Decodable(now sim.Time, a, b NodeID, dist float64) bool
	// MaxRange bounds the distance at which Decodable can return true.
	MaxRange() float64
}

// LinkRanger is implemented by propagation models whose verdict for a
// link is a radius fixed for the whole run:
//
//	Decodable(now, a, b, d) == (d <= LinkRange(a, b))
//
// at every instant and distance. LinkRange must be pure and symmetric in
// (a, b), like Decodable. The channel asks it once per unordered link and
// run and settles that link's verdicts against the radius in its reach
// lists, as it settles the disk's (DESIGN.md §20).
type LinkRanger interface {
	LinkRange(a, b NodeID) float64
}

// Channel is the shared medium connecting all radios in a scenario.
type Channel struct {
	sched  *sim.Scheduler
	radios []*Radio
	byID   map[NodeID]*Radio
	rangeM float64
	stats  Stats

	// Reach lists (see reach.go), built lazily at the first query. The
	// declared motion bound (+Inf until SetMotionBound) decides how long
	// a build stays valid and which verdicts it can settle without a
	// distance. hits and hitDist are the walker's result scratch.
	motionBound float64
	lists       reachLists
	hits        []int32
	hitDist     []float64
	hitOK       []bool

	// Freelists for the per-transmission batch machinery (see Transmit):
	// recycling batches and deliveries keeps the reception hot path
	// allocation-free.
	freeBatch    *txBatch
	freeDelivery *delivery

	obs     DeliveryObserver // nil = no delivery instrumentation
	dropObs DropObserver     // nil = no loss instrumentation
	txObs   TxObserver       // nil = no transmission instrumentation
	loss    LossModel        // nil = clean channel

	// Propagation model state. prop == nil is the disk fast path:
	// decodability is dist <= rangeM, which the reach lists settle for
	// most candidates without computing dist at all. With a model
	// installed, maxRange caches prop.MaxRange() as the lists' reach.
	// When the model is a LinkRanger, links holds each pair's radius,
	// links[i*n+j] for radios i and j of n, asked once at the first build
	// after the radio set or the model changed, and the lists settle each
	// verdict against it as they settle the disk's. Any other model gets
	// every candidate within the reach at its exact distance for
	// Decodable — from d0 when neither radio has moved since the lists
	// were built. chanReplay, when set, substitutes the recorded
	// channel-loss stream for the model's transmit-time verdicts
	// (internal/replay).
	prop       Propagation
	ranger     LinkRanger
	links      []float64
	maxRange   float64
	chanReplay LossModel
}

// SetDeliveryObserver installs the delivery observer (nil disables it).
func (c *Channel) SetDeliveryObserver(o DeliveryObserver) { c.obs = o }

// SetDropObserver installs the frame-loss observer (nil disables it).
func (c *Channel) SetDropObserver(o DropObserver) { c.dropObs = o }

// SetTxObserver installs the transmission observer (nil disables it).
func (c *Channel) SetTxObserver(o TxObserver) { c.txObs = o }

// frameLost reports a loss to the drop observer. Call sites mirror the
// Stats loss counters exactly: one frameLost per counted loss.
func (c *Channel) frameLost(rx *Radio, f Frame, now sim.Time, reason string) {
	if c.dropObs != nil {
		c.dropObs.FrameLost(now, rx.id, f, reason)
	}
}

// SetLossModel installs the fault-injection loss model (nil restores the
// clean channel).
func (c *Channel) SetLossModel(m LossModel) { c.loss = m }

// SetPropagation installs a propagation model (nil restores exact disk
// propagation at the construction radius). The reach lists are rebuilt
// at the model's MaxRange — the invariant that keeps list answers
// identical to the exhaustive scan under per-link variable effective
// range. Call before the run starts: switching models mid-run would
// change verdicts already relied on.
func (c *Channel) SetPropagation(p Propagation) {
	c.prop = p
	c.ranger, _ = p.(LinkRanger)
	c.links = c.links[:0]
	c.maxRange = 0
	if p != nil {
		c.maxRange = p.MaxRange()
	}
	c.lists.valid = false
}

// SetChannelReplay substitutes a recorded channel-loss stream for the
// propagation model's transmit-time verdicts (see internal/replay). Only
// consulted while a non-disk model is installed; neighbor queries keep
// using the model, whose verdicts re-derive deterministically from the
// config seed.
func (c *Channel) SetChannelReplay(m LossModel) { c.chanReplay = m }

// NewChannel creates a channel; rangeM is the decode radius in metres.
func NewChannel(sched *sim.Scheduler, rangeM float64) *Channel {
	return &Channel{
		sched:       sched,
		byID:        make(map[NodeID]*Radio),
		rangeM:      rangeM,
		motionBound: math.Inf(1),
	}
}

// SetMotionBound declares an upper bound on how fast any radio on this
// channel moves (metres per simulated second; 0 means every radio is
// stationary). It decides how long the reach lists stay valid once a
// radio has moved: without a declared bound they are rebuilt at every new
// query instant at which one has. The bound must hold for the whole run —
// the lists settle verdicts from it, so their answers are identical to
// the exhaustive scan only as long as it does.
func (c *Channel) SetMotionBound(maxSpeedMps float64) {
	if maxSpeedMps < 0 {
		maxSpeedMps = 0
	}
	c.motionBound = maxSpeedMps
	c.lists.valid = false
}

// MotionBound returns the declared bound on radio speed (m/s), or +Inf
// when none was declared.
func (c *Channel) MotionBound() float64 { return c.motionBound }

// Stats returns a copy of the channel counters.
func (c *Channel) Stats() Stats { return c.stats }

// Range returns the decode radius in metres.
func (c *Channel) Range() float64 { return c.rangeM }

// AddRadio registers a radio for a node. Radios start awake at nominal
// transmit power.
func (c *Channel) AddRadio(id NodeID, mob mobility.Model) *Radio {
	r := &Radio{id: id, idx: int32(len(c.radios)), ch: c, mob: mob, awake: true, txScale: 1}
	c.radios = append(c.radios, r)
	c.byID[id] = r
	c.links = c.links[:0]
	c.lists.valid = false
	return r
}

// Radios returns the registered radios in registration order. The returned
// slice must not be mutated.
func (c *Channel) Radios() []*Radio { return c.radios }

// RadioOf returns the radio for id, or nil.
func (c *Channel) RadioOf(id NodeID) *Radio {
	return c.byID[id]
}

// InRange reports whether a transmission from a reaches b at instant now.
// The verdict is directional under power control: it uses a's transmit
// range scale, so InRange(a, b) and InRange(b, a) can disagree when the
// two radios transmit at different powers.
func (c *Channel) InRange(a, b *Radio, now sim.Time) bool {
	d := a.Position(now).DistanceTo(b.Position(now))
	s := a.txScale
	if c.prop != nil {
		return d <= c.maxRange*s && c.prop.Decodable(now, a.id, b.id, d/s)
	}
	return d <= c.rangeM*s
}

// Neighbors returns the IDs of all radios that decode a transmission from
// r at now, excluding r itself, in registration order (deterministic). Reach
// uses r's transmit range scale, so the answer is directional under power
// control; with a propagation model installed it also takes the model's
// verdict for each link, queried at the power-normalized distance.
func (c *Channel) Neighbors(r *Radio, now sim.Time) []NodeID {
	var out []NodeID
	for _, j := range c.neighbors(r, now) {
		out = append(out, c.radios[j].id)
	}
	return out
}

// VisitNeighbors calls visit with the ID of every radio Neighbors would
// return, in the same order. It is the allocation-free form of Neighbors
// for per-event hot paths (PSM churn tracking, ATIM reach); visit must not
// query the channel.
func (c *Channel) VisitNeighbors(r *Radio, now sim.Time, visit func(NodeID)) {
	for _, j := range c.neighbors(r, now) {
		visit(c.radios[j].id)
	}
}

// CountNeighbors returns the number of radios Neighbors would return.
func (c *Channel) CountNeighbors(r *Radio, now sim.Time) int {
	return len(c.neighbors(r, now))
}

// Transmit puts f on the air from tx for the frame's airtime at the given
// data rate. Reception outcomes (delivery, collision, missed-asleep) resolve
// per receiver when the transmission ends: all receivers that entered the
// reception state are resolved by a single batched scheduler event rather
// than one event each. The per-receiver finish events of the pre-batching
// scheduler carried consecutive sequence numbers — nothing could interleave
// them — so resolving the whole batch at the first one's slot preserves the
// exact global event order.
func (c *Channel) Transmit(tx *Radio, f Frame, rateMbps float64) {
	now := c.sched.Now()
	end := now + Airtime(f.Bytes, rateMbps)
	c.stats.Transmissions++
	if c.txObs != nil {
		c.txObs.FrameTransmitted(now, tx.id, end-now)
	}

	// Half duplex: transmitting corrupts any reception in progress at tx.
	if tx.current != nil {
		tx.current.collided = true
	}
	tx.txUntil = end
	tx.extendCarrier(end)

	b := c.allocBatch()
	b.frame = f
	b.end = end
	var hits []int32
	var dist []float64
	var ok []bool
	if c.ranger != nil {
		hits, ok = c.linked(tx, now, true)
	} else {
		hits, dist = c.reached(tx, now)
	}
	for k, j := range hits {
		rx := c.radios[j]
		switch {
		case c.prop == nil:
			rx.extendCarrier(end)
			c.beginReception(b, rx, now, end)
		case c.chanReplay != nil:
			c.admitReception(b, rx, now, end, c.chanReplay.Lose(now, tx.id, rx.id))
		case c.ranger != nil:
			c.admitReception(b, rx, now, end, !ok[k])
		default:
			c.admitReception(b, rx, now, end, !c.prop.Decodable(now, tx.id, rx.id, dist[k]/tx.txScale))
		}
	}
	if b.head == nil {
		// No receiver entered the reception state (all asleep or
		// transmitting): no completion event, as before batching.
		c.releaseBatch(b)
		return
	}
	c.sched.After(end-now, b.fire)
}

// admitReception is the per-candidate transmit step under a propagation
// model: rx is within the transmitter's reach, and lost is the model's
// (or, during replay, the recorded stream's) verdict on the link for this
// frame. The model judges the power-normalized distance (geometric
// distance over the transmitter's range scale), so it sees the link as if
// transmitted at nominal power. A declined link is counted and traced as
// chan-lost — the frame never reaches the receiver, so it neither extends
// carrier sense nor enters the reception state. Candidates are consulted
// in registration order, so the chan-lost decision sequence is
// deterministic and replayable head-to-tail.
func (c *Channel) admitReception(b *txBatch, rx *Radio, now, end sim.Time, lost bool) {
	if lost {
		c.stats.ChannelLost++
		c.frameLost(rx, b.frame, now, LossChannel)
		return
	}
	rx.extendCarrier(end)
	c.beginReception(b, rx, now, end)
}

func (c *Channel) beginReception(b *txBatch, rx *Radio, now, end sim.Time) {
	if !rx.awake {
		c.stats.MissedAsleep++
		c.frameLost(rx, b.frame, now, LossMissedAsleep)
		return
	}
	if rx.txUntil > now {
		// Half duplex: a transmitting radio cannot decode.
		c.stats.Collisions++
		c.frameLost(rx, b.frame, now, LossCollision)
		return
	}
	d := c.allocDelivery()
	d.rx = rx
	d.end = end
	if rx.current != nil && rx.current.end > now {
		// Overlap: both frames are lost at this receiver.
		rx.current.collided = true
		d.collided = true
		c.stats.Collisions++
		c.frameLost(rx, b.frame, now, LossCollision)
		// Track the longer of the two as the in-progress (corrupted)
		// reception so a third overlapping frame also collides.
		if end > rx.current.end {
			rx.current = d
		}
	} else {
		rx.current = d
	}
	if b.tail == nil {
		b.head = d
	} else {
		b.tail.next = d
	}
	b.tail = d
}

// finishBatch resolves every reception of one transmission, in the receiver
// order Transmit visited them. The batch is detached and recycled up front
// so a mid-batch Transmit (from a MAC upcall) can reuse it immediately.
func (c *Channel) finishBatch(b *txBatch) {
	f := b.frame
	d := b.head
	c.releaseBatch(b)
	for d != nil {
		next := d.next
		c.finishReception(d.rx, d, f)
		c.releaseDelivery(d)
		d = next
	}
}

func (c *Channel) finishReception(rx *Radio, d *delivery, f Frame) {
	if rx.current == d {
		rx.current = nil
	}
	if d.collided {
		// Already counted when the overlap was detected.
		return
	}
	if !rx.awake {
		// Receiver fell asleep mid-frame.
		c.stats.MissedAsleep++
		c.frameLost(rx, f, c.sched.Now(), LossMissedAsleep)
		return
	}
	if d.aborted {
		return
	}
	if c.loss != nil && c.loss.Lose(c.sched.Now(), f.From, rx.id) {
		c.stats.FaultLost++
		c.frameLost(rx, f, c.sched.Now(), LossFault)
		return
	}
	c.stats.Deliveries++
	if c.obs != nil {
		c.obs.FrameDelivered(c.sched.Now(), rx.id, rx.awake, f)
	}
	if rx.recv != nil {
		rx.recv.OnFrame(f)
	}
}

// txBatch collects the in-flight receptions of one transmission behind a
// single prebound completion event. The frame is stored once per batch
// instead of once per receiver.
type txBatch struct {
	frame      Frame
	end        sim.Time
	head, tail *delivery
	next       *txBatch // freelist link
	fire       func()   // prebound finishBatch closure
}

// delivery is one receiver's in-flight reception state. Deliveries are
// pooled individually (not inline in a batch slice) because rx.current
// holds pointers across batches: a growable slice would invalidate them.
type delivery struct {
	rx       *Radio
	next     *delivery
	end      sim.Time
	collided bool
	aborted  bool
}

func (c *Channel) allocBatch() *txBatch {
	b := c.freeBatch
	if b == nil {
		nb := &txBatch{}
		nb.fire = func() { c.finishBatch(nb) }
		return nb
	}
	c.freeBatch = b.next
	b.next = nil
	return b
}

// releaseBatch recycles b. Safe to call while its delivery list is still
// being walked from local copies: the caller detaches head first.
func (c *Channel) releaseBatch(b *txBatch) {
	b.frame = Frame{} // drop the payload reference for GC
	b.head, b.tail = nil, nil
	b.next = c.freeBatch
	c.freeBatch = b
}

func (c *Channel) allocDelivery() *delivery {
	d := c.freeDelivery
	if d == nil {
		return &delivery{}
	}
	c.freeDelivery = d.next
	d.next = nil
	d.collided, d.aborted = false, false
	return d
}

// releaseDelivery recycles d. Callers guarantee no rx.current references d:
// finishReception clears the receiver's pointer, and an aborted delivery was
// already detached by SetAwake.
func (c *Channel) releaseDelivery(d *delivery) {
	d.rx = nil
	d.next = c.freeDelivery
	c.freeDelivery = d
}

// Radio is one node's transceiver.
type Radio struct {
	id    NodeID
	idx   int32 // registration index in ch.radios
	ch    *Channel
	mob   mobility.Model
	recv  Receiver
	awake bool

	carrierUntil sim.Time
	txUntil      sim.Time
	current      *delivery

	// txScale stretches this radio's transmit reach relative to the
	// channel's nominal range (power control; 1 = nominal). Reception is
	// unaffected — only how far this radio's own frames carry.
	txScale float64

	// Position cache: pos is the position at every instant of [posFrom,
	// posUntil). One transmission (or neighbor query) asks many radios for
	// their position at the same now, and mobility models answer by
	// binary-searching a trajectory; a query caches its own instant, and a
	// reach-list build widens that to the model's still interval, so a
	// pausing radio answers without its model. Mobility models are pure
	// functions of time, so the cache can never go stale.
	posFrom, posUntil sim.Time
	pos               geom.Point
}

// ID returns the owning node's ID.
func (r *Radio) ID() NodeID { return r.id }

// Mobility returns the radio's mobility model.
func (r *Radio) Mobility() mobility.Model { return r.mob }

// SetReceiver registers the MAC upcall.
func (r *Radio) SetReceiver(rc Receiver) { r.recv = rc }

// Position returns the radio position at now. The cache answers repeated
// queries at one instant, and any instant of a still interval a reach-list
// build saw, without evaluating the mobility model.
func (r *Radio) Position(now sim.Time) geom.Point {
	if now >= r.posFrom && now < r.posUntil {
		return r.pos
	}
	r.pos, r.posFrom, r.posUntil = r.mob.PositionAt(now), now, now+1
	return r.pos
}

// SetTxRangeScale sets the factor this radio's transmissions stretch the
// nominal decode range by (transmit power control; 1 restores nominal).
// Links become asymmetric when radios transmit at different scales: A may
// reach B while B cannot reach A. Non-positive scales are clamped to 1.
func (r *Radio) SetTxRangeScale(s float64) {
	if !(s > 0) {
		s = 1
	}
	if s != r.txScale {
		r.txScale = s
		r.ch.lists.valid = false
	}
}

// TxRangeScale returns the radio's transmit range scale.
func (r *Radio) TxRangeScale() float64 { return r.txScale }

// Awake reports whether the radio can currently receive.
func (r *Radio) Awake() bool { return r.awake }

// SetAwake wakes or sleeps the radio. Going to sleep aborts any reception in
// progress (the frame is lost, not delivered later).
func (r *Radio) SetAwake(awake bool) {
	if r.awake == awake {
		return
	}
	r.awake = awake
	if !awake && r.current != nil {
		r.current.aborted = true
		r.current = nil
	}
}

// CarrierBusyUntil returns the instant the local medium becomes idle as
// observed by this radio (including its own transmissions). Sleeping radios
// still accumulate this state so that carrier sense is correct immediately
// after waking.
func (r *Radio) CarrierBusyUntil() sim.Time { return r.carrierUntil }

// CarrierBusy reports whether the local medium is busy at now.
func (r *Radio) CarrierBusy(now sim.Time) bool { return r.carrierUntil > now }

// Transmitting reports whether the radio is transmitting at now.
func (r *Radio) Transmitting(now sim.Time) bool { return r.txUntil > now }

func (r *Radio) extendCarrier(until sim.Time) {
	if until > r.carrierUntil {
		r.carrierUntil = until
	}
}
