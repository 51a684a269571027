package mac

import (
	"math/rand"

	"rcast/internal/core"
	"rcast/internal/energy"
	"rcast/internal/phy"
	"rcast/internal/sim"
)

// senderRecencyWindow is how long a sender counts as "recently heard" for
// the sender-ID overhearing factor.
const senderRecencyWindow = 2 * sim.Second

// PSM is a beacon-synchronized 802.11 power-save MAC with Rcast ATIM
// subtypes. All stations wake for every ATIM window; packets queued before
// the window are advertised; the configured core.Policy decides which
// non-addressed neighbors stay awake through the data phase.
//
// Following the paper's own modelling assumption (§4.1), the ATIM
// advertisement exchange is treated as reliable: an announcement reaches
// exactly the neighbors in radio range at the beacon instant. The energy
// cost of the ATIM window (every station awake) is fully charged.
//
// A PSM node can also be driven by an ODPM-style power manager through
// ExtendAM and the fast-path callback; see package odpm.
type PSM struct {
	sched  *sim.Scheduler
	ch     *phy.Channel
	radio  *phy.Radio
	meter  *energy.Meter
	policy core.Policy
	reads  core.Reads // the costly ListenContext fields policy reads
	rng    *rand.Rand
	p      Params
	up     Upcalls

	dcf     *dcf
	pending []Packet // packets not yet advertised

	amUntil sim.Time // ODPM: node stays in active mode until this instant
	// fastPath, when set (ODPM), reports whether dst is currently in AM so
	// the packet can bypass the beacon cycle.
	fastPath func(dst phy.NodeID) bool

	// lastHeard records, per sender NodeID, when a data frame from that
	// sender was last decoded (-1 = never): the sender-recency overhearing
	// factor. A slice indexed by NodeID replaces the former map: IDs are
	// small and dense, and this lookup sits on the per-beacon hot path.
	lastHeard []sim.Time

	// Neighbor-churn tracking, sampled at each beacon only when the policy
	// reads the link-change rate. Instead of materializing the neighbor set
	// as a map each beacon, every visited neighbor is stamped with the current
	// sample epoch; the symmetric difference against the previous sample is
	// then (curCount-common) + (prevCount-common), where common counts
	// neighbors still stamped with the previous epoch.
	nbrEpoch     []uint64
	nbrEpochCur  uint64
	prevNbrCount int
	churnVisit   func(phy.NodeID) // prebound VisitNeighbors callback
	churnCount   int              // neighbors seen this sample
	churnCommon  int              // ... of which were present last sample

	linkChurn float64  // EWMA link changes per second
	churnAt   sim.Time // instant of the previous churn sample
	churnInit bool     // a baseline neighbor set has been recorded

	audit Audit // nil = no invariant instrumentation
	trc   Trace // nil = no lifecycle tracing

	// lottery, when set (trace replay), overrides the outcome of each
	// overhearing coin. The coin is still drawn first, with exactly the
	// live run's draws from the shared MAC RNG stream — that keeps the
	// DCF backoff sequence aligned with the recorded run — and the
	// override then substitutes the recorded verdict.
	lottery func(now sim.Time, me phy.NodeID, a Announcement, policySays bool) bool

	// ATIM-contention admission state (Params.ATIMContention).
	lastAnnounced []annKey
	admitted      map[annKey]struct{}
	atimMisses    map[annKey]int

	// annScratch backs the slice BeaconStart returns. The coordinator copies
	// the announcements out before the next scheduler event, so the buffer
	// is free for reuse at the following beacon.
	annScratch []Announcement

	dead bool // battery depletion: permanent
	down bool // fault-injected crash: reversible via PowerUp

	stats Stats
}

// annKey identifies one distinct advertisement.
type annKey struct {
	dst phy.NodeID
	lvl core.Level
}

var _ Mac = (*PSM)(nil)
var _ Station = (*PSM)(nil)

// NewPSM builds a PSM MAC. The meter must be the node's energy meter; the
// policy decides advertised levels and overhearing.
func NewPSM(
	sched *sim.Scheduler,
	ch *phy.Channel,
	radio *phy.Radio,
	meter *energy.Meter,
	policy core.Policy,
	rng *rand.Rand,
	p Params,
	up Upcalls,
) *PSM {
	m := &PSM{
		sched:  sched,
		ch:     ch,
		radio:  radio,
		meter:  meter,
		policy: policy,
		reads:  core.PolicyReads(policy),
		rng:    rng,
		p:      p,
		up:     up,
	}
	m.churnVisit = func(id phy.NodeID) {
		idx := int(id)
		for idx >= len(m.nbrEpoch) {
			m.nbrEpoch = append(m.nbrEpoch, 0)
		}
		if m.nbrEpoch[idx] == m.nbrEpochCur-1 {
			m.churnCommon++
		}
		m.nbrEpoch[idx] = m.nbrEpochCur
		m.churnCount++
	}
	m.dcf = newDCF(sched, ch, radio, rng, p, &m.stats, m.deliver)
	if p.ATIMContention {
		m.admitted = make(map[annKey]struct{})
		m.atimMisses = make(map[annKey]int)
	}
	return m
}

// Radio implements Station.
func (m *PSM) Radio() *phy.Radio { return m.radio }

// SetFastPath installs the ODPM fast-path query (may be nil).
func (m *PSM) SetFastPath(f func(dst phy.NodeID) bool) { m.fastPath = f }

// SetAudit installs the invariant observer (nil disables instrumentation).
func (m *PSM) SetAudit(a Audit) { m.audit = a }

// SetTrace installs the lifecycle trace observer (nil disables tracing).
func (m *PSM) SetTrace(t Trace) { m.trc = t }

// SetLotteryOverride installs a replay hook that substitutes each
// overhearing-lottery verdict (nil restores the drawn coins). The coin is
// still drawn before the override is consulted; see the field comment for
// why that RNG alignment matters.
func (m *PSM) SetLotteryOverride(f func(now sim.Time, me phy.NodeID, a Announcement, policySays bool) bool) {
	m.lottery = f
}

// setWindow forwards to the DCF and reports the change to the auditor.
func (m *PSM) setWindow(enabled bool, end sim.Time) {
	m.dcf.setWindow(enabled, end)
	if m.audit != nil {
		m.audit.TxWindowSet(m.sched.Now(), m.radio.ID(), enabled, end)
	}
}

// ExtendAM keeps the node in active mode until at least `until`. While in
// AM the node never sleeps and may transmit outside the beacon data phase.
func (m *PSM) ExtendAM(until sim.Time) {
	if m.dead || m.down || until <= m.amUntil {
		return
	}
	m.amUntil = until
	now := m.sched.Now()
	if m.audit != nil {
		m.audit.AMExtended(now, m.radio.ID(), until)
	}
	if !m.radio.Awake() {
		m.radio.SetAwake(true)
		_ = m.meter.SetState(now, energy.Awake)
	}
	// Open the transmit window immediately: AM nodes behave like 802.11.
	if !m.dcf.enabled {
		m.setWindow(true, m.nextBoundary(now))
	}
}

// InAM reports whether the node is in active mode at now.
func (m *PSM) InAM(now sim.Time) bool { return now < m.amUntil }

// nextBoundary returns the next beacon boundary strictly after now.
func (m *PSM) nextBoundary(now sim.Time) sim.Time {
	bi := m.p.BeaconInterval
	return (now/bi + 1) * bi
}

// Send implements Mac. Packets normally wait for the next ATIM window; an
// AM node with an AM next hop (ODPM fast path) transmits immediately.
func (m *PSM) Send(p Packet) {
	if m.dead || m.down {
		if p.OnResult != nil {
			p.OnResult(false)
		}
		return
	}
	if p.Level == 0 {
		p.Level = m.policy.AdvertiseLevel(p.Class)
	}
	now := m.sched.Now()
	if m.trc != nil {
		m.trc.PacketEnqueued(now, m.radio.ID(), p)
	}
	if m.fastPath != nil && p.Dst != phy.Broadcast && m.InAM(now) && m.fastPath(p.Dst) {
		m.dcf.enqueue(p)
		return
	}
	m.pending = append(m.pending, p)
}

// NodeID implements Mac.
func (m *PSM) NodeID() phy.NodeID { return m.radio.ID() }

// Stats implements Mac.
func (m *PSM) Stats() Stats { return m.stats }

// Queued implements Mac: packets in the DCF queue plus packets waiting for
// the next ATIM window.
func (m *PSM) Queued() []Packet {
	out := m.dcf.queuedPackets()
	return append(out, m.pending...)
}

// LinkChangesPerSec returns the node's mobility estimate.
func (m *PSM) LinkChangesPerSec() float64 { return m.linkChurn }

// Kill permanently silences the node (battery depletion): the radio goes
// down, the transmit window closes, and beacon callbacks become no-ops.
func (m *PSM) Kill() {
	m.dead = true
	m.amUntil = 0
	m.setWindow(false, 0)
	m.radio.SetAwake(false)
	_ = m.meter.SetState(m.sched.Now(), energy.Asleep)
}

// Dead reports whether Kill was called.
func (m *PSM) Dead() bool { return m.dead }

// PowerDown crashes the node: the radio goes dark, the transmit window
// closes, and all buffered packets — DCF queue plus packets awaiting the
// next ATIM window — are flushed and returned in deterministic order
// WITHOUT firing OnResult (the fault layer reconciles them; a crash is not
// a per-packet link failure). Soft protocol state (announcements,
// admission, neighbor history, churn estimate) is reset: a recovered node
// restarts with amnesia. No-op returning nil if already dead or down.
func (m *PSM) PowerDown() []Packet {
	if m.dead || m.down {
		return nil
	}
	m.down = true
	m.amUntil = 0
	m.setWindow(false, 0)
	flushed := m.dcf.flush()
	flushed = append(flushed, m.pending...)
	m.pending = nil
	m.lastAnnounced = m.lastAnnounced[:0]
	if m.admitted != nil {
		clear(m.admitted)
		clear(m.atimMisses)
	}
	for i := range m.lastHeard {
		m.lastHeard[i] = -1
	}
	// Skip an epoch so no stale neighbor stamp can match the next sample's
	// "previous epoch" check: the recovered node restarts with amnesia.
	m.nbrEpochCur++
	m.prevNbrCount = 0
	m.churnInit = false
	m.linkChurn = 0
	now := m.sched.Now()
	m.radio.SetAwake(false)
	_ = m.meter.SetState(now, energy.Asleep)
	if m.audit != nil {
		m.audit.NodeDown(now, m.radio.ID())
	}
	return flushed
}

// PowerUp recovers a crashed node. The radio and meter stay asleep: the
// node rejoins the beacon cycle at its next BeaconStart, exactly like a
// station that slept through the data phase. No-op unless PowerDown is in
// effect (battery death is permanent).
func (m *PSM) PowerUp() {
	if m.dead || !m.down {
		return
	}
	m.down = false
}

// Down reports whether a fault-injected PowerDown is in effect.
func (m *PSM) Down() bool { return m.down }

// BeaconStart implements Station: wake up, quiesce data transmission for
// the ATIM window, fold pending packets into the transmit queue, and return
// this interval's advertisements.
func (m *PSM) BeaconStart(now sim.Time) []Announcement {
	if m.dead || m.down {
		return nil
	}
	m.radio.SetAwake(true)
	_ = m.meter.SetState(now, energy.Awake)
	if m.audit != nil {
		m.audit.BeaconStarted(now, m.radio.ID())
	}
	if m.trc != nil {
		m.trc.StationWoke(now, m.radio.ID())
	}
	m.setWindow(false, 0)
	if m.reads&core.ReadsLinkChanges != 0 {
		m.updateChurn(now)
	}

	for _, p := range m.pending {
		m.dcf.enqueue(p)
	}
	m.pending = nil

	// One ATIM per distinct (destination, level); covers all buffered
	// frames to that destination, as in 802.11 PSM. The DCF queue is walked
	// directly and duplicates are detected by scanning the keys announced so
	// far (bounded by MaxAnnouncements, so the scan beats a throwaway map).
	anns := m.annScratch[:0]
	m.lastAnnounced = m.lastAnnounced[:0]
	for _, job := range m.dcf.queue {
		k := annKey{dst: job.pkt.Dst, lvl: job.pkt.Level}
		dup := false
		for _, prev := range m.lastAnnounced {
			if prev == k {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		anns = append(anns, Announcement{From: m.radio.ID(), To: k.dst, Level: k.lvl})
		if m.trc != nil {
			m.trc.ATIMAdvertised(now, m.radio.ID(), anns[len(anns)-1])
		}
		m.lastAnnounced = append(m.lastAnnounced, k)
		if len(anns) >= m.p.MaxAnnouncements {
			break
		}
	}
	m.annScratch = anns
	m.stats.Announced += uint64(len(anns))
	return anns
}

// ATIMOutcome implements Station: under ATIM contention, record which of
// this interval's advertisements reached their destinations. Unadmitted
// packets wait for the next beacon; after ATIMRetryLimit consecutive
// failed advertisements they are dropped as link failures (the sender's
// MAC gives up on the destination).
func (m *PSM) ATIMOutcome(_ sim.Time, admitted []Announcement) {
	if m.admitted == nil || m.dead || m.down {
		return
	}
	clear(m.admitted)
	for _, a := range admitted {
		m.admitted[annKey{dst: a.To, lvl: a.Level}] = struct{}{}
	}
	limit := m.p.ATIMRetryLimit
	if limit < 1 {
		limit = 3
	}
	for _, k := range m.lastAnnounced {
		if _, ok := m.admitted[k]; ok {
			delete(m.atimMisses, k)
			continue
		}
		if k.dst == phy.Broadcast {
			continue
		}
		m.atimMisses[k]++
		if m.atimMisses[k] >= limit {
			delete(m.atimMisses, k)
			key := k
			m.dcf.failJobs(func(p Packet) bool {
				return p.Dst == key.dst && p.Level == key.lvl
			})
		}
	}
	m.dcf.setEligible(func(p Packet) bool {
		if p.Dst == phy.Broadcast {
			return true
		}
		_, ok := m.admitted[annKey{dst: p.Dst, lvl: p.Level}]
		return ok
	})
}

// ATIMEnd implements Station: decide whether to stay awake for the data
// phase based on this interval's advertisements, then either open the
// transmit window or sleep until the next beacon.
func (m *PSM) ATIMEnd(now sim.Time, heard []Announcement, nextBeacon sim.Time) {
	if m.dead || m.down {
		return
	}
	awake := m.InAM(now) || m.dcf.queueLen() > 0
	if !awake {
		awake = m.shouldStayAwake(now, heard)
	}
	if awake {
		m.stats.AwakePhases++
		m.setWindow(true, nextBeacon)
		return
	}
	m.stats.SleptPhases++
	m.setWindow(false, 0)
	if m.audit != nil {
		m.audit.NodeSlept(now, m.radio.ID())
	}
	if m.trc != nil {
		m.trc.StationSlept(now, m.radio.ID())
	}
	m.radio.SetAwake(false)
	_ = m.meter.SetState(now, energy.Asleep)
}

// shouldStayAwake scans the advertisements this station decoded (the
// coordinator already filtered for range and contention) and applies the
// paper's three-step rule (§3.2): stay awake if addressed, if
// unconditional overhearing is requested, or if randomized overhearing is
// requested and a coin with the policy's probability comes up heads
// (core.ListenerChance). An unconditional advertisement is a coin with
// p = 1; any other level is a standard ATIM and asks nothing. Each coin
// reaches the lottery hook and the trace.
func (m *PSM) shouldStayAwake(now sim.Time, heard []Announcement) bool {
	me := m.radio.ID()
	var (
		ctx     core.ListenContext
		haveCtx bool
	)
	for _, a := range heard {
		if a.From == me {
			continue
		}
		if a.To == me || a.To == phy.Broadcast {
			return true
		}
		p, coin := core.ListenerChance(m.policy, a.Level, func() core.ListenContext {
			if !haveCtx {
				ctx = m.listenContext(now)
				haveCtx = true
			}
			var last sim.Time = -1
			if idx := int(a.From); idx >= 0 && idx < len(m.lastHeard) {
				last = m.lastHeard[idx]
			}
			ctx.SenderRecentlyHeard = last >= 0 && now-last <= senderRecencyWindow
			return ctx
		})
		if !coin {
			continue
		}
		stay := sim.Bernoulli(m.rng, p)
		if m.lottery != nil {
			stay = m.lottery(now, me, a, stay)
		}
		if m.trc != nil {
			m.trc.OverhearingDecision(now, me, a, stay)
		}
		if stay {
			return true
		}
	}
	return false
}

// listenContext gathers the listener state for the lottery. The neighbor
// count, a neighbor query, is left zero for a policy that does not read it.
func (m *PSM) listenContext(now sim.Time) core.ListenContext {
	ctx := core.ListenContext{
		RemainingEnergy:   m.meter.RemainingFraction(),
		LinkChangesPerSec: m.linkChurn,
	}
	if m.reads&core.ReadsNeighbors != 0 {
		ctx.Neighbors = m.ch.CountNeighbors(m.radio, now)
	}
	return ctx
}

// updateChurn refreshes the EWMA of neighbor-set changes per second. Samples
// are not necessarily one beacon interval apart (a node can miss beacons
// around death, and the very first sample has no predecessor at all), so the
// rate normalizes by the real time since the previous sample; the first
// sample only records the baseline neighbor set.
func (m *PSM) updateChurn(now sim.Time) {
	m.churnCount, m.churnCommon = 0, 0
	m.nbrEpochCur++
	m.ch.VisitNeighbors(m.radio, now, m.churnVisit)
	changes := (m.churnCount - m.churnCommon) + (m.prevNbrCount - m.churnCommon)
	m.prevNbrCount = m.churnCount
	if !m.churnInit {
		m.churnInit = true
		m.churnAt = now
		return
	}
	dt := now - m.churnAt
	m.churnAt = now
	if dt <= 0 {
		return
	}
	rate := float64(changes) / dt.Seconds()
	const alpha = 0.2
	m.linkChurn = (1-alpha)*m.linkChurn + alpha*rate
}

func (m *PSM) deliver(from phy.NodeID, pkt Packet, toMe bool) {
	for int(from) >= len(m.lastHeard) {
		m.lastHeard = append(m.lastHeard, -1)
	}
	m.lastHeard[from] = m.sched.Now()
	if m.up == nil {
		return
	}
	if toMe {
		m.up.OnReceive(from, pkt)
		return
	}
	m.up.OnOverhear(from, pkt)
}
