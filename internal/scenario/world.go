package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"rcast/internal/audit"
	"rcast/internal/core"
	"rcast/internal/energy"
	"rcast/internal/fault"
	"rcast/internal/geom"
	"rcast/internal/mac"
	"rcast/internal/metrics"
	"rcast/internal/mobility"
	"rcast/internal/odpm"
	"rcast/internal/phy"
	"rcast/internal/propagation"
	"rcast/internal/routing"
	"rcast/internal/routing/aodv"
	"rcast/internal/routing/dsr"
	"rcast/internal/sim"
	"rcast/internal/trace"
	"rcast/internal/traffic"
)

// node is one assembled protocol stack.
type node struct {
	id                 phy.NodeID
	radio              *phy.Radio
	meter              *energy.Meter
	route              routing.Router // per Config.Routing
	link               mac.Mac
	psm                *mac.PSM      // nil for AlwaysOn
	pm                 *odpm.Manager // nil unless ODPM
	promiscuousRefresh bool
}

// world is a fully wired simulation.
type world struct {
	cfg    Config
	sched  *sim.Scheduler
	ch     *phy.Channel
	coord  *mac.Coordinator // nil for AlwaysOn
	nodes  []*node
	col    *metrics.Collector
	conns  []traffic.Connection
	deaths []sim.Time     // per node; 0 = survived the run
	aud    *audit.Auditor // nil unless Config.Audit

	// Fault injection (inert unless Config.Faults enables something).
	inj           *fault.Injector
	down          []bool // per node; true while crash-powered-down
	crashEvents   int
	recoverEvents int
	crashFlushed  uint64 // data packets flushed from crashing nodes

	traceSeq     uint64            // per-run trace sequence counter (see emit)
	nodeNames    []string          // interned NodeID strings, built only when tracing
	traceDetails map[uint64]string // memoized detail strings (see detailKey)
}

// pktKey builds the auditor's end-to-end packet identity.
func pktKey(p *routing.Data) audit.PacketKey {
	return audit.PacketKey{Src: p.Src, Flow: p.FlowID, Seq: p.Seq}
}

// pktUID renders the trace's packet identity.
func pktUID(p *routing.Data) string {
	return trace.PacketUID(p.Src, p.FlowID, p.Seq)
}

// killer is implemented by every MAC flavour (battery depletion).
type killer interface {
	Kill()
}

// powerCycler is implemented by every MAC flavour (fault-injected crash and
// recovery). PowerDown returns the flushed transmit queue.
type powerCycler interface {
	PowerDown() []mac.Packet
	PowerUp()
}

// stopper is implemented by routers with periodic activity of their own
// (AODV hellos), halted when the node's battery dies.
type stopper interface {
	Stop()
}

// macUpcalls adapts MAC deliveries to the routing layer.
type macUpcalls struct {
	n *node
}

var _ mac.Upcalls = macUpcalls{}

func (u macUpcalls) OnReceive(from phy.NodeID, p mac.Packet) {
	if msg, ok := p.Payload.(routing.Message); ok {
		u.n.route.Receive(from, msg)
	}
}

func (u macUpcalls) OnOverhear(from phy.NodeID, p mac.Packet) {
	// ODPM: a node in active mode runs promiscuous 802.11, so an overheard
	// data packet counts as "receiving a data packet" and refreshes the 2 s
	// keep-alive — this is what keeps whole route neighbourhoods awake
	// under ODPM at high traffic rates (paper §2.2, Fig. 5d).
	if u.n.pm != nil && u.n.promiscuousRefresh && p.Class == core.ClassData {
		u.n.pm.OnDataActivity()
	}
	if msg, ok := p.Payload.(routing.Message); ok {
		u.n.route.Overhear(from, msg)
	}
}

// macTransport adapts the routing layer's sends to the MAC.
type macTransport struct {
	n *node
}

var _ routing.Transport = macTransport{}

func (t macTransport) Send(nh phy.NodeID, msg routing.Message, onResult func(bool)) {
	t.n.link.Send(mac.Packet{
		Dst:      nh,
		Class:    msg.Class(),
		Bytes:    msg.WireBytes(),
		Payload:  msg,
		OnResult: onResult,
	})
}

// newWorld wires a complete network for cfg.
func newWorld(cfg Config) (*world, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &world{
		cfg:   cfg,
		sched: sim.NewScheduler(),
		col:   metrics.NewCollector(cfg.Nodes),
	}
	w.ch = phy.NewChannel(w.sched, cfg.RangeM)
	if cfg.channelName() != "disk" {
		// Non-disk channels install a propagation model seeded from its own
		// named stream, so channel randomness never aliases mobility or MAC
		// draws. Disk configs leave the model nil: the channel's inlined
		// fast path is byte-identical to the historical behaviour.
		prop, err := propagation.Parse(cfg.channelName(), cfg.RangeM, cfg.ShadowSigmaDB, sim.DeriveSeed(cfg.Seed, "prop"))
		if err != nil {
			return nil, err
		}
		w.ch.SetPropagation(prop)
		if cfg.Replay != nil && cfg.Replay.ChanLoss != nil {
			w.ch.SetChannelReplay(cfg.Replay.ChanLoss)
		}
	}
	w.inj = fault.NewInjector(cfg.Faults, fault.Env{
		Seed:     cfg.Seed,
		Nodes:    cfg.Nodes,
		Duration: cfg.Duration,
		FieldW:   cfg.FieldW,
		FieldH:   cfg.FieldH,
		RangeM:   cfg.RangeM,
	})
	// Partition shifts move nodes on top of the scenario's own mobility, so
	// the channel's declared motion bound must grow by their worst case.
	extra := w.inj.ExtraMotionBound()
	if cfg.Pause >= cfg.Duration {
		// Static scenario: every node is pinned, bins never go stale.
		w.ch.SetMotionBound(extra)
	} else {
		// Mobility clamps the speed floor to 0.1 m/s (see mobility.NewWaypoint),
		// so the effective maximum can exceed cfg.MaxSpeed when it is tiny.
		bound := cfg.MaxSpeed
		if bound < 0.1 {
			bound = 0.1
		}
		if cfg.mobilityName() == "group" {
			// A group member rides two concurrent trajectories (the shared
			// reference plus its local wander), so its worst-case speed is
			// the sum of both bounds.
			bound *= 2
		}
		w.ch.SetMotionBound(bound + extra)
	}
	if cfg.Replay != nil && cfg.Replay.Loss != nil {
		// Replay: recorded fault losses stand in for the plan's live
		// Gilbert–Elliott chains (whose state lives in dedicated RNG
		// streams nothing else reads, so skipping them shifts nothing).
		w.ch.SetLossModel(cfg.Replay.Loss)
	} else if m := w.inj.LossModel(); m != nil {
		w.ch.SetLossModel(m)
	}

	if cfg.Scheme != SchemeAlwaysOn {
		w.coord = mac.NewCoordinator(w.sched, w.ch, cfg.MAC, sim.Stream(cfg.Seed, "atim"), cfg.Duration)
	}
	if cfg.Audit {
		acfg := audit.Config{Nodes: cfg.Nodes}
		if w.coord != nil {
			// Take the beacon structure from the coordinator, which clamps
			// oversized ATIM windows, rather than from raw cfg.MAC.
			acfg.BeaconInterval = w.coord.BeaconInterval()
			acfg.ATIMWindow = w.coord.ATIMWindow()
			acfg.BeaconStop = w.coord.StopAt()
		}
		w.aud = audit.New(acfg)
		w.sched.SetExecHook(w.aud.SchedulerEvent)
		w.ch.SetDeliveryObserver(w.aud)
	}
	if cfg.Trace != nil {
		w.ch.SetDropObserver(phyTraceAdapter{w: w})
		// Intern the node-ID strings the adapters render into almost every
		// event: thousands of detail strings per run reuse these instead of
		// re-allocating "n%d".
		w.nodeNames = make([]string, cfg.Nodes)
		for i := range w.nodeNames {
			w.nodeNames[i] = phy.NodeID(i).String()
		}
		w.traceDetails = make(map[uint64]string)
	}
	policy := cfg.Policy
	if policy == nil && cfg.PolicyName != "" {
		policy, _ = core.ParsePolicy(cfg.PolicyName) // Validate caught unknown names
	}
	if policy == nil {
		policy = cfg.Scheme.defaultPolicy()
	}
	field := geom.Rect{W: cfg.FieldW, H: cfg.FieldH}

	// Shared per-group reference trajectories for "group" mobility, built
	// lazily as member nodes first need them. Each reference has its own
	// named stream, so a member's trajectory never perturbs another node's
	// draws.
	var groupRefs []*mobility.Waypoint

	for i := 0; i < cfg.Nodes; i++ {
		id := phy.NodeID(i)
		mobRNG := sim.Stream(cfg.Seed, fmt.Sprintf("mob/%d", i))
		start := field.RandomPoint(mobRNG)
		var mob mobility.Model
		if cfg.Pause >= cfg.Duration {
			// The paper's "static scenario": pause time = simulation time.
			mob = mobility.Static{P: start}
		} else {
			switch cfg.mobilityName() {
			case "gauss-markov":
				mob = mobility.NewGaussMarkov(mobility.GaussMarkovConfig{
					Field:    field,
					MinSpeed: cfg.MinSpeed,
					MaxSpeed: cfg.MaxSpeed,
					Start:    start,
				}, mobRNG)
			case "group":
				g := i / cfg.groupSize()
				for len(groupRefs) <= g {
					refRNG := sim.Stream(cfg.Seed, fmt.Sprintf("mob/group/%d", len(groupRefs)))
					groupRefs = append(groupRefs, mobility.NewWaypoint(mobility.WaypointConfig{
						Field:    field,
						MinSpeed: cfg.MinSpeed,
						MaxSpeed: cfg.MaxSpeed,
						Pause:    cfg.Pause,
						Start:    field.RandomPoint(refRNG),
					}, refRNG))
				}
				r := cfg.groupRadius()
				box := geom.Rect{W: 2 * r, H: 2 * r}
				mob = mobility.Member{
					Field: field,
					Ref:   groupRefs[g],
					Local: mobility.NewWaypoint(mobility.WaypointConfig{
						Field:    box,
						MinSpeed: cfg.MinSpeed,
						MaxSpeed: cfg.MaxSpeed,
						Pause:    cfg.Pause,
						Start:    box.RandomPoint(mobRNG),
					}, mobRNG),
					Center: geom.Point{X: r, Y: r},
				}
			default:
				mob = mobility.NewWaypoint(mobility.WaypointConfig{
					Field:    field,
					MinSpeed: cfg.MinSpeed,
					MaxSpeed: cfg.MaxSpeed,
					Pause:    cfg.Pause,
					Start:    start,
				}, mobRNG)
			}
		}

		if shifts := w.inj.ShiftsFor(i); len(shifts) > 0 {
			mob = &mobility.Shifted{Base: mob, Shifts: shifts}
		}

		n := &node{id: id}
		n.radio = w.ch.AddRadio(id, mob)
		n.meter = energy.NewMeter(cfg.AwakeWatts, cfg.SleepWatts, w.inj.BatteryCapacity(i, cfg.BatteryJoules))

		macRNG := sim.Stream(cfg.Seed, fmt.Sprintf("mac/%d", i))
		up := macUpcalls{n: n}
		switch cfg.Scheme {
		case SchemeAlwaysOn:
			n.link = mac.NewAlwaysOn(w.sched, w.ch, n.radio, macRNG, cfg.MAC, up)
		default:
			psm := mac.NewPSM(w.sched, w.ch, n.radio, n.meter, policy, macRNG, cfg.MAC, up)
			n.psm = psm
			n.link = psm
			if w.aud != nil {
				psm.SetAudit(w.aud)
			}
			if cfg.Trace != nil {
				psm.SetTrace(macTraceAdapter{w: w})
			}
			if cfg.Replay != nil && cfg.Replay.Lottery != nil {
				psm.SetLotteryOverride(cfg.Replay.Lottery)
			}
			w.coord.AddStation(psm)
			if cfg.Scheme == SchemeODPM {
				n.pm = odpm.New(w.sched, psm, cfg.ODPMRREPKeepAlive, cfg.ODPMDataKeepAlive)
				n.promiscuousRefresh = cfg.ODPMPromiscuousRefresh
			}
		}

		switch cfg.Routing {
		case RoutingAODV:
			n.route = aodv.New(id, w.sched, sim.Stream(cfg.Seed, fmt.Sprintf("aodv/%d", i)),
				macTransport{n: n}, cfg.AODV, w.hooksFor(n))
		default:
			dsrCfg := cfg.DSR
			if cfg.GossipFanout > 0 {
				radio := n.radio
				dsrCfg.Gossip = &core.BroadcastGossip{Fanout: cfg.GossipFanout}
				dsrCfg.NeighborCount = func() int {
					return w.ch.CountNeighbors(radio, w.sched.Now())
				}
			}
			n.route = dsr.New(id, w.sched, sim.Stream(cfg.Seed, fmt.Sprintf("dsr/%d", i)),
				macTransport{n: n}, dsrCfg, w.hooksFor(n))
		}
		w.nodes = append(w.nodes, n)
	}

	// Variable TX power: stretch every radio's reach by the power-derived
	// range scale and charge each transmission the energy delta between the
	// scaled and nominal radiated power. Gated on a non-zero knob so
	// default runs take none of these paths and stay byte-identical.
	if cfg.TxPowerDBm != 0 {
		scale := cfg.txRangeScale()
		for _, n := range w.nodes {
			n.radio.SetTxRangeScale(scale)
		}
		w.ch.SetTxObserver(txEnergyAdapter{
			w:      w,
			extraW: energy.DefaultTxWatts * (cfg.txPowerRatio() - 1),
		})
	}

	// ODPM fast path: senders know their next hop's power-management mode
	// (the paper notes ODPM requires this knowledge; it is granted at no
	// cost, as in the original evaluation).
	if cfg.Scheme == SchemeODPM {
		for _, n := range w.nodes {
			n.psm.SetFastPath(func(dst phy.NodeID) bool {
				if int(dst) < 0 || int(dst) >= len(w.nodes) {
					return false
				}
				peer := w.nodes[dst]
				return peer.psm != nil && peer.psm.InAM(w.sched.Now())
			})
		}
	}

	w.down = make([]bool, cfg.Nodes)
	if err := w.startTraffic(); err != nil {
		return nil, err
	}
	w.deaths = make([]sim.Time, cfg.Nodes)
	if cfg.BatteryJoules > 0 {
		w.scheduleBatterySweep()
	}
	// Wiring happens at t=0 and the schedule is validated non-negative, so
	// At cannot report time reversal here.
	crashes := w.inj.Schedule()
	if cfg.Replay != nil && cfg.Replay.UseCrashSchedule {
		// Replay: the crash/recovery schedule reconstructed from the
		// trace replaces the injector's (which was drawn from the
		// "fault/crash" stream at construction — construction-time
		// randomness, so nothing else consumed it).
		crashes = cfg.Replay.CrashSchedule
	}
	for _, cr := range crashes {
		id := phy.NodeID(cr.Node)
		_, _ = w.sched.At(cr.At, func() { w.crashNode(id) })
		if cr.RecoverAt > 0 {
			_, _ = w.sched.At(cr.RecoverAt, func() { w.recoverNode(id) })
		}
	}
	if w.aud != nil {
		meters := make([]*energy.Meter, len(w.nodes))
		for i, n := range w.nodes {
			meters[i] = n.meter
		}
		w.aud.ObserveMeters(meters)
		w.scheduleAuditSweep()
	}
	return w, nil
}

// scheduleAuditSweep re-verifies time/energy conservation once per beacon
// interval so a broken meter is caught near the corruption, not at
// teardown. The sweep only reads meter state — it never drives meters
// forward — so an audited run stays bit-identical to an unaudited one.
func (w *world) scheduleAuditSweep() {
	interval := w.cfg.MAC.BeaconInterval
	if interval <= 0 {
		interval = 250 * sim.Millisecond
	}
	var sweep func()
	sweep = func() {
		now := w.sched.Now()
		if now >= w.cfg.Duration {
			return
		}
		w.aud.CheckMeters(now, false)
		w.sched.After(interval, sweep)
	}
	w.sched.After(interval, sweep)
}

// bufferedKeys enumerates every application data packet still parked in a
// routing send buffer or queued at a MAC at the end of the run — the
// "still-buffered" leg of the packet-conservation invariant.
func (w *world) bufferedKeys() []audit.PacketKey {
	var keys []audit.PacketKey
	for _, n := range w.nodes {
		for _, p := range n.route.BufferedData() {
			keys = append(keys, pktKey(p))
		}
		keys = appendQueuedKeys(keys, n.link.Queued())
	}
	return keys
}

// appendQueuedKeys appends the keys of the data packets in a MAC queue.
func appendQueuedKeys(keys []audit.PacketKey, queue []mac.Packet) []audit.PacketKey {
	for _, mp := range queue {
		if p := routing.DataOf(mp.Payload); p != nil {
			keys = append(keys, pktKey(p))
		}
	}
	return keys
}

// scheduleBatterySweep polls batteries twice per beacon interval and kills
// depleted nodes: the radio goes silent and stays down, modelling the
// device-lifetime consequences the paper's introduction motivates Rcast
// with.
func (w *world) scheduleBatterySweep() {
	interval := w.cfg.MAC.BeaconInterval / 2
	if interval <= 0 {
		interval = 125 * sim.Millisecond
	}
	var sweep func()
	sweep = func() {
		now := w.sched.Now()
		if now >= w.cfg.Duration {
			return
		}
		for _, n := range w.nodes {
			if w.deaths[n.id] != 0 {
				continue
			}
			_ = n.meter.ObserveAt(now)
			if !n.meter.Depleted() {
				continue
			}
			w.deaths[n.id] = now
			w.trace(n.id, trace.KindDeath, "")
			if k, ok := n.link.(killer); ok {
				k.Kill()
			}
			if s, ok := n.route.(stopper); ok {
				s.Stop()
			}
		}
		w.sched.After(interval, sweep)
	}
	w.sched.After(interval, sweep)
}

// crashNode power-cycles node id off: the routing layer and MAC flush
// their buffers, the radio goes dark and the meter drops to sleep draw.
// Every flushed data packet is reconciled — a collector drop under
// "node-crash" and, when auditing, the crashed terminal class — so packet
// conservation stays provable with nodes dying mid-flight. Battery-dead
// and already-down nodes are left alone.
func (w *world) crashNode(id phy.NodeID) {
	if w.down[id] || w.deaths[id] != 0 {
		return
	}
	n := w.nodes[id]
	w.down[id] = true
	w.crashEvents++
	now := w.sched.Now()

	// Flush order is deterministic: router buffers (destination order)
	// first, then the MAC transmit queue (queue order).
	var keys []audit.PacketKey
	for _, p := range n.route.Crash() {
		keys = append(keys, pktKey(p))
	}
	if pc, ok := n.link.(powerCycler); ok {
		keys = appendQueuedKeys(keys, pc.PowerDown())
	}
	if n.psm == nil {
		// AlwaysOn never drives its meter; the crash transition is ours.
		_ = n.meter.SetState(now, energy.Asleep)
	}
	w.crashFlushed += uint64(len(keys))
	w.trace(id, trace.KindCrash, fmt.Sprintf("flushed=%d", len(keys)))
	for _, k := range keys {
		w.col.DataDropped("node-crash")
		if w.aud != nil {
			w.aud.PacketCrashed(now, id, k)
		}
	}
}

// recoverNode brings a crashed node back up with empty protocol state. A
// PSM node rejoins at its next BeaconStart (radio and meter stay asleep
// until then); an always-on node comes straight back awake.
func (w *world) recoverNode(id phy.NodeID) {
	if !w.down[id] || w.deaths[id] != 0 {
		return
	}
	n := w.nodes[id]
	w.down[id] = false
	w.recoverEvents++
	w.trace(id, trace.KindRecover, "")
	if pc, ok := n.link.(powerCycler); ok {
		pc.PowerUp()
	}
	if n.psm == nil {
		_ = n.meter.SetState(w.sched.Now(), energy.Awake)
	}
	n.route.Restart()
}

// trace emits a structured event when tracing is configured.
func (w *world) trace(node phy.NodeID, kind trace.Kind, detail string) {
	w.tracePkt(node, kind, "", detail)
}

// tracePkt is trace with the packet UID attached. It stamps the event
// with the run-local sequence number and scheduler time and hands it to
// the configured sink. The world is the single emission point for every
// layer's events, so Seq orders the whole trace and two traces of the
// same configuration align event-for-event.
func (w *world) tracePkt(node phy.NodeID, kind trace.Kind, pkt, detail string) {
	if w.cfg.Trace == nil {
		return
	}
	w.traceSeq++
	w.cfg.Trace.Emit(trace.Event{
		Seq:    w.traceSeq,
		At:     w.sched.Now(),
		Node:   node,
		Kind:   kind,
		Pkt:    pkt,
		Detail: detail,
	})
}

// nodeName returns the interned rendering of a node ID ("n7", "bcast"),
// falling back to NodeID.String for IDs outside the scenario.
func (w *world) nodeName(id phy.NodeID) string {
	if i := int(id); i >= 0 && i < len(w.nodeNames) {
		return w.nodeNames[i]
	}
	return id.String()
}

// dataUID extracts the application-packet UID from a MAC payload, or ""
// for control traffic.
func dataUID(payload any) string {
	if p := routing.DataOf(payload); p != nil {
		return pktUID(p)
	}
	return ""
}

// txEnergyAdapter charges each transmission the energy delta between the
// configured and nominal radiated TX power (phy.TxObserver). Installed
// only when TxPowerDBm is non-zero. extraW is negative for reduced-power
// runs: the awake draw already includes nominal transmission cost, so a
// quieter radio gets energy back relative to the two-state model.
type txEnergyAdapter struct {
	w      *world
	extraW float64 // watts beyond the nominal radiated power
}

func (a txEnergyAdapter) FrameTransmitted(now sim.Time, tx phy.NodeID, airtime sim.Time) {
	if int(tx) >= len(a.w.nodes) {
		return
	}
	// AddTxJoules accrues to now first, and transmissions happen at the
	// scheduler's current instant, so time reversal is impossible here.
	_ = a.w.nodes[tx].meter.AddTxJoules(now, a.extraW*airtime.Seconds())
}

// macTraceAdapter forwards MAC lifecycle callbacks (mac.Trace) into the
// world's trace stream. Installed only when tracing is configured.
type macTraceAdapter struct {
	w *world
}

var _ mac.Trace = macTraceAdapter{}

// The high-volume detail strings (ATIM, lottery, PHY loss, enqueue) come
// from small finite alphabets — a node pair, a level, a reason — so they
// are memoized in w.traceDetails: after the first rendering of a given
// combination every later event reuses the interned string. This, not the
// sink, was the dominant enabled-tracing cost (allocation + GC churn).
// The rendered bytes must stay identical to the former %v formatting (the
// golden-trace test pins them).

// Tags namespacing the memoization keys (see world.detailKey).
const (
	detEnqueue = iota + 1
	detAtim
	detLottery
	detPhyDrop
)

// detailKey packs a detail identity: which adapter (tag), a small variant
// (level/class/reason/verdict), and up to two node IDs shifted by one so
// Broadcast (-1) packs cleanly.
func detailKey(tag, sub int, a, b phy.NodeID) uint64 {
	return uint64(tag)<<56 | uint64(sub)<<48 | uint64(uint32(a+1))<<24 | uint64(uint32(b+1))
}

func (a macTraceAdapter) PacketEnqueued(_ sim.Time, node phy.NodeID, p mac.Packet) {
	w := a.w
	key := detailKey(detEnqueue, int(p.Class), p.Dst, 0)
	detail, ok := w.traceDetails[key]
	if !ok {
		detail = "dst=" + w.nodeName(p.Dst) + " class=" + p.Class.String()
		w.traceDetails[key] = detail
	}
	w.tracePkt(node, trace.KindEnqueue, dataUID(p.Payload), detail)
}

func (a macTraceAdapter) ATIMAdvertised(_ sim.Time, node phy.NodeID, an mac.Announcement) {
	w := a.w
	key := detailKey(detAtim, int(an.Level), an.To, 0)
	detail, ok := w.traceDetails[key]
	if !ok {
		detail = "to=" + w.nodeName(an.To) + " level=" + an.Level.String()
		w.traceDetails[key] = detail
	}
	w.trace(node, trace.KindAtim, detail)
}

func (a macTraceAdapter) OverhearingDecision(_ sim.Time, node phy.NodeID, an mac.Announcement, stayAwake bool) {
	w := a.w
	sub := int(an.Level) << 1
	verdict := " sleep"
	if stayAwake {
		sub |= 1
		verdict = " stay-awake"
	}
	key := detailKey(detLottery, sub, an.From, 0)
	detail, ok := w.traceDetails[key]
	if !ok {
		detail = "from=" + w.nodeName(an.From) + " level=" + an.Level.String() + verdict
		w.traceDetails[key] = detail
	}
	w.trace(node, trace.KindLottery, detail)
}

func (a macTraceAdapter) StationWoke(_ sim.Time, node phy.NodeID) {
	a.w.trace(node, trace.KindWake, "")
}

func (a macTraceAdapter) StationSlept(_ sim.Time, node phy.NodeID) {
	a.w.trace(node, trace.KindSleep, "")
}

// phyTraceAdapter forwards channel losses (phy.DropObserver) into the
// trace stream. Frame payloads are MAC-internal, so these events carry
// the endpoints and loss reason, not a packet UID.
type phyTraceAdapter struct {
	w *world
}

var _ phy.DropObserver = phyTraceAdapter{}

func (a phyTraceAdapter) FrameLost(_ sim.Time, rx phy.NodeID, f phy.Frame, reason string) {
	w := a.w
	var sub int
	switch reason {
	case phy.LossCollision:
		sub = 1
	case phy.LossMissedAsleep:
		sub = 2
	case phy.LossFault:
		sub = 3
	case phy.LossChannel:
		sub = 4
	default:
		// Unknown reason: the key can't distinguish it, so skip the cache.
		w.trace(rx, trace.KindPhyDrop, reason+" from="+w.nodeName(f.From)+" to="+w.nodeName(f.To))
		return
	}
	key := detailKey(detPhyDrop, sub, f.From, f.To)
	detail, ok := w.traceDetails[key]
	if !ok {
		detail = reason + " from=" + w.nodeName(f.From) + " to=" + w.nodeName(f.To)
		w.traceDetails[key] = detail
	}
	w.trace(rx, trace.KindPhyDrop, detail)
}

// pathString renders a route the way fmt's %v does ("[n0 n3 n7]") without
// fmt's reflection — cache events are frequent in traced runs.
func (w *world) pathString(path []phy.NodeID) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, id := range path {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(w.nodeName(id))
	}
	b.WriteByte(']')
	return b.String()
}

// hooksFor wires one node's routing events into metrics, tracing, the
// audit and ODPM. Trace emissions are gated on w.cfg.Trace so untraced
// runs skip the formatting work entirely, not just the sink call.
func (w *world) hooksFor(n *node) routing.Hooks {
	h := routing.Hooks{
		DataOriginated: func(p *routing.Data) {
			w.col.DataOriginated()
			if w.aud != nil {
				w.aud.PacketOriginated(w.sched.Now(), pktKey(p))
			}
			if w.cfg.Trace != nil {
				w.tracePkt(n.id, trace.KindOriginate, pktUID(p), "dst="+w.nodeName(p.Dst))
			}
		},
		DataDelivered: func(p *routing.Data, _ phy.NodeID, hops int) {
			w.col.DataDelivered(w.sched.Now()-p.OriginatedAt, p.PayloadBytes, hops)
			if w.aud != nil {
				w.aud.PacketDelivered(w.sched.Now(), n.id, pktKey(p))
			}
			if w.cfg.Trace != nil {
				w.tracePkt(n.id, trace.KindDeliver, pktUID(p),
					"src="+w.nodeName(p.Src)+" hops="+strconv.Itoa(hops))
			}
		},
		DataDropped: func(p *routing.Data, reason string) {
			w.col.DataDropped(reason)
			if w.aud != nil {
				w.aud.PacketDropped(w.sched.Now(), n.id, pktKey(p), reason)
			}
			if w.cfg.Trace != nil {
				w.tracePkt(n.id, trace.KindDrop, pktUID(p), reason)
			}
		},
		DataForwarded: func(p *routing.Data) {
			w.col.DataForwarded(n.id)
			if w.cfg.Trace != nil {
				w.tracePkt(n.id, trace.KindForward, pktUID(p), "")
			}
		},
		DataSalvaged: func(p *routing.Data, attempt int, route []phy.NodeID) {
			if w.cfg.Trace != nil {
				w.tracePkt(n.id, trace.KindSalvage, pktUID(p),
					fmt.Sprintf("attempt=%d route=%v", attempt, route))
			}
		},
		ControlSent: func(c core.Class) {
			w.col.ControlSent(c)
			w.trace(n.id, trace.KindControl, c.String())
		},
		CacheInserted: func(path []phy.NodeID) {
			w.col.RouteCached(path)
			if w.cfg.Trace != nil {
				w.trace(n.id, trace.KindCache, w.pathString(path))
			}
		},
		CacheEvicted: func(path []phy.NodeID) {
			if w.cfg.Trace != nil {
				w.trace(n.id, trace.KindCacheEvict, w.pathString(path))
			}
		},
	}
	if w.cfg.Scheme == SchemeODPM {
		pm := n.pm
		h.RREPReceived = pm.OnRREP
		h.DataActivity = pm.OnDataActivity
	}
	return h
}

// startTraffic picks connections and schedules the CBR sources. Source
// start times are staggered across one packet interval to avoid a
// synchronized burst at TrafficStart.
func (w *world) startTraffic() error {
	rng := sim.Stream(w.cfg.Seed, "traffic")
	conns, err := traffic.PickConnections(rng, w.cfg.Nodes, w.cfg.Connections)
	if err != nil {
		return err
	}
	w.conns = conns
	for _, c := range conns {
		c := c
		src := w.nodes[c.Src]
		stagger := sim.FromSeconds(rng.Float64() / w.cfg.PacketRate)
		_, err := traffic.StartCBR(w.sched, traffic.CBRConfig{
			Rate:        w.cfg.PacketRate,
			PacketBytes: w.cfg.PacketBytes,
			Start:       w.cfg.TrafficStart + stagger,
			Stop:        w.cfg.trafficStop(),
		}, c, func(dst phy.NodeID, flowID uint64, bytes int) {
			if w.down[c.Src] {
				return // a crashed source originates nothing
			}
			src.route.SendData(dst, flowID, bytes)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// run executes the simulation to completion and finalizes energy metering.
// A triggered stop check (see Scheduler.SetStopCheck) abandons the run
// mid-flight: metering is left unfinalized because the partial world is
// never turned into a Result.
func (w *world) run() {
	if w.coord != nil {
		w.coord.Start()
	}
	w.sched.RunUntil(w.cfg.Duration)
	if w.sched.Stopped() {
		return
	}
	for _, n := range w.nodes {
		_ = n.meter.ObserveAt(w.cfg.Duration)
	}
}
