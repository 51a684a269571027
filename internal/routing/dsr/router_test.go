package dsr

import (
	"testing"

	"rcast/internal/core"
	"rcast/internal/phy"
	"rcast/internal/routing"
	"rcast/internal/sim"
)

// fakeNet is a graph-shaped transport with instant adjacency knowledge and
// physical-style overhearing: every neighbor of a transmitter sees every
// frame, addressed or not. It lets the router logic be exercised without
// the MAC/PHY stack.
type fakeNet struct {
	t       *testing.T
	sched   *sim.Scheduler
	routers map[phy.NodeID]*Router
	links   map[[2]phy.NodeID]bool
	delay   sim.Time

	controlTx map[core.Class]int
	delivered []*DataPacket
	dropped   []string
	rx        *DataPacket // the data packet being handed to a router
}

func newFakeNet(t *testing.T) *fakeNet {
	return &fakeNet{
		t:         t,
		sched:     sim.NewScheduler(),
		routers:   make(map[phy.NodeID]*Router),
		links:     make(map[[2]phy.NodeID]bool),
		delay:     sim.Millisecond,
		controlTx: make(map[core.Class]int),
	}
}

func linkKey(a, b phy.NodeID) [2]phy.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]phy.NodeID{a, b}
}

func (n *fakeNet) connect(a, b phy.NodeID)    { n.links[linkKey(a, b)] = true }
func (n *fakeNet) disconnect(a, b phy.NodeID) { delete(n.links, linkKey(a, b)) }

func (n *fakeNet) neighborsOf(id phy.NodeID) []phy.NodeID {
	var out []phy.NodeID
	for other := range n.routers {
		if other != id && n.links[linkKey(id, other)] {
			out = append(out, other)
		}
	}
	return out
}

// port adapts fakeNet to Transport for one node.
type port struct {
	net *fakeNet
	id  phy.NodeID
}

func (p port) Send(nh phy.NodeID, msg routing.Message, onResult func(bool)) {
	n := p.net
	src := p.id
	n.sched.After(n.delay, func() {
		n.rx, _ = msg.(*DataPacket)
		nbrs := n.neighborsOf(src)
		if nh == phy.Broadcast {
			for _, o := range nbrs {
				n.routers[o].Receive(src, msg)
			}
			if onResult != nil {
				onResult(true)
			}
			return
		}
		up := n.links[linkKey(src, nh)]
		for _, o := range nbrs {
			if o == nh {
				if up {
					n.routers[o].Receive(src, msg)
				}
				continue
			}
			n.routers[o].Overhear(src, msg)
		}
		if onResult != nil {
			onResult(up)
		}
	})
}

// addRouter creates a router with hooks wired into the net's counters.
func (n *fakeNet) addRouter(id phy.NodeID, cfg Config) *Router {
	hooks := routing.Hooks{
		DataDelivered: func(p *routing.Data, _ phy.NodeID, _ int) {
			pkt := n.rx
			if pkt == nil || &pkt.Data != p {
				pkt = &DataPacket{Data: *p} // self-addressed: never sent
			}
			n.delivered = append(n.delivered, pkt)
		},
		DataDropped: func(_ *routing.Data, reason string) { n.dropped = append(n.dropped, reason) },
		ControlSent: func(c core.Class) { n.controlTx[c]++ },
	}
	r := New(id, n.sched, sim.Stream(int64(id), "dsr"), port{net: n, id: id}, cfg, hooks)
	n.routers[id] = r
	return r
}

// line builds a chain 0-1-2-…-(k-1).
func (n *fakeNet) line(k int, cfg Config) []*Router {
	rs := make([]*Router, k)
	for i := 0; i < k; i++ {
		rs[i] = n.addRouter(phy.NodeID(i), cfg)
	}
	for i := 0; i+1 < k; i++ {
		n.connect(phy.NodeID(i), phy.NodeID(i+1))
	}
	return rs
}

func (n *fakeNet) run(until sim.Time) { n.sched.RunUntil(until) }

func TestDiscoveryAndDeliveryOverChain(t *testing.T) {
	n := newFakeNet(t)
	rs := n.line(4, DefaultConfig())
	rs[0].SendData(3, 1, 512)
	n.run(30 * sim.Second)
	if len(n.delivered) != 1 {
		t.Fatalf("delivered %d packets, want 1 (drops: %v)", len(n.delivered), n.dropped)
	}
	p := n.delivered[0]
	if p.Src != 0 || p.Dst != 3 {
		t.Fatalf("delivered packet src/dst = %v/%v", p.Src, p.Dst)
	}
	if !samePath(p.Route, path(0, 1, 2, 3)) {
		t.Fatalf("route = %v", p.Route)
	}
	if rs[0].Stats().RREQSent == 0 {
		t.Fatal("no RREQ sent")
	}
}

func TestExpandingRingReachesDirectNeighborCheaply(t *testing.T) {
	n := newFakeNet(t)
	rs := n.line(2, DefaultConfig())
	rs[0].SendData(1, 1, 512)
	n.run(10 * sim.Second)
	if len(n.delivered) != 1 {
		t.Fatalf("delivered %d, want 1", len(n.delivered))
	}
	// One non-propagating RREQ suffices; no network-wide flood follows.
	if got := rs[0].Stats().RREQSent; got != 1 {
		t.Fatalf("origin sent %d RREQs, want 1", got)
	}
	if got := rs[1].Stats().RREQSent; got != 0 {
		t.Fatalf("neighbor rebroadcast a hop-limit-1 RREQ %d times", got)
	}
}

func TestSecondPacketUsesCachedRoute(t *testing.T) {
	n := newFakeNet(t)
	rs := n.line(3, DefaultConfig())
	rs[0].SendData(2, 1, 512)
	n.run(30 * sim.Second)
	rreqAfterFirst := n.controlTx[core.ClassRREQ]
	rs[0].SendData(2, 1, 512)
	n.run(60 * sim.Second)
	if len(n.delivered) != 2 {
		t.Fatalf("delivered %d, want 2", len(n.delivered))
	}
	if n.controlTx[core.ClassRREQ] != rreqAfterFirst {
		t.Fatalf("second packet triggered more RREQs (%d -> %d)",
			rreqAfterFirst, n.controlTx[core.ClassRREQ])
	}
}

func TestDuplicateRREQSuppression(t *testing.T) {
	// Diamond: 0-1, 0-2, 1-3, 2-3. The flood from 0 reaches 3 twice but
	// each intermediate rebroadcasts exactly once.
	n := newFakeNet(t)
	cfg := DefaultConfig()
	cfg.NonPropagatingFirst = false
	for i := 0; i < 4; i++ {
		n.addRouter(phy.NodeID(i), cfg)
	}
	n.connect(0, 1)
	n.connect(0, 2)
	n.connect(1, 3)
	n.connect(2, 3)
	n.routers[0].SendData(3, 1, 512)
	n.run(30 * sim.Second)
	if len(n.delivered) != 1 {
		t.Fatalf("delivered %d, want 1", len(n.delivered))
	}
	if got := n.routers[1].Stats().RREQSent + n.routers[2].Stats().RREQSent; got > 2 {
		t.Fatalf("intermediates rebroadcast %d times, want <= 2", got)
	}
	// The target can answer both arriving copies: alternative routes.
	if got := n.routers[3].Stats().RREPSent; got < 1 || got > 2 {
		t.Fatalf("target sent %d RREPs, want 1..2", got)
	}
}

func TestCacheReplyFromIntermediate(t *testing.T) {
	n := newFakeNet(t)
	rs := n.line(4, DefaultConfig())
	// Warm node 1's cache with a route to 3.
	rs[1].Cache().Add(0, path(1, 2, 3))
	rs[0].SendData(3, 1, 512)
	n.run(30 * sim.Second)
	if len(n.delivered) != 1 {
		t.Fatalf("delivered %d, want 1", len(n.delivered))
	}
	if rs[1].Stats().CacheReplies != 1 {
		t.Fatalf("cache replies = %d, want 1", rs[1].Stats().CacheReplies)
	}
	// The hop-limit-1 ring search reached node 1, which answered from
	// cache: the flood never propagated further.
	if rs[2].Stats().RREQSent != 0 {
		t.Fatal("flood passed a cache-replying node")
	}
}

func TestLinkFailureTriggersRERRAndRediscovery(t *testing.T) {
	n := newFakeNet(t)
	rs := n.line(4, DefaultConfig())
	// Alternate path 1-4-3 to survive the break of 1-2.
	alt := n.addRouter(4, DefaultConfig())
	_ = alt
	n.connect(1, 4)
	n.connect(4, 3)

	rs[0].SendData(3, 1, 512)
	n.run(30 * sim.Second)
	if len(n.delivered) != 1 {
		t.Fatalf("first packet not delivered")
	}

	n.disconnect(2, 3) // break the tail of the established route 0-1-2-3
	rs[0].SendData(3, 1, 512)
	n.run(90 * sim.Second)
	if len(n.delivered) != 2 {
		t.Fatalf("delivered %d, want 2 after rerouting (drops: %v)", len(n.delivered), n.dropped)
	}
	if n.controlTx[core.ClassRERR] == 0 {
		t.Fatal("no RERR sent after link failure")
	}
	if n.routers[2].Stats().LinkFailures == 0 {
		t.Fatal("node 2 never detected the broken link")
	}
}

func TestSalvageUsesAlternateRoute(t *testing.T) {
	n := newFakeNet(t)
	rs := n.line(4, DefaultConfig())
	n.addRouter(4, DefaultConfig())
	n.connect(2, 4)
	n.connect(4, 3)

	rs[0].SendData(3, 1, 512)
	n.run(30 * sim.Second)
	if len(n.delivered) != 1 {
		t.Fatal("warmup packet lost")
	}
	if !samePath(n.delivered[0].Route, path(0, 1, 2, 3)) {
		t.Fatalf("warmup route = %v, want the direct chain", n.delivered[0].Route)
	}
	// Node 2 knows an alternative tail 2-4-3 before the break (it also
	// learns it organically from forwarding the second RREP).
	rs[2].Cache().Add(n.sched.Now(), path(2, 4, 3))
	n.disconnect(2, 3)
	rs[0].SendData(3, 1, 512)
	n.run(90 * sim.Second)
	if len(n.delivered) != 2 {
		t.Fatalf("delivered %d, want 2 (drops: %v)", len(n.delivered), n.dropped)
	}
	if rs[2].Stats().Salvages == 0 {
		t.Fatal("packet was not salvaged at node 2")
	}
	if got := n.delivered[1].Salvaged; got != 1 {
		t.Fatalf("Salvaged = %d, want 1", got)
	}
}

func TestUnreachableDestinationDropsAfterAttempts(t *testing.T) {
	n := newFakeNet(t)
	cfg := DefaultConfig()
	cfg.MaxDiscoveryAttempts = 3
	rs := n.line(2, cfg)
	n.addRouter(9, cfg) // isolated destination
	rs[0].SendData(9, 1, 512)
	n.run(120 * sim.Second)
	if len(n.delivered) != 0 {
		t.Fatal("delivered to unreachable destination")
	}
	if len(n.dropped) != 1 || n.dropped[0] != "no-route" {
		t.Fatalf("drops = %v, want [no-route]", n.dropped)
	}
	if got := rs[0].Stats().RREQSent; got != 3 {
		t.Fatalf("RREQ attempts = %d, want 3", got)
	}
}

func TestOverhearingPopulatesBystanderCache(t *testing.T) {
	// 0-1-2 chain with bystander 4 adjacent to forwarder 1: overhearing a
	// forwarded data packet must teach 4 routes to both 0 and 2 via 1
	// (paper Fig. 3).
	n := newFakeNet(t)
	rs := n.line(3, DefaultConfig())
	by := n.addRouter(4, DefaultConfig())
	n.connect(1, 4)
	rs[0].SendData(2, 1, 512)
	n.run(30 * sim.Second)
	if len(n.delivered) != 1 {
		t.Fatal("packet not delivered")
	}
	now := n.sched.Now()
	if !by.Cache().HasRouteTo(now, 2) {
		t.Fatal("bystander did not learn route to destination")
	}
	if !by.Cache().HasRouteTo(now, 0) {
		t.Fatal("bystander did not learn reverse route to source")
	}
}

func TestOverheardRERRPurgesBystanderCache(t *testing.T) {
	n := newFakeNet(t)
	by := n.addRouter(7, DefaultConfig())
	by.Cache().Add(0, path(7, 5, 2, 3))
	by.Overhear(5, &RouteError{Detector: 2, BrokenFrom: 2, BrokenTo: 3, ReturnPath: path(2, 5)})
	if by.Cache().HasRouteTo(0, 3) {
		t.Fatal("stale route survived an overheard RERR")
	}
	if !by.Cache().HasRouteTo(0, 2) {
		t.Fatal("truncation removed too much")
	}
}

func TestLearnFromTransmitterBothDirections(t *testing.T) {
	n := newFakeNet(t)
	r := n.addRouter(9, DefaultConfig())
	// Node 9 overhears node 2 forwarding a data packet with route 0-1-2-3-4.
	r.Overhear(2, &DataPacket{Data: routing.Data{Src: 0, Dst: 4, PayloadBytes: 512}, Route: path(0, 1, 2, 3, 4)})
	now := n.sched.Now()
	if got := r.Cache().Find(now, 4); !samePath(got, path(9, 2, 3, 4)) {
		t.Fatalf("forward learned route = %v", got)
	}
	if got := r.Cache().Find(now, 0); !samePath(got, path(9, 2, 1, 0)) {
		t.Fatalf("backward learned route = %v", got)
	}
}

func TestSelfAddressedDataDeliversLocally(t *testing.T) {
	n := newFakeNet(t)
	r := n.addRouter(0, DefaultConfig())
	r.SendData(0, 1, 100)
	n.run(sim.Second)
	if len(n.delivered) != 1 {
		t.Fatal("self-addressed packet not delivered")
	}
}

func TestSendBufferOverflowDropsOldest(t *testing.T) {
	n := newFakeNet(t)
	cfg := DefaultConfig()
	cfg.SendBufferCap = 2
	cfg.MaxDiscoveryAttempts = 1
	r := n.addRouter(0, cfg)
	for i := 0; i < 4; i++ {
		r.SendData(5, 1, 100) // unreachable
	}
	n.run(60 * sim.Second)
	overflow := 0
	for _, reason := range n.dropped {
		if reason == "buffer-overflow" {
			overflow++
		}
	}
	if overflow != 2 {
		t.Fatalf("buffer-overflow drops = %d, want 2 (all: %v)", overflow, n.dropped)
	}
}

func TestGossipDampsFloodBeyondFirstRing(t *testing.T) {
	// Two dense cliques A = {0..9} and B = {10..19} joined by the bridge
	// link 9-10; the target 20 hangs off B. Rebroadcasts inside A are
	// first-ring (hop-gated, always forwarded); rebroadcasts inside B are
	// depth >= 2 and subject to gossip damping.
	n := newFakeNet(t)
	gossip := &core.BroadcastGossip{Fanout: 3}
	cfg := DefaultConfig()
	cfg.NonPropagatingFirst = false
	cfg.CacheReplies = false
	cfg.MaxDiscoveryAttempts = 10
	const cliqueSize = 10
	for i := 0; i <= 2*cliqueSize; i++ {
		c := cfg
		c.Gossip = gossip
		c.NeighborCount = func() int { return cliqueSize } // dense estimate
		n.addRouter(phy.NodeID(i), c)
	}
	for i := 0; i < cliqueSize; i++ {
		for j := i + 1; j < cliqueSize; j++ {
			n.connect(phy.NodeID(i), phy.NodeID(j))
			n.connect(phy.NodeID(cliqueSize+i), phy.NodeID(cliqueSize+j))
		}
	}
	n.connect(9, 10)
	for i := cliqueSize; i < 2*cliqueSize; i++ {
		n.connect(phy.NodeID(i), 2*cliqueSize)
	}
	n.routers[0].SendData(2*cliqueSize, 1, 512)
	n.run(600 * sim.Second)
	if len(n.delivered) != 1 {
		t.Fatalf("gossip flood failed to deliver (drops: %v)", n.dropped)
	}
	var suppressed uint64
	for _, r := range n.routers {
		suppressed += r.Stats().GossipDropped
	}
	if suppressed == 0 {
		t.Fatal("dense second ring: no rebroadcasts suppressed")
	}
	// First-ring neighbors of the origin are exempt: every member of A
	// that heard the origin directly must have rebroadcast.
	for i := 1; i < cliqueSize; i++ {
		if n.routers[phy.NodeID(i)].Stats().GossipDropped != 0 {
			t.Fatalf("node %d suppressed a first-ring rebroadcast", i)
		}
	}
}

func TestMessageWireBytes(t *testing.T) {
	tests := []struct {
		name string
		msg  routing.Message
		want int
	}{
		{name: "data", msg: &DataPacket{Data: routing.Data{PayloadBytes: 512}, Route: path(0, 1, 2)}, want: 512 + 12 + 12},
		{name: "rreq", msg: &RouteRequest{Recorded: path(0, 1)}, want: 12 + 8},
		{name: "rrep", msg: &RouteReply{Route: path(0, 1, 2), ReplyPath: path(2, 1, 0)}, want: 12 + 24},
		{name: "rerr", msg: &RouteError{ReturnPath: path(2, 1, 0)}, want: 12 + 8 + 12},
	}
	for _, tt := range tests {
		if got := tt.msg.WireBytes(); got != tt.want {
			t.Errorf("%s WireBytes = %d, want %d", tt.name, got, tt.want)
		}
	}
}

func TestMessageClasses(t *testing.T) {
	if (&DataPacket{}).Class() != core.ClassData ||
		(&RouteRequest{}).Class() != core.ClassRREQ ||
		(&RouteReply{}).Class() != core.ClassRREP ||
		(&RouteError{}).Class() != core.ClassRERR {
		t.Fatal("message classes wrong")
	}
}
