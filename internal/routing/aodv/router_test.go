package aodv

import (
	"testing"

	"rcast/internal/core"
	"rcast/internal/phy"
	"rcast/internal/routing"
	"rcast/internal/sim"
)

// fakeNet mirrors the DSR test transport: an adjacency graph with instant
// knowledge, per-hop delay, and link up/down control. AODV ignores
// overhearing, so only addressed/broadcast deliveries are modelled.
type fakeNet struct {
	sched   *sim.Scheduler
	routers map[phy.NodeID]*Router
	links   map[[2]phy.NodeID]bool
	delay   sim.Time

	controlTx map[core.Class]int
	delivered []delivery
	dropped   []string
}

// delivery is one DataDelivered call.
type delivery struct {
	*routing.Data
	hops int
}

func newFakeNet() *fakeNet {
	return &fakeNet{
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

type port struct {
	net *fakeNet
	id  phy.NodeID
}

func (p port) Send(nh phy.NodeID, msg routing.Message, onResult func(bool)) {
	n := p.net
	src := p.id
	n.sched.After(n.delay, func() {
		if nh == phy.Broadcast {
			for other, r := range n.routers {
				if other != src && n.links[linkKey(src, other)] {
					r.Receive(src, msg)
				}
			}
			if onResult != nil {
				onResult(true)
			}
			return
		}
		up := n.links[linkKey(src, nh)]
		if up {
			n.routers[nh].Receive(src, msg)
		}
		if onResult != nil {
			onResult(up)
		}
	})
}

func (n *fakeNet) addRouter(id phy.NodeID, cfg Config) *Router {
	hooks := routing.Hooks{
		DataDelivered: func(p *routing.Data, _ phy.NodeID, hops int) { n.delivered = append(n.delivered, delivery{p, hops}) },
		DataDropped:   func(_ *routing.Data, reason string) { n.dropped = append(n.dropped, reason) },
		ControlSent:   func(c core.Class) { n.controlTx[c]++ },
	}
	r := New(id, n.sched, sim.Stream(int64(id), "aodv"), port{net: n, id: id}, cfg, hooks)
	n.routers[id] = r
	return r
}

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

func quiet() Config {
	cfg := DefaultConfig()
	cfg.HelloInterval = 0 // keep control counts deterministic in tests
	return cfg
}

func TestDiscoveryAndDeliveryOverChain(t *testing.T) {
	n := newFakeNet()
	rs := n.line(4, quiet())
	rs[0].SendData(3, 1, 512)
	n.sched.RunUntil(30 * sim.Second)
	if len(n.delivered) != 1 {
		t.Fatalf("delivered %d, want 1 (drops %v)", len(n.delivered), n.dropped)
	}
	p := n.delivered[0]
	if p.Src != 0 || p.Dst != 3 || p.hops != 3 {
		t.Fatalf("delivered %+v over %d hops, want 3", *p.Data, p.hops)
	}
}

func TestRouteExpiryForcesRediscovery(t *testing.T) {
	// The paper's §1 criticism: AODV expires routes on a timeout, so
	// packets spaced wider than ActiveRouteTimeout re-flood every time.
	n := newFakeNet()
	cfg := quiet()
	cfg.ActiveRouteTimeout = 2 * sim.Second
	rs := n.line(3, cfg)

	rs[0].SendData(2, 1, 512)
	n.sched.RunUntil(10 * sim.Second)
	rreqAfterFirst := n.controlTx[core.ClassRREQ]
	if rreqAfterFirst == 0 {
		t.Fatal("no discovery for first packet")
	}
	// Second packet 10 s later: the route has expired.
	rs[0].SendData(2, 1, 512)
	n.sched.RunUntil(30 * sim.Second)
	if len(n.delivered) != 2 {
		t.Fatalf("delivered %d, want 2", len(n.delivered))
	}
	if n.controlTx[core.ClassRREQ] <= rreqAfterFirst {
		t.Fatal("expired route did not force a second flood")
	}
}

func TestFreshRouteIsReused(t *testing.T) {
	n := newFakeNet()
	cfg := quiet()
	cfg.ActiveRouteTimeout = 30 * sim.Second
	rs := n.line(3, cfg)
	rs[0].SendData(2, 1, 512)
	n.sched.RunUntil(10 * sim.Second)
	rreqAfterFirst := n.controlTx[core.ClassRREQ]
	rs[0].SendData(2, 1, 512)
	n.sched.RunUntil(20 * sim.Second)
	if len(n.delivered) != 2 {
		t.Fatalf("delivered %d, want 2", len(n.delivered))
	}
	if n.controlTx[core.ClassRREQ] != rreqAfterFirst {
		t.Fatal("fresh route was not reused")
	}
}

func TestExpandingRing(t *testing.T) {
	n := newFakeNet()
	rs := n.line(2, quiet())
	rs[0].SendData(1, 1, 100)
	n.sched.RunUntil(10 * sim.Second)
	if len(n.delivered) != 1 {
		t.Fatal("not delivered")
	}
	if got := rs[0].Stats().RREQSent; got != 1 {
		t.Fatalf("origin sent %d RREQs, want 1 (TTL-1 ring sufficed)", got)
	}
}

func TestIntermediateReplyRequiresKnownSeq(t *testing.T) {
	// An intermediate may only answer when the origin supplied a known
	// target sequence; a first-ever discovery (TargetSeq 0) must reach the
	// destination itself.
	n := newFakeNet()
	cfg := quiet()
	cfg.ActiveRouteTimeout = 60 * sim.Second
	cfg.NonPropagatingFirst = false
	rs := n.line(4, cfg)

	// Warm node 1's table with a route to 3 by having 1 talk to 3.
	rs[1].SendData(3, 9, 10)
	n.sched.RunUntil(20 * sim.Second)
	delivered := len(n.delivered)

	// 0 discovers 3 for the first time: TargetSeq 0, so node 1 must not
	// answer from its table; the reply comes from 3.
	rs[0].SendData(3, 1, 512)
	n.sched.RunUntil(40 * sim.Second)
	if len(n.delivered) != delivered+1 {
		t.Fatalf("delivered %d, want %d", len(n.delivered), delivered+1)
	}
	if rs[3].Stats().RREPSent == 0 {
		t.Fatal("destination never replied")
	}
}

func TestLinkFailureEmitsRERRAndReroutes(t *testing.T) {
	n := newFakeNet()
	cfg := quiet()
	cfg.ActiveRouteTimeout = 60 * sim.Second
	cfg.RebroadcastJitter = 0 // deterministic flood arrival order
	rs := n.line(4, cfg)
	// Alternate path 1-4-5-3 is strictly longer than 1-2-3, so the first
	// RREQ copy reaching the target travels the chain and the primary
	// route goes through node 2.
	n.addRouter(4, cfg)
	n.addRouter(5, cfg)
	n.connect(1, 4)
	n.connect(4, 5)
	n.connect(5, 3)

	rs[0].SendData(3, 1, 512)
	n.sched.RunUntil(20 * sim.Second)
	if len(n.delivered) != 1 {
		t.Fatal("warmup lost")
	}
	n.disconnect(2, 3)
	// This packet is lost at node 2 (AODV has no salvaging); the RERR
	// propagates back and invalidates the route at the source.
	rs[0].SendData(3, 1, 512)
	n.sched.RunUntil(60 * sim.Second)
	if len(n.delivered) != 1 {
		t.Fatalf("delivered %d, want 1 (in-flight packet must be lost)", len(n.delivered))
	}
	if n.controlTx[core.ClassRERR] == 0 {
		t.Fatal("no RERR after link failure")
	}
	if rs[2].Stats().LinkFailures == 0 {
		t.Fatal("node 2 did not detect the failure")
	}
	// The next packet rediscovers and uses the 1-4-5-3 detour.
	rs[0].SendData(3, 1, 512)
	n.sched.RunUntil(180 * sim.Second)
	if len(n.delivered) != 2 {
		t.Fatalf("delivered %d, want 2 after rediscovery (drops %v)", len(n.delivered), n.dropped)
	}
	if got := n.delivered[1].hops; got != 4 {
		t.Fatalf("rerouted packet took %d hops, want 4 (via 1-4-5)", got)
	}
}

func TestHelloMaintainsNeighborRoutes(t *testing.T) {
	n := newFakeNet()
	cfg := DefaultConfig() // hellos on
	cfg.ActiveRouteTimeout = 5 * sim.Second
	rs := n.line(2, cfg)
	// Give node 0 an active route so its hello schedule fires.
	rs[0].SendData(1, 1, 64)
	n.sched.RunUntil(30 * sim.Second)
	if rs[0].Stats().HelloSent == 0 {
		t.Fatal("no hellos sent despite active routes")
	}
	// Node 1 keeps a neighbor entry for 0 alive purely from hellos.
	if rs[1].Table().Lookup(n.sched.Now(), 0) == nil {
		t.Fatal("hello did not maintain the neighbor route")
	}
}

func TestNoHelloWithoutActiveRoutes(t *testing.T) {
	n := newFakeNet()
	rs := n.line(2, DefaultConfig())
	n.sched.RunUntil(10 * sim.Second)
	if rs[0].Stats().HelloSent != 0 {
		t.Fatal("idle node broadcast hellos")
	}
}

func TestStopCancelsHellos(t *testing.T) {
	n := newFakeNet()
	rs := n.line(2, DefaultConfig())
	rs[0].SendData(1, 1, 64)
	n.sched.RunUntil(5 * sim.Second)
	sent := rs[0].Stats().HelloSent
	rs[0].Stop()
	n.sched.RunUntil(30 * sim.Second)
	if rs[0].Stats().HelloSent > sent+1 {
		t.Fatalf("hellos continued after Stop: %d -> %d", sent, rs[0].Stats().HelloSent)
	}
}

func TestUnreachableDropsAfterRetries(t *testing.T) {
	n := newFakeNet()
	cfg := quiet()
	cfg.MaxDiscoveryAttempts = 3
	rs := n.line(2, cfg)
	n.addRouter(9, cfg) // isolated
	rs[0].SendData(9, 1, 100)
	n.sched.RunUntil(120 * sim.Second)
	if len(n.delivered) != 0 {
		t.Fatal("delivered to unreachable node")
	}
	if len(n.dropped) != 1 || n.dropped[0] != "no-route" {
		t.Fatalf("drops = %v", n.dropped)
	}
}

func TestSelfAddressedDelivers(t *testing.T) {
	n := newFakeNet()
	r := n.addRouter(0, quiet())
	r.SendData(0, 1, 64)
	n.sched.RunUntil(sim.Second)
	if len(n.delivered) != 1 {
		t.Fatal("self-addressed packet lost")
	}
}

func TestOverhearIsIgnored(t *testing.T) {
	n := newFakeNet()
	r := n.addRouter(0, quiet())
	r.Overhear(5, &DataPacket{Data: routing.Data{Src: 5, Dst: 9, PayloadBytes: 10}})
	if r.Table().ActiveRoutes(n.sched.Now()) != 0 {
		t.Fatal("AODV learned from overhearing; it must not (paper §1)")
	}
}

func TestMessageSizes(t *testing.T) {
	tests := []struct {
		msg  routing.Message
		want int
	}{
		{&DataPacket{Data: routing.Data{PayloadBytes: 512}}, 520},
		{&RouteRequest{}, 24},
		{&RouteReply{}, 20},
		{&Hello{}, 20},
		{&RouteError{Unreachable: []Unreachable{{}, {}}}, 20},
	}
	for _, tt := range tests {
		if got := tt.msg.WireBytes(); got != tt.want {
			t.Errorf("%T WireBytes = %d, want %d", tt.msg, got, tt.want)
		}
	}
	if (&Hello{}).Class() != core.ClassRREP {
		t.Error("hello must ride the RREP class (unsolicited RREP)")
	}
}
