package dsr

import (
	"testing"

	"rcast/internal/core"
	"rcast/internal/phy"
	"rcast/internal/routing"
	"rcast/internal/sim"
)

func TestBufferTimeoutDropsStalePackets(t *testing.T) {
	// A packet buffered long enough before a route appears is dropped with
	// "buffer-timeout" rather than delivered absurdly late.
	n := newFakeNet(t)
	cfg := DefaultConfig()
	cfg.SendBufferTimeout = 5 * sim.Second
	cfg.MaxDiscoveryAttempts = 12 // keep discovery alive past the timeout
	rs := n.line(2, cfg)
	n.disconnect(0, 1) // no route yet
	rs[0].SendData(1, 1, 100)
	// Reconnect after the buffer timeout has passed; the eventual
	// discovery succeeds but the packet is stale.
	n.sched.After(20*sim.Second, func() { n.connect(0, 1) })
	n.run(200 * sim.Second)
	if len(n.delivered) != 0 {
		t.Fatalf("stale packet delivered after %v", n.delivered[0].OriginatedAt)
	}
	found := false
	for _, r := range n.dropped {
		if r == "buffer-timeout" {
			found = true
		}
	}
	if !found {
		t.Fatalf("drops = %v, want buffer-timeout", n.dropped)
	}
}

func TestCacheRepliesDisabled(t *testing.T) {
	n := newFakeNet(t)
	cfg := DefaultConfig()
	cfg.CacheReplies = false
	rs := n.line(4, cfg)
	rs[1].Cache().Add(0, path(1, 2, 3))
	rs[0].SendData(3, 1, 512)
	n.run(30 * sim.Second)
	if len(n.delivered) != 1 {
		t.Fatal("not delivered")
	}
	if rs[1].Stats().CacheReplies != 0 {
		t.Fatal("cache reply generated despite CacheReplies=false")
	}
	// The flood had to reach the destination itself.
	if rs[3].Stats().RREPSent == 0 {
		t.Fatal("destination never replied")
	}
}

func TestSalvageDisabled(t *testing.T) {
	n := newFakeNet(t)
	cfg := DefaultConfig()
	cfg.MaxSalvage = 0
	rs := n.line(4, cfg)
	n.addRouter(4, cfg)
	n.connect(2, 4)
	n.connect(4, 3)
	rs[0].SendData(3, 1, 512)
	n.run(30 * sim.Second)
	if len(n.delivered) != 1 {
		t.Fatal("warmup lost")
	}
	rs[2].Cache().Add(n.sched.Now(), path(2, 4, 3))
	n.disconnect(2, 3)
	rs[0].SendData(3, 1, 512)
	n.run(90 * sim.Second)
	if rs[2].Stats().Salvages != 0 {
		t.Fatal("salvage happened despite MaxSalvage=0")
	}
}

func TestRREQGeneratesMultipleRoutes(t *testing.T) {
	// Two disjoint paths 0-1-3 and 0-2-3: the target replies to both flood
	// copies, and the origin caches both (alternative routes, §2.1).
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
	routes := n.routers[0].Cache().Routes(n.sched.Now())
	viaOne, viaTwo := false, false
	for _, r := range routes {
		if len(r) >= 2 && indexOf(r, 3) > 0 {
			switch r[1] {
			case 1:
				viaOne = true
			case 2:
				viaTwo = true
			}
		}
	}
	if !viaOne || !viaTwo {
		t.Fatalf("origin cached routes %v, want both disjoint paths", routes)
	}
}

func TestRERRStopsAtFlowSource(t *testing.T) {
	n := newFakeNet(t)
	rs := n.line(4, DefaultConfig())
	rs[0].SendData(3, 1, 512)
	n.run(30 * sim.Second)
	n.disconnect(2, 3)
	rs[0].SendData(3, 1, 512)
	n.run(90 * sim.Second)
	// Node 0 is the flow source: it receives the RERR (purging the link)
	// but must not forward it further.
	if got := rs[0].Stats().RERRSent; got != 0 {
		t.Fatalf("flow source forwarded RERR %d times", got)
	}
	if rs[0].Cache().HasRouteTo(n.sched.Now(), 3) {
		// The cache may have rebuilt a fresh route via rediscovery; ensure
		// any cached route avoids the broken link.
		for _, r := range rs[0].Cache().Routes(n.sched.Now()) {
			for i := 0; i+1 < len(r); i++ {
				if (r[i] == 2 && r[i+1] == 3) || (r[i] == 3 && r[i+1] == 2) {
					t.Fatalf("stale link survived in route %v", r)
				}
			}
		}
	}
}

func TestOverhearOwnTransmissionIgnored(t *testing.T) {
	n := newFakeNet(t)
	r := n.addRouter(5, DefaultConfig())
	r.Overhear(5, &DataPacket{Data: routing.Data{Src: 5, Dst: 9, PayloadBytes: 10}, Route: path(5, 6, 9)})
	if r.Cache().Len() != 0 {
		t.Fatal("router learned from its own transmission")
	}
}

func TestOverhearTransmitterNotOnRoute(t *testing.T) {
	n := newFakeNet(t)
	r := n.addRouter(5, DefaultConfig())
	// Malformed observation: transmitter 7 is not on the carried route.
	r.Overhear(7, &DataPacket{Data: routing.Data{Src: 0, Dst: 9, PayloadBytes: 10}, Route: path(0, 1, 9)})
	if r.Cache().Len() != 0 {
		t.Fatal("router learned from inconsistent observation")
	}
}

func TestRcastClassMapping(t *testing.T) {
	// The transport-facing classes drive the Rcast levels; make sure DSR's
	// message types map as §3.3 prescribes when combined with the policy.
	pol := core.Rcast{}
	tests := []struct {
		msg  routing.Message
		want core.Level
	}{
		{&DataPacket{}, core.LevelRandomized},
		{&RouteReply{}, core.LevelRandomized},
		{&RouteError{}, core.LevelUnconditional},
		{&RouteRequest{}, core.LevelUnconditional},
	}
	for _, tt := range tests {
		if got := pol.AdvertiseLevel(tt.msg.Class()); got != tt.want {
			t.Errorf("%T advertised %v, want %v", tt.msg, got, tt.want)
		}
	}
}

func TestCrashFlushesBufferAndClearsCache(t *testing.T) {
	// A crash hands back the buffered packets and forgets every route; the
	// router originates nothing while down and relearns after Restart.
	n := newFakeNet(t)
	rs := n.line(3, DefaultConfig())
	rs[0].SendData(2, 1, 256)
	n.run(10 * sim.Second)
	if len(n.delivered) != 1 || rs[0].Cache().Len() == 0 {
		t.Fatalf("before the crash: delivered %d, %d cached routes", len(n.delivered), rs[0].Cache().Len())
	}
	rs[0].SendData(7, 1, 256) // unreachable: parked behind a discovery
	if got := rs[0].BufferedData(); len(got) != 1 || got[0].Dst != 7 {
		t.Fatalf("buffered %v, want the packet for 7", got)
	}
	if flushed := rs[0].Crash(); len(flushed) != 1 || flushed[0].Dst != 7 {
		t.Fatalf("Crash flushed %v, want the packet for 7", flushed)
	}
	if rs[0].Cache().Len() != 0 || len(rs[0].BufferedData()) != 0 || rs[0].Crash() != nil {
		t.Fatal("crashed router kept state or crashed twice")
	}
	rs[0].SendData(2, 1, 256)
	n.run(20 * sim.Second)
	if len(n.delivered) != 1 {
		t.Fatalf("a crashed router originated traffic: delivered %d", len(n.delivered))
	}
	rs[0].Restart()
	rs[0].SendData(2, 1, 256)
	n.run(40 * sim.Second)
	if len(n.delivered) != 2 {
		t.Fatalf("after Restart: delivered %d, want 2", len(n.delivered))
	}
}
