package routing_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"rcast/internal/core"
	"rcast/internal/phy"
	"rcast/internal/routing"
	"rcast/internal/routing/aodv"
	"rcast/internal/routing/dsr"
	"rcast/internal/sim"
)

// loopNet is a loopback transport over an adjacency graph: a frame reaches
// every linked neighbor of its sender after a fixed delay, the addressee
// through Receive and the others through Overhear.
type loopNet struct {
	sched   *sim.Scheduler
	routers map[phy.NodeID]routing.Router
	links   map[[2]phy.NodeID]bool
	events  []string // data-plane hook calls, in order
	rreqs   []string // RREQ transmissions as "node@seconds since mark"
	mark    sim.Time

	// afterReceive, when set, runs right after a router's Receive.
	afterReceive func(id phy.NodeID, msg routing.Message)
}

type loopPort struct {
	net *loopNet
	id  phy.NodeID
}

func (p loopPort) Send(nh phy.NodeID, msg routing.Message, onResult func(bool)) {
	n, src := p.net, p.id
	n.sched.After(sim.Millisecond, func() {
		up := nh == phy.Broadcast || n.links[[2]phy.NodeID{src, nh}]
		for _, id := range []phy.NodeID{0, 1, 2, 3} {
			if !n.links[[2]phy.NodeID{src, id}] {
				continue
			}
			if nh == phy.Broadcast || id == nh {
				n.routers[id].Receive(src, msg)
				if n.afterReceive != nil {
					n.afterReceive(id, msg)
				}
			} else {
				n.routers[id].Overhear(src, msg)
			}
		}
		if onResult != nil {
			onResult(up)
		}
	})
}

func key(p *routing.Data) string { return fmt.Sprintf("%v/%d/%d", p.Src, p.FlowID, p.Seq) }

func (n *loopNet) hooks(id phy.NodeID) routing.Hooks {
	return routing.Hooks{
		DataOriginated: func(p *routing.Data) {
			n.events = append(n.events, fmt.Sprintf("originate %v %s", id, key(p)))
		},
		DataForwarded: func(p *routing.Data) {
			n.events = append(n.events, fmt.Sprintf("forward %v %s", id, key(p)))
		},
		DataDelivered: func(p *routing.Data, _ phy.NodeID, hops int) {
			n.events = append(n.events, fmt.Sprintf("deliver %v %s hops=%d", id, key(p), hops))
		},
		DataDropped: func(p *routing.Data, reason string) {
			n.events = append(n.events, fmt.Sprintf("drop %v %s %s", id, key(p), reason))
		},
		ControlSent: func(c core.Class) {
			if c == core.ClassRREQ {
				n.rreqs = append(n.rreqs, fmt.Sprintf("%v@%gs", id, (n.sched.Now()-n.mark).Seconds()))
			}
		},
	}
}

// rreqsBy returns the RREQ transmissions of node id.
func (n *loopNet) rreqsBy(id phy.NodeID) []string {
	var out []string
	for _, r := range n.rreqs {
		if strings.HasPrefix(r, id.String()+"@") {
			out = append(out, r)
		}
	}
	return out
}

// TestRouterContract drives DSR and AODV through routing.Router on the
// line 0-1-2 with node 3 isolated, and requires both to report the same
// data-plane events: hop counts (0 for a packet sent to itself), crash
// hand-back, restart and giving up. Both run the shared discovery core, so
// the table also pins what it owns: the send buffer drops its oldest
// packet on overflow, RREQs go out at 0, 1, 3, 7, 15 and 31 s before the
// parked packets are dropped at 63 s, and a crash inside a rebroadcast's
// jitter window suppresses that rebroadcast.
func TestRouterContract(t *testing.T) {
	protocols := []struct {
		name string
		new  func(id phy.NodeID, sched *sim.Scheduler, tr routing.Transport, h routing.Hooks) routing.Router
	}{
		{"DSR", func(id phy.NodeID, sched *sim.Scheduler, tr routing.Transport, h routing.Hooks) routing.Router {
			return dsr.New(id, sched, sim.Stream(int64(id), "dsr"), tr, dsr.DefaultConfig(), h)
		}},
		{"AODV", func(id phy.NodeID, sched *sim.Scheduler, tr routing.Transport, h routing.Hooks) routing.Router {
			return aodv.New(id, sched, sim.Stream(int64(id), "aodv"), tr, aodv.DefaultConfig(), h)
		}},
	}
	for _, proto := range protocols {
		t.Run(proto.name, func(t *testing.T) {
			n := &loopNet{
				sched:   sim.NewScheduler(),
				routers: make(map[phy.NodeID]routing.Router),
				links:   make(map[[2]phy.NodeID]bool),
			}
			for id := phy.NodeID(0); id < 4; id++ {
				n.routers[id] = proto.new(id, n.sched, loopPort{net: n, id: id}, n.hooks(id))
			}
			for _, l := range [][2]phy.NodeID{{0, 1}, {1, 2}} {
				n.links[l] = true
				n.links[[2]phy.NodeID{l[1], l[0]}] = true
			}
			src := n.routers[0]
			expect := func(until sim.Time, want ...string) {
				t.Helper()
				n.sched.RunUntil(until)
				if !slices.Equal(n.events, want) {
					t.Fatalf("by %v: events\n  %q\nwant\n  %q", until, n.events, want)
				}
				n.events = nil
			}

			src.SendData(2, 7, 64)
			expect(30*sim.Second,
				"originate n0 n0/7/1", "forward n1 n0/7/1", "deliver n2 n0/7/1 hops=2")

			src.SendData(3, 7, 64)
			expect(n.sched.Now(), "originate n0 n0/7/2")
			buffered := src.BufferedData()
			if len(buffered) != 1 || key(buffered[0]) != "n0/7/2" {
				t.Fatalf("buffered %v, want the packet for n3", buffered)
			}
			if flushed := src.Crash(); !slices.Equal(flushed, buffered) {
				t.Fatalf("Crash returned %v, BufferedData listed %v", flushed, buffered)
			}
			if src.Crash() != nil || len(src.BufferedData()) != 0 {
				t.Fatal("crashed router kept its buffer or crashed twice")
			}
			expect(200 * sim.Second) // no DataDropped for the flushed packet

			src.Restart()
			src.SendData(2, 7, 64)
			expect(230*sim.Second,
				"originate n0 n0/7/3", "forward n1 n0/7/3", "deliver n2 n0/7/3 hops=2")

			src.SendData(3, 7, 64)
			expect(500*sim.Second, "originate n0 n0/7/4", "drop n0 n0/7/4 no-route")

			src.SendData(0, 7, 64)
			expect(n.sched.Now(), "originate n0 n0/7/5", "deliver n0 n0/7/5 hops=0")

			// 65 packets for unreachable n3: the 64-packet buffer drops
			// the oldest, and the rest wait out the whole discovery.
			n.mark, n.rreqs = n.sched.Now(), nil
			var want []string
			for seq := 6; seq <= 70; seq++ {
				src.SendData(3, 7, 64)
				want = append(want, fmt.Sprintf("originate n0 n0/7/%d", seq))
			}
			expect(n.sched.Now(), append(want, "drop n0 n0/7/6 buffer-overflow")...)
			expect(n.mark + 63*sim.Second - 1)
			want = nil
			for seq := 7; seq <= 70; seq++ {
				want = append(want, fmt.Sprintf("drop n0 n0/7/%d no-route", seq))
			}
			expect(n.mark+63*sim.Second, want...)
			if got, wantTx := n.rreqsBy(0), []string{"n0@0s", "n0@1s", "n0@3s", "n0@7s", "n0@15s", "n0@31s"}; !slices.Equal(got, wantTx) {
				t.Fatalf("n0 sent RREQs %q, want %q", got, wantTx)
			}
			// The first attempt is non-propagating; n1 floods each other one.
			if got := len(n.rreqsBy(1)); got != 5 {
				t.Fatalf("n1 rebroadcast %d RREQs, want 5", got)
			}

			// n1 crashes right after taking in the first propagating RREQ,
			// while its rebroadcast waits out the jitter: nothing leaves n1.
			heard := 0
			n.afterReceive = func(id phy.NodeID, msg routing.Message) {
				if id == 1 && msg.Class() == core.ClassRREQ {
					if heard++; heard == 2 {
						n.routers[1].Crash()
					}
				}
			}
			n.mark, n.rreqs = n.sched.Now(), nil
			src.SendData(3, 7, 64)
			expect(n.mark+63*sim.Second, "originate n0 n0/7/71", "drop n0 n0/7/71 no-route")
			if heard != 6 || len(n.rreqsBy(0)) != 6 {
				t.Fatalf("n1 heard %d RREQs of the %d n0 sent, want 6", heard, len(n.rreqsBy(0)))
			}
			if got := n.rreqsBy(1); len(got) != 0 {
				t.Fatalf("crashed n1 rebroadcast %q", got)
			}
		})
	}
}

// TestDataOf finds the application packet inside either protocol's data
// packet, and nothing inside control traffic.
func TestDataOf(t *testing.T) {
	d, a := &dsr.DataPacket{}, &aodv.DataPacket{}
	if routing.DataOf(d) != &d.Data || routing.DataOf(a) != &a.Data {
		t.Fatal("DataOf missed the embedded Data")
	}
	if routing.DataOf(&dsr.RouteRequest{}) != nil || routing.DataOf(&aodv.Hello{}) != nil || routing.DataOf(nil) != nil {
		t.Fatal("DataOf found data in control traffic")
	}
}
