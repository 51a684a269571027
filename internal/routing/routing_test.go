package routing_test

import (
	"fmt"
	"slices"
	"testing"

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
	}
}

// TestRouterContract drives DSR and AODV through routing.Router on the
// line 0-1-2 with node 3 isolated, and requires both to report the same
// data-plane events: hop counts (0 for a packet sent to itself), crash
// hand-back, restart and giving up.
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
