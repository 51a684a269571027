// Package routing is the contract between a node's routing protocol and
// the rest of its stack. Both protocols (internal/routing/dsr and
// internal/routing/aodv) implement Router, send through a Transport,
// report through Hooks, and carry application packets that embed Data,
// so the scenario layer wires a node's routing once, whichever protocol
// runs.
package routing

import (
	"rcast/internal/core"
	"rcast/internal/phy"
	"rcast/internal/sim"
)

// Data is the end-to-end identity and payload of an application packet.
// Each protocol's data packet embeds it and adds its own forwarding state
// (a source route, a hop counter).
type Data struct {
	// FlowID identifies the (application) connection; Seq is unique within
	// the originator.
	FlowID uint64
	Seq    uint64

	Src, Dst     phy.NodeID
	PayloadBytes int
	OriginatedAt sim.Time
}

// appData lets DataOf find the Data inside any message that embeds it.
func (d *Data) appData() *Data { return d }

// DataOf returns the application packet a message carries, or nil for
// control traffic and foreign payloads.
func DataOf(msg any) *Data {
	if c, ok := msg.(interface{ appData() *Data }); ok {
		return c.appData()
	}
	return nil
}

// Message is any routing packet.
type Message interface {
	// Class returns the routing packet class (drives Rcast levels).
	Class() core.Class
	// WireBytes returns the on-air size excluding the MAC header.
	WireBytes() int
}

// Transport is the MAC-facing interface a router sends through. nh is the
// link-layer next hop (phy.Broadcast for floods); onResult, when non-nil,
// receives the link outcome of a unicast (ACKed vs retry-exhausted).
type Transport interface {
	Send(nh phy.NodeID, msg Message, onResult func(delivered bool))
}

// Hooks are optional observation points; nil fields are skipped. They feed
// the metrics collector, the trace, the audit and the ODPM power manager.
// A router calls them in the order its protocol events happen, so the
// observers see one stream per node whichever protocol runs.
type Hooks struct {
	DataOriginated func(p *Data)
	// DataDelivered fires at the destination; hops is the number of links
	// the packet crossed, as the protocol counts them: 0 for a packet its
	// source addressed to itself.
	DataDelivered func(p *Data, from phy.NodeID, hops int)
	DataForwarded func(p *Data)
	DataDropped   func(p *Data, reason string)
	// ControlSent fires once per control-packet transmission (every hop).
	ControlSent func(c core.Class)
	// RREPReceived / DataActivity drive ODPM active-mode timers.
	RREPReceived func()
	DataActivity func()

	// The remaining hooks are DSR-only; AODV never calls them.

	// DataSalvaged fires when a link failure is repaired from cache: p is
	// re-routed along route, its attempt-th salvage.
	DataSalvaged func(p *Data, attempt int, route []phy.NodeID)
	// CacheInserted fires for every accepted route-cache insertion.
	// CacheEvicted fires for every capacity eviction from the route cache.
	// Both borrow the cache's storage: the path is valid only during the
	// call.
	CacheInserted func(path []phy.NodeID)
	CacheEvicted  func(path []phy.NodeID)
}

// Router is one node's routing-protocol instance.
type Router interface {
	// SendData originates an application packet of payloadBytes to dst,
	// discovering a route first if necessary. A crashed router drops the
	// request silently: the packet is never originated.
	SendData(dst phy.NodeID, flowID uint64, payloadBytes int)
	// Receive processes a message addressed to this node (or broadcast),
	// transmitted by from.
	Receive(from phy.NodeID, msg Message)
	// Overhear processes a message addressed to another node that this
	// node's radio decoded.
	Overhear(from phy.NodeID, msg Message)
	// BufferedData returns the data packets parked awaiting route
	// discovery, ordered by destination then insertion.
	BufferedData() []*Data
	// Crash wipes the router for a fault-injected node crash and returns
	// what BufferedData listed, without passing them through DataDropped:
	// the caller reconciles them as a terminal class of their own. A
	// second Crash before Restart returns nil.
	Crash() []*Data
	// Restart brings a crashed router back up with empty state. Sequence
	// counters keep running, so a packet originated after Restart never
	// reuses a key from before the crash.
	Restart()
}
