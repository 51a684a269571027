// Package dsr implements Dynamic Source Routing (Johnson & Maltz) as used
// by the paper: on-demand route discovery with RREQ flooding and expanding
// ring search, RREP generation by destinations and (optionally) by
// intermediate nodes answering from their route caches, RERR propagation on
// link failures, source-routed data forwarding with salvaging, and — the
// piece the paper revolves around — route learning from overheard packets.
//
// Messages are immutable once transmitted: a forwarding node never mutates
// a message in place (multiple radios may hold the same pointer after a
// broadcast); it builds a copy with copied slices.
package dsr

import (
	"rcast/internal/core"
	"rcast/internal/phy"
	"rcast/internal/routing"
)

// Per-message fixed header sizes in bytes (DSR over IP, RFC 4728 flavour),
// plus 4 bytes per route hop. Used for on-air sizing only.
const (
	fixedHeaderBytes = 12
	perHopBytes      = 4
	rerrExtraBytes   = 8
)

// DataPacket is an application payload carried with a full source route.
type DataPacket struct {
	routing.Data
	// Route is the source route currently steering the packet. It always
	// ends at Dst; after salvaging it may start at the salvaging node
	// rather than Src.
	Route []phy.NodeID
	// Salvaged counts how many times intermediate nodes re-routed the
	// packet after a link failure.
	Salvaged int
}

var _ routing.Message = (*DataPacket)(nil)

// Class implements Message.
func (*DataPacket) Class() core.Class { return core.ClassData }

// WireBytes implements Message.
func (p *DataPacket) WireBytes() int {
	return p.PayloadBytes + fixedHeaderBytes + perHopBytes*len(p.Route)
}

// RouteRequest floods the network searching for Target.
type RouteRequest struct {
	// ID is unique per Origin and identifies one discovery round.
	ID     uint64
	Origin phy.NodeID
	Target phy.NodeID
	// Recorded is the path accumulated so far, starting at Origin and
	// ending at the most recent transmitter.
	Recorded []phy.NodeID
	// HopLimit is the remaining rebroadcast budget; 1 means receivers must
	// not rebroadcast (the non-propagating ring-0 search).
	HopLimit int
}

var _ routing.Message = (*RouteRequest)(nil)

// Class implements Message.
func (*RouteRequest) Class() core.Class { return core.ClassRREQ }

// WireBytes implements Message.
func (r *RouteRequest) WireBytes() int {
	return fixedHeaderBytes + perHopBytes*len(r.Recorded)
}

// RouteReply returns a discovered route to the discovery origin.
type RouteReply struct {
	// ID echoes the RouteRequest ID.
	ID uint64
	// Route is the discovered path Origin..Target.
	Route []phy.NodeID
	// ReplyPath steers the RREP itself: replier..origin.
	ReplyPath []phy.NodeID
	// FromCache marks replies spliced from an intermediate node's cache.
	FromCache bool
}

var _ routing.Message = (*RouteReply)(nil)

// Class implements Message.
func (*RouteReply) Class() core.Class { return core.ClassRREP }

// WireBytes implements Message.
func (r *RouteReply) WireBytes() int {
	return fixedHeaderBytes + perHopBytes*(len(r.Route)+len(r.ReplyPath))
}

// RouteError reports a broken link back to a flow source. The paper has
// Rcast advertise RERRs with unconditional overhearing so stale routes are
// purged cache-wide as fast as possible.
type RouteError struct {
	// Detector observed the failure transmitting to BrokenTo.
	Detector   phy.NodeID
	BrokenFrom phy.NodeID
	BrokenTo   phy.NodeID
	// ReturnPath steers the RERR: detector..source of the failed flow.
	ReturnPath []phy.NodeID
}

var _ routing.Message = (*RouteError)(nil)

// Class implements Message.
func (*RouteError) Class() core.Class { return core.ClassRERR }

// WireBytes implements Message.
func (r *RouteError) WireBytes() int {
	return fixedHeaderBytes + rerrExtraBytes + perHopBytes*len(r.ReturnPath)
}

// indexOf returns the position of id in path, or -1.
func indexOf(path []phy.NodeID, id phy.NodeID) int {
	for i, n := range path {
		if n == id {
			return i
		}
	}
	return -1
}

// reversed returns a new slice with path in reverse order.
func reversed(path []phy.NodeID) []phy.NodeID {
	return appendReversed(make([]phy.NodeID, 0, len(path)), path)
}

// appendReversed appends path to dst in reverse order.
func appendReversed(dst, path []phy.NodeID) []phy.NodeID {
	for i := len(path) - 1; i >= 0; i-- {
		dst = append(dst, path[i])
	}
	return dst
}

// appendHop returns a new slice path+[id] (never aliasing path's array
// beyond its length in a way visible to other holders).
func appendHop(path []phy.NodeID, id phy.NodeID) []phy.NodeID {
	out := make([]phy.NodeID, len(path)+1)
	copy(out, path)
	out[len(path)] = id
	return out
}

// hasDuplicates reports whether any node appears twice in path. Routes
// are a handful of hops, so the quadratic scan beats building a set.
func hasDuplicates(path []phy.NodeID) bool {
	for i := 1; i < len(path); i++ {
		if indexOf(path[:i], path[i]) >= 0 {
			return true
		}
	}
	return false
}
