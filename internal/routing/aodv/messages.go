// Package aodv implements Ad-hoc On-demand Distance Vector routing
// (Perkins & Royer), the other on-demand protocol the paper discusses.
//
// AODV is the paper's foil for DSR: it keeps per-destination routing-table
// entries instead of source routes, gathers no information from
// overhearing, expires routes on a timeout, and (optionally) broadcasts
// periodic hello messages for link sensing. The paper's §1 footnote
// summarizes the consequences — more route-request traffic ("90% of the
// routing overhead comes from RREQ", citing Das et al.) and a poor fit
// with 802.11 PSM because periodic broadcasts keep neighborhoods awake.
// This package exists to reproduce those comparisons (experiment A6).
package aodv

import (
	"rcast/internal/core"
	"rcast/internal/phy"
	"rcast/internal/routing"
	"rcast/internal/sim"
)

// Wire-size constants (RFC 3561 packet formats, bytes).
const (
	rreqBytes  = 24
	rrepBytes  = 20
	helloBytes = 20
	rerrFixed  = 4
	rerrPerDst = 8
	dataHeader = 8 // flow id + seq framing on top of IP
)

// DataPacket is an application payload forwarded hop by hop using the
// routing tables (AODV carries no source route).
type DataPacket struct {
	routing.Data
	HopsTaken int
}

var _ routing.Message = (*DataPacket)(nil)

// Class implements Message.
func (*DataPacket) Class() core.Class { return core.ClassData }

// WireBytes implements Message.
func (p *DataPacket) WireBytes() int { return p.PayloadBytes + dataHeader }

// RouteRequest floods the network searching for Target.
type RouteRequest struct {
	ID        uint64
	Origin    phy.NodeID
	OriginSeq uint64
	Target    phy.NodeID
	// TargetSeq is the origin's last known sequence number for Target
	// (0 = unknown); intermediate nodes may only answer from their tables
	// with at least this freshness.
	TargetSeq uint64
	HopCount  int
	HopLimit  int
}

var _ routing.Message = (*RouteRequest)(nil)

// Class implements Message.
func (*RouteRequest) Class() core.Class { return core.ClassRREQ }

// WireBytes implements Message.
func (*RouteRequest) WireBytes() int { return rreqBytes }

// RouteReply travels back along the reverse path installing forward
// routes.
type RouteReply struct {
	Origin    phy.NodeID // the discovery origin the RREP is heading to
	Target    phy.NodeID // the destination the route leads to
	TargetSeq uint64
	HopCount  int // hops from the replier to Target, incremented en route
	Lifetime  sim.Time
}

var _ routing.Message = (*RouteReply)(nil)

// Class implements Message.
func (*RouteReply) Class() core.Class { return core.ClassRREP }

// WireBytes implements Message.
func (*RouteReply) WireBytes() int { return rrepBytes }

// Hello is the periodic 1-hop broadcast used for link sensing — the
// periodic traffic the paper singles out as hostile to PSM.
type Hello struct {
	From phy.NodeID
	Seq  uint64
}

var _ routing.Message = (*Hello)(nil)

// Class implements Message. Hellos are link-sensing control traffic; they
// ride the RREP class as in RFC 3561 (a hello is an unsolicited RREP).
func (*Hello) Class() core.Class { return core.ClassRREP }

// WireBytes implements Message.
func (*Hello) WireBytes() int { return helloBytes }

// RouteError invalidates routes through a broken next hop.
type RouteError struct {
	From        phy.NodeID
	Unreachable []Unreachable
}

// Unreachable is one (destination, sequence) pair listed in a RERR.
type Unreachable struct {
	Dst phy.NodeID
	Seq uint64
}

var _ routing.Message = (*RouteError)(nil)

// Class implements Message.
func (*RouteError) Class() core.Class { return core.ClassRERR }

// WireBytes implements Message.
func (r *RouteError) WireBytes() int { return rerrFixed + rerrPerDst*len(r.Unreachable) }
