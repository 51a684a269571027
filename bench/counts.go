package main

import (
	"time"

	"rcast"
	"rcast/internal/trace"
)

// workCounts sums the deterministic work counters of a set of results.
// A change that only makes the simulator faster leaves every one of them
// unchanged.
type workCounts struct {
	phyTx, deliveries, collisions, missedAsleep, faultLost, chanLost uint64
	macData, macRTS, macBcast, announced, overheard, awake, slept    uint64
	linkOK, linkFail                                                 uint64
	rreq, rrep, rerr, dataSent, cacheReplies, salvages               uint64
	originated, delivered, auditViolations                           uint64
	eventsRouting, eventsMAC, eventsPHY, eventsOther                 uint64
	joules, nodeSimSeconds                                           float64
}

// eventLayer groups trace kinds by the layer that emits them.
var eventLayer = map[trace.Kind]string{
	trace.KindOriginate: "routing", trace.KindDeliver: "routing", trace.KindForward: "routing",
	trace.KindDrop: "routing", trace.KindSalvage: "routing", trace.KindControl: "routing",
	trace.KindCache: "routing", trace.KindCacheEvict: "routing",
	trace.KindEnqueue: "mac", trace.KindAtim: "mac", trace.KindLottery: "mac",
	trace.KindWake: "mac", trace.KindSleep: "mac",
	trace.KindPhyDrop: "phy",
}

func countsOf(res *rcast.Result, events map[trace.Kind]uint64) workCounts {
	ch, m, d := res.Channel, res.MACTotal, res.DSRTotal
	c := workCounts{
		phyTx: ch.Transmissions, deliveries: ch.Deliveries, collisions: ch.Collisions,
		missedAsleep: ch.MissedAsleep, faultLost: ch.FaultLost, chanLost: ch.ChannelLost,
		macData: m.DataTx, macRTS: m.RtsTx, macBcast: m.BroadcastTx, announced: m.Announced,
		overheard: m.Overheard, awake: m.AwakePhases, slept: m.SleptPhases,
		linkOK: m.LinkSuccess, linkFail: m.LinkFailures,
		rreq: d.RREQSent, rrep: d.RREPSent, rerr: d.RERRSent, dataSent: d.DataSent,
		cacheReplies: d.CacheReplies, salvages: d.Salvages,
		originated: res.Originated, delivered: res.Delivered,
		auditViolations: uint64(res.AuditViolationCount),
		joules:          res.TotalJoules,
		nodeSimSeconds:  float64(res.Nodes) * res.Duration.Seconds(),
	}
	for k, n := range events {
		switch eventLayer[k] {
		case "routing":
			c.eventsRouting += n
		case "mac":
			c.eventsMAC += n
		case "phy":
			c.eventsPHY += n
		default:
			c.eventsOther += n
		}
	}
	return c
}

func (c *workCounts) add(o workCounts) {
	c.phyTx += o.phyTx
	c.deliveries += o.deliveries
	c.collisions += o.collisions
	c.missedAsleep += o.missedAsleep
	c.faultLost += o.faultLost
	c.chanLost += o.chanLost
	c.macData += o.macData
	c.macRTS += o.macRTS
	c.macBcast += o.macBcast
	c.announced += o.announced
	c.overheard += o.overheard
	c.awake += o.awake
	c.slept += o.slept
	c.linkOK += o.linkOK
	c.linkFail += o.linkFail
	c.rreq += o.rreq
	c.rrep += o.rrep
	c.rerr += o.rerr
	c.dataSent += o.dataSent
	c.cacheReplies += o.cacheReplies
	c.salvages += o.salvages
	c.originated += o.originated
	c.delivered += o.delivered
	c.auditViolations += o.auditViolations
	c.eventsRouting += o.eventsRouting
	c.eventsMAC += o.eventsMAC
	c.eventsPHY += o.eventsPHY
	c.eventsOther += o.eventsOther
	c.joules += o.joules
	c.nodeSimSeconds += o.nodeSimSeconds
}

func (c workCounts) events() uint64 {
	return c.eventsRouting + c.eventsMAC + c.eventsPHY + c.eventsOther
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report stores the counts as per-layer metrics.
func (c workCounts) report(vals map[string]float64) {
	for name, v := range map[string]uint64{
		"phy.tx": c.phyTx, "phy.deliveries": c.deliveries, "phy.collisions": c.collisions,
		"phy.missed_asleep": c.missedAsleep, "phy.chan_lost": c.chanLost,
		"mac.data_tx": c.macData, "mac.rts_tx": c.macRTS, "mac.broadcast_tx": c.macBcast,
		"mac.announced": c.announced, "mac.overheard": c.overheard,
		"mac.awake_phases": c.awake, "mac.slept_phases": c.slept,
		"dsr.rreq_sent": c.rreq, "dsr.rrep_sent": c.rrep, "dsr.rerr_sent": c.rerr,
		"dsr.data_sent": c.dataSent, "dsr.cache_replies": c.cacheReplies, "dsr.salvages": c.salvages,
		"trace.events": c.events(), "trace.events.routing": c.eventsRouting,
		"trace.events.mac": c.eventsMAC, "trace.events.phy": c.eventsPHY,
		"audit.violations": c.auditViolations,
	} {
		vals[name] = float64(v)
	}
	vals["energy.total_j"] = c.joules
	vals["metrics.pdr"] = ratio(float64(c.delivered), float64(c.originated))
	vals["mac.link_success_ratio"] = ratio(float64(c.linkOK), float64(c.linkOK+c.linkFail))
	received := c.deliveries + c.collisions + c.missedAsleep + c.faultLost + c.chanLost
	vals["phy.delivery_ratio"] = ratio(float64(c.deliveries), float64(received))
}

// reportSplit stores a profile's per-layer CPU shares and the host cost
// per unit of deterministic work, where c counts the work the profile
// covered.
func reportSplit(vals map[string]float64, split cpuSplit, c workCounts) {
	for _, l := range layers {
		vals[l+".cpu_share"] = split.share(l)
	}
	vals["profile.samples"] = float64(split.samples)
	ns := func(layer string) float64 { return float64(split.byLayer[layer] / time.Nanosecond) }
	vals["phy.ns_per_tx"] = ratio(ns("phy"), float64(c.phyTx))
	vals["propagation.ns_per_tx"] = ratio(ns("propagation"), float64(c.phyTx))
	vals["mac.ns_per_phase"] = ratio(ns("mac"), float64(c.awake+c.slept))
	vals["dsr.ns_per_data_tx"] = ratio(ns("dsr"), float64(c.dataSent))
	vals["mobility.ns_per_node_sim_s"] = ratio(ns("mobility"), c.nodeSimSeconds)
	vals["trace.ns_per_event"] = ratio(ns("trace"), float64(c.events()))
}
