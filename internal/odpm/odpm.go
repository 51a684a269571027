// Package odpm implements On-Demand Power Management (Zheng & Kravets,
// INFOCOM 2003), the baseline the paper compares Rcast against.
//
// An ODPM node switches between 802.11 active mode (AM) and power-save (PS)
// mode based on communication events: receiving a RREP keeps it in AM for
// 5 seconds, and sending/receiving/forwarding a data packet (or being a
// flow endpoint) keeps it in AM for 2 seconds — the timeout values the
// Rcast paper takes from the original ODPM work (§4.1). While in AM a node
// never sleeps and may exchange data immediately with other AM nodes
// instead of waiting for the next beacon interval.
package odpm

import (
	"rcast/internal/mac"
	"rcast/internal/sim"
)

// Timeout defaults from the ODPM paper, as quoted by the Rcast paper.
const (
	DefaultRREPKeepAlive = 5 * sim.Second
	DefaultDataKeepAlive = 2 * sim.Second
)

// Manager drives one node's AM/PS switching. It is glued to the routing
// layer via routing.Hooks (OnRREP/OnDataActivity) and to the MAC via
// mac.PSM.ExtendAM.
type Manager struct {
	sched *sim.Scheduler
	psm   *mac.PSM

	rrepKeepAlive sim.Time
	dataKeepAlive sim.Time

	rrepEvents uint64
	dataEvents uint64
}

// New creates a manager for one node. Non-positive keep-alives select the
// ODPM paper defaults.
func New(sched *sim.Scheduler, psm *mac.PSM, rrepKeepAlive, dataKeepAlive sim.Time) *Manager {
	if rrepKeepAlive <= 0 {
		rrepKeepAlive = DefaultRREPKeepAlive
	}
	if dataKeepAlive <= 0 {
		dataKeepAlive = DefaultDataKeepAlive
	}
	return &Manager{
		sched:         sched,
		psm:           psm,
		rrepKeepAlive: rrepKeepAlive,
		dataKeepAlive: dataKeepAlive,
	}
}

// OnRREP records a received route reply: traffic is imminent, stay in AM.
func (m *Manager) OnRREP() {
	m.rrepEvents++
	m.psm.ExtendAM(m.sched.Now() + m.rrepKeepAlive)
}

// OnDataActivity records sending, receiving or forwarding a data packet.
func (m *Manager) OnDataActivity() {
	m.dataEvents++
	m.psm.ExtendAM(m.sched.Now() + m.dataKeepAlive)
}

// Events returns (rrepEvents, dataEvents) for diagnostics.
func (m *Manager) Events() (rrep, data uint64) { return m.rrepEvents, m.dataEvents }
