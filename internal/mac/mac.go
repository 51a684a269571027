// Package mac implements the IEEE 802.11 medium access control layer used
// by the simulator: the distributed coordination function (DCF — CSMA/CA
// with binary-exponential backoff, SIFS/DIFS spacing, ACKs and retries), the
// power saving mechanism (PSM — synchronized beacon intervals with an ATIM
// advertisement window), and the Rcast extension of the ATIM frame that
// advertises a per-packet overhearing level (paper §3).
//
// Three MAC flavours are provided:
//
//   - AlwaysOn: plain DCF, radio never sleeps (the paper's "802.11" scheme)
//   - PSM: beacon-synchronized PSM whose overhearing behaviour is a
//     pluggable core.Policy (Unconditional ⇒ the paper's "PSM",
//     None ⇒ naive integration, Rcast ⇒ the paper's contribution)
//   - PSM + power manager hooks (ExtendAM / fast path) ⇒ ODPM
package mac

import (
	"errors"
	"fmt"
	"math"

	"rcast/internal/core"
	"rcast/internal/phy"
	"rcast/internal/sim"
)

// Params are the 802.11 DSSS MAC/PHY parameters (2 Mbps, long preamble).
// The JSON tags are the "mac" object of the canonical run-configuration
// encoding (internal/scenario): renaming or reordering a field changes
// every result-cache key.
type Params struct {
	SlotTime sim.Time `json:"slot_time_us"`
	SIFS     sim.Time `json:"sifs_us"`
	DIFS     sim.Time `json:"difs_us"`
	CWMin    int      `json:"cw_min"` // initial contention window (slots-1), e.g. 31
	CWMax    int      `json:"cw_max"`
	// RetryLimit is the number of retransmissions after the first attempt
	// before the frame is dropped and the link declared broken.
	RetryLimit int `json:"retry_limit"`

	DataRateMbps float64 `json:"data_rate_mbps"`
	// DataHeaderBytes is the MAC overhead added to every data frame
	// (802.11 header + FCS).
	DataHeaderBytes int `json:"data_header_bytes"`
	AckBytes        int `json:"ack_bytes"`
	RTSBytes        int `json:"rts_bytes"`
	CTSBytes        int `json:"cts_bytes"`
	// RTSThresholdBytes applies the RTS/CTS handshake to unicast data
	// frames at or above this on-air size. 0 (the ns-2 default) applies it
	// to all unicast data; set above any frame size to disable.
	RTSThresholdBytes int `json:"rts_threshold_bytes"`

	// BeaconInterval and ATIMWindow shape PSM; the paper uses 250 ms and
	// 50 ms (it reports an average per-hop delay of half a beacon interval,
	// 125 ms).
	BeaconInterval sim.Time `json:"beacon_interval_us"`
	ATIMWindow     sim.Time `json:"atim_window_us"`

	// MaxAnnouncements caps distinct (destination, level) ATIM exchanges a
	// node can fit in one ATIM window.
	MaxAnnouncements int `json:"max_announcements"`

	// ATIMContention, when true, drops the paper's §4.1 reliability
	// assumption and models the ATIM window as a slotted contention
	// period: each announcement lands in a random slot, same-slot
	// announcements collide at receivers that can hear both senders, and
	// a unicast announcement is only admitted to the data phase if its
	// destination decoded it. ATIMSlots sets the window's slot count and
	// ATIMRetryLimit bounds consecutive failed advertisement attempts
	// before the packet is dropped (link failure).
	ATIMContention bool `json:"atim_contention"`
	ATIMSlots      int  `json:"atim_slots"`
	ATIMRetryLimit int  `json:"atim_retry_limit"`
}

// DefaultParams returns the parameters used throughout the paper's
// evaluation.
func DefaultParams() Params {
	return Params{
		SlotTime:         20 * sim.Microsecond,
		SIFS:             10 * sim.Microsecond,
		DIFS:             50 * sim.Microsecond,
		CWMin:            31,
		CWMax:            1023,
		RetryLimit:       7,
		DataRateMbps:     2,
		DataHeaderBytes:  34,
		AckBytes:         14,
		RTSBytes:         20,
		CTSBytes:         14,
		BeaconInterval:   250 * sim.Millisecond,
		ATIMWindow:       50 * sim.Millisecond,
		MaxAnnouncements: 64,
		ATIMSlots:        64,
		ATIMRetryLimit:   3,
	}
}

// Bounds on the sized parameters: the contention window is drawn from
// and doubled in an int, the ATIM window allocates one counter per slot,
// and the spacings are summed into NAVs and timeouts, which must not
// overflow.
const (
	maxCW        = 1 << 20
	maxATIMSlots = 1 << 16
	maxSpacing   = sim.Second
)

// Validate reports parameters the MAC cannot run with. A zero ATIMSlots
// or ATIMRetryLimit keeps its default, and a zero RTSThresholdBytes
// applies RTS/CTS to all unicast data; negative values are rejected.
func (p Params) Validate() error {
	switch {
	case p.SlotTime <= 0 || p.SIFS < 0 || p.DIFS < 0:
		return errors.New("mac: slot time must be positive and SIFS, DIFS >= 0")
	case p.SlotTime > maxSpacing || p.SIFS > maxSpacing || p.DIFS > maxSpacing:
		return fmt.Errorf("mac: slot time, SIFS and DIFS must be at most %v", maxSpacing)
	case p.CWMin < 0 || p.CWMax < p.CWMin || p.CWMax > maxCW:
		return fmt.Errorf("mac: contention window needs 0 <= cw_min <= cw_max <= %d", maxCW)
	case p.RetryLimit < 0:
		return errors.New("mac: retry limit must be >= 0")
	case !(p.DataRateMbps > 0) || math.IsInf(p.DataRateMbps, 1):
		return errors.New("mac: data rate must be positive and finite")
	case p.DataHeaderBytes < 0 || p.AckBytes < 0 || p.RTSBytes < 0 || p.CTSBytes < 0 || p.RTSThresholdBytes < 0:
		return errors.New("mac: frame sizes and the RTS threshold must be >= 0")
	case p.BeaconInterval <= 0 || p.ATIMWindow <= 0 || p.ATIMWindow >= p.BeaconInterval:
		return errors.New("mac: need 0 < ATIM window < beacon interval")
	case p.MaxAnnouncements < 1:
		return errors.New("mac: max announcements must be >= 1")
	case p.ATIMSlots < 0 || p.ATIMSlots > maxATIMSlots:
		return fmt.Errorf("mac: ATIM slots must be in [0, %d]", maxATIMSlots)
	case p.ATIMRetryLimit < 0:
		return errors.New("mac: ATIM retry limit must be >= 0")
	}
	return nil
}

// Packet is the unit the routing layer hands to a MAC.
type Packet struct {
	// Dst is the link-layer next hop, or phy.Broadcast.
	Dst phy.NodeID
	// Class drives the advertised overhearing level (core.Policy).
	Class core.Class
	// Level is the advertised overhearing level; filled in by the MAC from
	// its policy when zero.
	Level core.Level
	// Bytes is the routing-layer packet size (MAC header excluded).
	Bytes int
	// Payload is the routing packet itself; opaque to the MAC.
	Payload any
	// OnResult, if non-nil, reports the link-layer outcome: true once a
	// unicast is acknowledged (or a broadcast transmitted), false when the
	// retry limit is exhausted.
	OnResult func(delivered bool)
}

// Upcalls is the interface the routing layer registers with a MAC.
type Upcalls interface {
	// OnReceive delivers a packet addressed to this node (or broadcast).
	OnReceive(from phy.NodeID, p Packet)
	// OnOverhear delivers a packet addressed to another node that this
	// node's radio decoded while awake (promiscuous tap).
	OnOverhear(from phy.NodeID, p Packet)
}

// Mac is the interface the node stack uses.
type Mac interface {
	// Send queues a packet for transmission to p.Dst.
	Send(p Packet)
	// NodeID returns the owning node's ID.
	NodeID() phy.NodeID
	// Stats returns a copy of the MAC counters.
	Stats() Stats
	// Queued returns the packets the MAC currently holds (transmit queue
	// and, for PSM, packets awaiting the next ATIM window). The audit
	// layer enumerates still-buffered traffic with it at teardown.
	Queued() []Packet
}

// Stats counts MAC-level events.
type Stats struct {
	DataTx       uint64 // data frame transmission attempts (incl. retries)
	RtsTx        uint64 // RTS frames sent
	CtsTx        uint64 // CTS frames sent
	AckTx        uint64 // acknowledgement frames sent
	LinkSuccess  uint64 // unicast packets acknowledged
	LinkFailures uint64 // unicast packets dropped after retry exhaustion
	BroadcastTx  uint64 // broadcast packets transmitted
	Delivered    uint64 // packets delivered up (addressed to us)
	Overheard    uint64 // packets delivered up promiscuously
	Announced    uint64 // ATIM announcements made (PSM only)
	AtimFailures uint64 // packets dropped after repeated failed ATIMs
	SleptPhases  uint64 // data phases slept through (PSM only)
	AwakePhases  uint64 // data phases stayed awake (PSM only)
}

// dataFrame and ackFrame are the on-air payloads.
type dataFrame struct {
	Seq uint64
	Pkt Packet
}

type ackFrame struct {
	Seq uint64
}
