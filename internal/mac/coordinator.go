package mac

import (
	"math/rand"

	"rcast/internal/core"
	"rcast/internal/phy"
	"rcast/internal/sim"
)

// Announcement is one (reliable) ATIM advertisement: sender From has
// buffered traffic for To, advertised with the given overhearing level.
type Announcement struct {
	From  phy.NodeID
	To    phy.NodeID // phy.Broadcast for flooded packets
	Level core.Level
}

// Station is a PSM participant driven by the Coordinator.
type Station interface {
	// BeaconStart fires at each beacon boundary: the station wakes for the
	// ATIM window and returns its advertisements for this interval. The
	// returned slice is only valid until the station's next BeaconStart
	// (stations may reuse the backing array).
	BeaconStart(now sim.Time) []Announcement
	// ATIMEnd fires when the ATIM window closes, carrying the
	// advertisements this station decoded (already filtered for radio
	// range and, under ATIM contention, slot collisions); the station
	// decides whether to stay awake.
	ATIMEnd(now sim.Time, heard []Announcement, nextBeacon sim.Time)
	// ATIMOutcome fires before ATIMEnd under ATIM contention, listing
	// which of this station's own advertisements were decoded by their
	// destinations (admission to the data phase).
	ATIMOutcome(now sim.Time, admitted []Announcement)
	// Radio exposes the station's transceiver for range computations.
	Radio() *phy.Radio
}

// taggedAnn is one gathered advertisement with its sender index, contention
// slot draw, and (contention mode) whether its destination decoded it.
type taggedAnn struct {
	ann        Announcement
	sender     int
	slot       int
	dstDecoded bool
}

// Coordinator drives the synchronized beacon cycle shared by all PSM
// stations, resolves which advertisements each station can decode (range
// always; slot collisions under ATIM contention), and reports admission
// outcomes back to senders. The paper assumes stations are
// clock-synchronized (§2.2, citing Tseng et al.; see internal/clocksync);
// the coordinator is that assumption made concrete.
//
// The per-beacon working set (gathered announcements, per-receiver heard
// and admitted lists, slot-collision counts) lives in scratch buffers reused
// across beacons, and the beacon/ATIM-end callbacks are prebound once, so a
// beacon cycle performs no steady-state allocation.
type Coordinator struct {
	sched    *sim.Scheduler
	ch       *phy.Channel
	p        Params
	rng      *rand.Rand
	interval sim.Time
	atim     sim.Time
	stations []Station
	stopAt   sim.Time

	beacons        uint64
	atimCollisions uint64

	beaconFn  func() // prebound beacon callback
	atimEndFn func() // prebound ATIM-window-close callback

	anns       []taggedAnn // this interval's advertisements
	nextBeacon sim.Time
	heard      [][]Announcement // per-receiver decoded announcements
	admitted   [][]Announcement // per-sender admitted announcements
	recvIdx    [][]int          // scratch: per-receiver receivable announcement indices
	keptIdx    []int            // scratch: receivable indices surviving slot collisions
	slotCount  []int            // scratch: per-slot reception counts

	stationOf []int            // station index by radio NodeID, -1 for none
	reachAnn  int              // announcement whose sender reach is being walked
	reachFn   func(phy.NodeID) // prebound: marks reachAnn receivable at a radio
}

// NewCoordinator creates a beacon coordinator over the given channel.
// stopAt bounds the run; no beacons fire at or after it. rng drives the
// ATIM slot draws and may be nil when p.ATIMContention is false.
func NewCoordinator(sched *sim.Scheduler, ch *phy.Channel, p Params, rng *rand.Rand, stopAt sim.Time) *Coordinator {
	interval := p.BeaconInterval
	atim := p.ATIMWindow
	if atim >= interval {
		atim = interval / 5
	}
	if p.ATIMSlots < 1 {
		p.ATIMSlots = 64
	}
	c := &Coordinator{
		sched:    sched,
		ch:       ch,
		p:        p,
		rng:      rng,
		interval: interval,
		atim:     atim,
		stopAt:   stopAt,
	}
	c.beaconFn = c.beacon
	c.atimEndFn = c.atimEnd
	c.reachFn = func(id phy.NodeID) {
		if uint(id) < uint(len(c.stationOf)) {
			if ri := c.stationOf[id]; ri >= 0 {
				c.recvIdx[ri] = append(c.recvIdx[ri], c.reachAnn)
			}
		}
	}
	return c
}

// AddStation registers a PSM station. All stations must be registered
// before Start, each on its own radio with a non-negative ID.
func (c *Coordinator) AddStation(s Station) {
	id := int(s.Radio().ID())
	for len(c.stationOf) <= id {
		c.stationOf = append(c.stationOf, -1)
	}
	c.stationOf[id] = len(c.stations)
	c.stations = append(c.stations, s)
	c.recvIdx = append(c.recvIdx, nil)
}

// Beacons returns how many beacon boundaries have fired.
func (c *Coordinator) Beacons() uint64 { return c.beacons }

// BeaconInterval returns the effective beacon interval.
func (c *Coordinator) BeaconInterval() sim.Time { return c.interval }

// ATIMWindow returns the effective ATIM window (clamped below the interval).
func (c *Coordinator) ATIMWindow() sim.Time { return c.atim }

// StopAt returns the instant at or after which no beacon fires.
func (c *Coordinator) StopAt() sim.Time { return c.stopAt }

// ATIMCollisions returns how many advertisement receptions were lost to
// slot collisions (contention mode only).
func (c *Coordinator) ATIMCollisions() uint64 { return c.atimCollisions }

// Start schedules the first beacon at t=0 (i.e. immediately).
func (c *Coordinator) Start() {
	c.sched.After(0, c.beaconFn)
}

func (c *Coordinator) beacon() {
	now := c.sched.Now()
	if now >= c.stopAt {
		return
	}
	c.beacons++
	// Gather advertisements from every station, in deterministic order.
	c.anns = c.anns[:0]
	for si, s := range c.stations {
		for _, a := range s.BeaconStart(now) {
			t := taggedAnn{ann: a, sender: si}
			if c.p.ATIMContention {
				t.slot = c.rng.Intn(c.p.ATIMSlots)
			}
			c.anns = append(c.anns, t)
		}
	}
	c.nextBeacon = now + c.interval
	c.sched.After(c.atim, c.atimEndFn)
	c.sched.After(c.interval, c.beaconFn)
}

// atimEnd closes the ATIM window: resolve what each station decodes, report
// admission outcomes (contention mode), and let stations pick a power state.
func (c *Coordinator) atimEnd() {
	at := c.sched.Now()
	if cap(c.heard) < len(c.stations) {
		c.heard = make([][]Announcement, len(c.stations))
	}
	c.heard = c.heard[:len(c.stations)]
	// Who decodes each announcement: its sender's reach, walked once per
	// announcement in announcement order, so every receiver's list stays
	// in announcement order.
	for ri := range c.recvIdx {
		c.recvIdx[ri] = c.recvIdx[ri][:0]
	}
	for gi := range c.anns {
		c.reachAnn = gi
		c.ch.VisitNeighbors(c.stations[c.anns[gi].sender].Radio(), at, c.reachFn)
	}
	for ri, r := range c.stations {
		c.heard[ri] = c.heard[ri][:0]
		rr := r.Radio()
		receivable := c.recvIdx[ri]
		if c.p.ATIMContention {
			// Same-slot announcements collide at this receiver. The counts
			// are zeroed again below (only the touched slots), so slotCount
			// stays clean across receivers without a full clear.
			if len(c.slotCount) < c.p.ATIMSlots {
				c.slotCount = make([]int, c.p.ATIMSlots)
			}
			for _, gi := range receivable {
				c.slotCount[c.anns[gi].slot]++
			}
			kept := c.keptIdx[:0]
			for _, gi := range receivable {
				if c.slotCount[c.anns[gi].slot] == 1 {
					kept = append(kept, gi)
				} else {
					c.atimCollisions++
				}
			}
			for _, gi := range receivable {
				c.slotCount[c.anns[gi].slot] = 0
			}
			c.keptIdx = kept
			receivable = kept
		}
		myID := rr.ID()
		for _, gi := range receivable {
			t := &c.anns[gi]
			if t.ann.To == myID {
				t.dstDecoded = true
			}
			c.heard[ri] = append(c.heard[ri], t.ann)
		}
	}
	// Admission outcomes for senders (contention mode): a unicast
	// advertisement is admitted iff its destination decoded it;
	// broadcasts are always admitted (no ATIM-ACK in 802.11).
	if c.p.ATIMContention {
		if cap(c.admitted) < len(c.stations) {
			c.admitted = make([][]Announcement, len(c.stations))
		}
		c.admitted = c.admitted[:len(c.stations)]
		for si := range c.admitted {
			c.admitted[si] = c.admitted[si][:0]
		}
		for gi := range c.anns {
			t := &c.anns[gi]
			if t.ann.To == phy.Broadcast || t.dstDecoded {
				c.admitted[t.sender] = append(c.admitted[t.sender], t.ann)
			}
		}
		for si, s := range c.stations {
			s.ATIMOutcome(at, c.admitted[si])
		}
	}
	for ri, s := range c.stations {
		s.ATIMEnd(at, c.heard[ri], c.nextBeacon)
	}
}
