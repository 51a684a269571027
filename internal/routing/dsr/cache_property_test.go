package dsr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rcast/internal/phy"
	"rcast/internal/sim"
)

// TestCacheInvariantsProperty drives the cache with random operation
// sequences, in lockstep with the reference cache (cache_ref_test.go) under
// a random lifetime and with callbacks installed, and requires the two to
// agree on every observable after every step. It also checks structural
// invariants after every step:
//
//   - every cached route starts at the owner and has length >= 2;
//   - no route contains a repeated node;
//   - the number of routes never exceeds the capacity;
//   - after RemoveLink(a, b) no route crosses the link in either direction;
//   - Find returns a route ending at the requested destination.
func TestCacheInvariantsProperty(t *testing.T) {
	const owner = phy.NodeID(0)
	prop := func(seed int64, capacity, life uint8) bool {
		capN := int(capacity%16) + 2
		// 0 disables timeouts; 1–7 s expire entries, as steps are 1 s apart.
		p := newCachePair(t, owner, capN, sim.Time(life%8)*sim.Second, 9)
		c := p.got
		rng := rand.New(rand.NewSource(seed)) //nolint:gosec // test randomness
		for step := 0; step < 200; step++ {
			now := sim.Time(step) * sim.Second
			switch rng.Intn(4) {
			case 0, 1: // add a random (possibly invalid) route
				n := rng.Intn(6) + 1
				path := []phy.NodeID{owner}
				for i := 0; i < n; i++ {
					path = append(path, phy.NodeID(rng.Intn(10)))
				}
				p.add(now, path)
			case 2: // remove a random link
				p.removeLink(phy.NodeID(rng.Intn(10)), phy.NodeID(rng.Intn(10)))
			case 3: // lookup
				dst := phy.NodeID(rng.Intn(10))
				if r := c.Find(now, dst); r != nil {
					if r[len(r)-1] != dst || r[0] != owner {
						return false
					}
				}
				p.want.Find(now, dst)
			}
			p.check(now)
			// Invariants.
			routes := c.Routes(now)
			if len(routes) > capN {
				return false
			}
			for _, r := range routes {
				if len(r) < 2 || r[0] != owner || hasDuplicates(r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheRemoveLinkPostcondition checks the RemoveLink postcondition
// directly: immediately after removal no surviving route crosses the link.
func TestCacheRemoveLinkPostcondition(t *testing.T) {
	prop := func(seed int64) bool {
		const owner = phy.NodeID(0)
		c := NewCache(owner, 32, 0)
		rng := rand.New(rand.NewSource(seed)) //nolint:gosec // test randomness
		for i := 0; i < 30; i++ {
			n := rng.Intn(5) + 1
			p := []phy.NodeID{owner}
			for j := 0; j < n; j++ {
				p = append(p, phy.NodeID(rng.Intn(8)))
			}
			c.Add(0, p)
		}
		a, b := phy.NodeID(rng.Intn(8)), phy.NodeID(rng.Intn(8))
		c.RemoveLink(a, b)
		for _, r := range c.Routes(0) {
			for i := 0; i+1 < len(r); i++ {
				if (r[i] == a && r[i+1] == b) || (r[i] == b && r[i+1] == a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRouterSurvivesLinkChurn flaps random links under live traffic and
// requires the network to keep functioning without panics, duplicate
// deliveries, or lost accounting.
func TestRouterSurvivesLinkChurn(t *testing.T) {
	n := newFakeNet(t)
	const k = 8
	rs := n.line(k, DefaultConfig())
	// Extra chords so the graph usually stays connected.
	n.connect(0, 3)
	n.connect(2, 5)
	n.connect(4, 7)
	churn := sim.Stream(13, "churn")
	originated := 0
	for round := 0; round < 60; round++ {
		at := sim.Time(round) * 2 * sim.Second
		n.sched.RunUntil(at)
		// Flap one random chain link.
		a := phy.NodeID(churn.Intn(k - 1))
		if churn.Intn(2) == 0 {
			n.disconnect(a, a+1)
		} else {
			n.connect(a, a+1)
		}
		src := phy.NodeID(churn.Intn(k))
		dst := phy.NodeID(churn.Intn(k))
		if src != dst {
			rs[src].SendData(dst, 1, 256)
			originated++
		}
	}
	n.sched.RunUntil(500 * sim.Second)
	if len(n.delivered) == 0 {
		t.Fatal("nothing delivered under churn")
	}
	if len(n.delivered)+len(n.dropped) > originated {
		t.Fatalf("delivered %d + dropped %d > originated %d",
			len(n.delivered), len(n.dropped), originated)
	}
	// No duplicate end-to-end deliveries of the same (src, seq).
	seen := make(map[[2]uint64]bool)
	for _, p := range n.delivered {
		key := [2]uint64{uint64(p.Src), p.Seq}
		if seen[key] {
			t.Fatalf("duplicate delivery of %v/%d", p.Src, p.Seq)
		}
		seen[key] = true
	}
}
