package sim_test

import (
	"fmt"
	"testing"

	"rcast/internal/experiments"
	"rcast/internal/sim"
)

// reducedSeed is the part of a derived seed the generator keeps: math/rand
// reduces a seed mod 2³¹−1, maps a negative remainder up and 0 to 89482311.
// Two streams are draw for draw the same exactly when these agree.
func reducedSeed(seed int64) int64 {
	const m = 1<<31 - 1
	seed %= m
	if seed < 0 {
		seed += m
	}
	if seed == 0 {
		seed = 89482311
	}
	return seed
}

// worldStreamNames lists every stream name a world of n nodes can create:
// the singletons, the per-node mobility, group-reference, MAC, DSR, AODV
// and per-receiver loss streams, and the per-link loss chains of the
// "loss" fault preset (one per directed pair).
func worldStreamNames(n int) []string {
	names := []string{"atim", "clocksync", "traffic", "fault/crash", "fault/battery"}
	for i := 0; i < n; i++ {
		for _, f := range []string{"mob/%d", "mob/group/%d", "mac/%d", "dsr/%d", "aodv/%d", "fault/loss/%d"} {
			names = append(names, fmt.Sprintf(f, i))
		}
		for j := 0; j < n; j++ {
			if j != i {
				names = append(names, fmt.Sprintf("fault/loss/%d-%d", i, j))
			}
		}
	}
	return names
}

// TestProfileStreamsDistinct pins the suites against the 31-bit seed
// collapse: within every world the paper and quick profiles run (their
// base seed × replications), no two stream names may reduce to the same
// generator seed. A world of 100 nodes with per-link loss chains has
// ~10,500 names, so a given seed collides with probability ~2.5%; this
// test says the committed profiles do not.
func TestProfileStreamsDistinct(t *testing.T) {
	for _, p := range []experiments.Profile{experiments.Paper(), experiments.Quick()} {
		names := worldStreamNames(p.Nodes)
		for rep := 0; rep < p.Reps; rep++ {
			seed := sim.ReplicationSeed(p.BaseSeed, rep)
			seen := make(map[int64]string, len(names))
			for _, name := range names {
				r := reducedSeed(sim.DeriveSeed(seed, name))
				if prev, dup := seen[r]; dup {
					t.Fatalf("%s profile, seed %d: streams %q and %q both reduce to generator seed %d",
						p.Name, seed, prev, name, r)
				}
				seen[r] = name
			}
		}
	}
}
