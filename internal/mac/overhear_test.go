package mac

import (
	"fmt"
	"testing"

	"rcast/internal/core"
	"rcast/internal/phy"
	"rcast/internal/sim"
)

// recordingPolicy advertises like Rcast, gives a fixed overhearing
// probability and counts how often the MAC asks for it.
type recordingPolicy struct {
	core.Rcast
	p     float64
	asked int
}

func (r *recordingPolicy) OverhearProbability(core.ListenContext) float64 {
	r.asked++
	return r.p
}

// TestOverhearingLevelTable pins the §3.2 listener rule as the MAC applies
// it to one advertisement, for every level and a certain-no, a random and
// a certain-yes probability: the verdict, the RNG draws it consumes and
// whether the policy is asked. Only a randomized advertisement asks the
// policy, and only a coin strictly between 0 and 1 draws. An unknown level
// is a standard ATIM, like LevelNone. Every coin reaches the lottery hook;
// a skipped advertisement and an addressed listener reach none.
func TestOverhearingLevelTable(t *testing.T) {
	const random = -1 // the verdict is the coin's
	tests := []struct {
		lvl   core.Level
		p     float64
		stay  int // 0 sleep, 1 stay, random
		draws int
		asked bool
	}{
		{core.LevelNone, 0, 0, 0, false},
		{core.LevelNone, 0.3, 0, 0, false},
		{core.LevelNone, 1, 0, 0, false},
		{core.LevelRandomized, 0, 0, 0, true},
		{core.LevelRandomized, 0.3, random, 1, true},
		{core.LevelRandomized, 1, 1, 0, true},
		{core.LevelUnconditional, 0, 1, 0, false},
		{core.LevelUnconditional, 0.3, 1, 0, false},
		{core.LevelUnconditional, 1, 1, 0, false},
		{core.Level(9), 0, 0, 0, false},
		{core.Level(9), 0.3, 0, 0, false},
		{core.Level(9), 1, 0, 0, false},
	}
	for _, tt := range tests {
		verdicts := map[bool]bool{}
		for seed := int64(1); seed <= 8; seed++ {
			name := fmt.Sprintf("%v/p=%v/seed=%d", tt.lvl, tt.p, seed)
			// n0 announces to n1; n2 is the non-addressed listener.
			r := newRig(t, 3, 100)
			pol := &recordingPolicy{p: tt.p}
			m := NewPSM(r.sched, r.ch, r.radios[2], r.meters[2], pol, sim.Stream(seed, "table"), DefaultParams(), r.recs[2])
			coins := 0
			m.SetLotteryOverride(func(_ sim.Time, _ phy.NodeID, _ Announcement, says bool) bool {
				coins++
				return says
			})
			twin := sim.Stream(seed, "table")
			want := tt.stay == 1
			if tt.stay == random {
				want = twin.Float64() < tt.p
			}

			got := m.shouldStayAwake(0, []Announcement{{From: 0, To: 1, Level: tt.lvl}})
			if got != want {
				t.Errorf("%s: stay = %v, want %v", name, got, want)
			}
			verdicts[got] = true
			if m.rng.Int63() != twin.Int63() {
				t.Errorf("%s: consumed other than %d draws", name, tt.draws)
			}
			if asked := pol.asked > 0; asked != tt.asked || pol.asked > 1 {
				t.Errorf("%s: policy asked %d times, want asked=%v", name, pol.asked, tt.asked)
			}
			wantCoins := 0
			if tt.lvl == core.LevelRandomized || tt.lvl == core.LevelUnconditional {
				wantCoins = 1
			}
			if coins != wantCoins {
				t.Errorf("%s: lottery hook saw %d coins, want %d", name, coins, wantCoins)
			}

			// Addressed, the listener stays awake without a coin.
			pol.asked, coins = 0, 0
			if !m.shouldStayAwake(0, []Announcement{{From: 0, To: 2, Level: tt.lvl}}) {
				t.Errorf("%s: addressed listener slept", name)
			}
			if pol.asked != 0 || coins != 0 || m.rng.Int63() != twin.Int63() {
				t.Errorf("%s: addressed listener asked %d, saw %d coins or drew", name, pol.asked, coins)
			}
		}
		if tt.stay == random && len(verdicts) != 2 {
			t.Errorf("%v/p=%v: the seeds never showed both verdicts", tt.lvl, tt.p)
		}
	}
}
