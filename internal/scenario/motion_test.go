package scenario

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"rcast/internal/fault"
	"rcast/internal/geom"
	"rcast/internal/mobility"
	"rcast/internal/sim"
)

// motionConfigs is one small config per mobility set-up newWorld builds —
// static, random waypoint, Gauss–Markov and group — each also under the
// partition preset, whose shifts ride on top of the model's own motion.
func motionConfigs(t *testing.T) map[string]Config {
	t.Helper()
	partition, err := fault.Preset("partition")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]Config{}
	for _, mob := range []string{"static", "waypoint", "gauss-markov", "group"} {
		for _, part := range []bool{false, true} {
			cfg := PaperDefaults()
			cfg.Nodes = 16
			cfg.Connections = 4
			cfg.Duration = 300 * sim.Second
			cfg.Pause = 10 * sim.Second
			if mob == "static" {
				cfg.Pause = cfg.Duration
			} else {
				cfg.Mobility = mob
			}
			name := mob
			if part {
				cfg.Faults = partition
				name += "+partition"
			}
			out[name] = cfg
		}
	}
	return out
}

// TestMotionBoundHolds checks the contract the channel's reach lists rest
// on: no radio ever moves faster than the motion bound newWorld declares.
// The lists settle verdicts from that bound without looking at positions,
// so an understated bound (a group member rides two trajectories at once)
// would silently change who hears whom.
func TestMotionBoundHolds(t *testing.T) {
	for name, cfg := range motionConfigs(t) {
		w, err := newWorld(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bound := w.ch.MotionBound()
		if math.IsInf(bound, 0) || math.IsNaN(bound) {
			t.Fatalf("%s: no finite motion bound declared (%v)", name, bound)
		}
		rng := rand.New(rand.NewSource(1))
		for _, r := range w.ch.Radios() {
			for k := 0; k < 400; k++ {
				t1 := sim.Time(rng.Int63n(int64(cfg.Duration)))
				// Log-uniform gaps from a microsecond to a minute.
				dt := sim.FromSeconds(math.Pow(10, -6+7.8*rng.Float64()))
				t2 := min(t1+dt, cfg.Duration)
				moved := r.Position(t1).DistanceTo(r.Position(t2))
				if limit := bound*(t2-t1).Seconds() + 1e-9; moved > limit {
					t.Fatalf("%s: %v moved %.9g m in [%v, %v], beyond the declared %v m/s (%.9g m)",
						name, r.ID(), moved, t1, t2, bound, limit)
				}
			}
		}
	}
}

// TestPositionQueryPatternInvariant checks that a trajectory does not
// depend on which instants it is asked about. The reach lists skip the
// position lookups of radios they can place without one, and Waypoint (as
// the group reference and member wander) extends its legs lazily from its
// own stream, so this is what keeps skipping them behaviour-neutral.
func TestPositionQueryPatternInvariant(t *testing.T) {
	const step = 250 * sim.Millisecond
	for name, cfg := range motionConfigs(t) {
		dense, err := newWorld(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sparse, err := newWorld(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Every radio at every step, in time order...
		seen := map[sim.Time][]geom.Point{}
		for at := sim.Time(0); at <= cfg.Duration; at += step {
			for _, r := range dense.ch.Radios() {
				seen[at] = append(seen[at], r.Position(at))
			}
		}
		// ...against a few instants, backwards, one radio at a time, with
		// still-interval queries at other instants in between.
		for i, r := range sparse.ch.Radios() {
			for at := cfg.Duration - sim.Time(i)*step; at >= 0; at -= 149 * step {
				mobility.StillInterval(r.Mobility(), at+sim.Time(i+1)*37*step)
				if got, want := r.Position(at), seen[at][i]; got != want {
					t.Fatalf("%s: %v at %v is %v queried sparsely, %v queried densely", name, r.ID(), at, got, want)
				}
				mobility.StillInterval(r.Mobility(), at/3)
			}
		}
	}
}

// TestStillIntervalsHold checks the contract the reach lists settle
// verdicts on: over a still interval a model reports, its position is
// bitwise constant — at both ends, at the instant asked about, and inside.
// Each check runs on a fresh world, whose trajectories are the same, so no
// earlier query can have shaped the answer.
func TestStillIntervalsHold(t *testing.T) {
	for name, cfg := range motionConfigs(t) {
		probe, err := newWorld(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := newWorld(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rng := rand.New(rand.NewSource(2))
		still := 0
		for i, r := range probe.ch.Radios() {
			m := ref.ch.Radios()[i].Mobility()
			for k := 0; k < 200; k++ {
				at := sim.Time(rng.Int63n(int64(cfg.Duration)))
				from, until := mobility.StillInterval(r.Mobility(), at)
				if !(from <= at && at < until) {
					t.Fatalf("%s: %v's still interval [%v, %v) misses %v", name, r.ID(), from, until, at)
				}
				if from < at || until > at+1 {
					still++
				}
				want := m.PositionAt(at)
				check := func(when sim.Time) {
					if got := m.PositionAt(when); got != want {
						t.Fatalf("%s: %v is at %v at %v but at %v at %v, inside its still interval [%v, %v)",
							name, r.ID(), got, when, want, at, from, until)
					}
				}
				check(from)
				check(until - 1)
				// Random instants inside, within a run's length of at.
				lo, hi := max(from, at-cfg.Duration), min(until, at+cfg.Duration)
				for n := 0; n < 20; n++ {
					check(lo + sim.Time(rng.Int63n(int64(hi-lo))))
				}
			}
		}
		if !strings.HasPrefix(name, "gauss-markov") && still == 0 {
			t.Fatalf("%s: no still interval reported", name)
		}
	}
}

// TestPausedPaperCellNeverRebuilds pins what the still intervals buy on
// the paper's cell: every node pauses for the first 600 s, so up to then
// the reach lists are built once and answer every query from d0 — no
// rebuild and no distance computed at a query.
func TestPausedPaperCellNeverRebuilds(t *testing.T) {
	w, err := newWorld(PaperDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if w.coord != nil {
		w.coord.Start()
	}
	w.sched.RunUntil(590 * sim.Second)
	st := w.ch.ReachStats()
	if st.Builds != 1 || st.Rebuilds != 0 || st.Exact != 0 || st.Walked != 0 || st.Settled == 0 {
		t.Fatalf("reach work over the paused phase: %+v; want one build, no rebuild, no walk, no exact check", st)
	}
}
