package propagation

import (
	"math"
	"math/rand"
	"testing"

	"rcast/internal/phy"
	"rcast/internal/sim"
)

func TestParse(t *testing.T) {
	for _, name := range Names() {
		m, err := Parse(name, 250, 4, 7)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("Parse(%q).Name() = %q", name, m.Name())
		}
	}
	if m, err := Parse("", 250, 4, 7); err != nil || m.Name() != "disk" {
		t.Errorf("Parse(\"\") = %v, %v; want disk", m, err)
	}
	if _, err := Parse("nakagami", 250, 4, 7); err == nil {
		t.Error("Parse of unknown model did not fail")
	}
}

func TestDiskExact(t *testing.T) {
	d := Disk{RangeM: 250}
	if !d.Decodable(0, 1, 2, 250) {
		t.Error("disk rejects dist == RangeM")
	}
	if d.Decodable(0, 1, 2, math.Nextafter(250, 251)) {
		t.Error("disk accepts dist just past RangeM")
	}
	if d.MaxRange() != 250 {
		t.Errorf("disk MaxRange = %v", d.MaxRange())
	}
}

// TestZeroSigmaShadowingIsDisk pins the metamorphic identity the golden
// traces rely on: σ=0 shadowing must be the exact dist <= R comparison,
// bit-for-bit, including the boundary.
func TestZeroSigmaShadowingIsDisk(t *testing.T) {
	s := NewShadowing(250, 0, 99)
	d := Disk{RangeM: 250}
	if s.MaxRange() != d.MaxRange() {
		t.Fatalf("σ=0 MaxRange %v != disk %v", s.MaxRange(), d.MaxRange())
	}
	for _, dist := range []float64{0, 1, 249.999, 250, math.Nextafter(250, 251), 300} {
		if s.Decodable(5, 1, 2, dist) != d.Decodable(5, 1, 2, dist) {
			t.Errorf("σ=0 shadowing diverges from disk at dist %v", dist)
		}
	}
	if g := s.GainDB(1, 2); g != 0 {
		t.Errorf("σ=0 GainDB = %v", g)
	}
}

// models returns one of each under test with a common nominal radius.
func models(t *testing.T) []Model {
	t.Helper()
	var ms []Model
	for _, name := range Names() {
		m, err := Parse(name, 250, 6, 42)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// TestVerdictDeterminismAndSymmetry is the core contract: verdicts are
// pure functions of (seed, unordered link, instant, dist) — identical on
// repetition and under link reversal.
func TestVerdictDeterminismAndSymmetry(t *testing.T) {
	for _, m := range models(t) {
		for a := phy.NodeID(0); a < 8; a++ {
			for b := a + 1; b < 8; b++ {
				for _, now := range []sim.Time{0, 1, 999_999, 7_500_000} {
					for _, dist := range []float64{10, 150, 249, 260, 350, 430} {
						v1 := m.Decodable(now, a, b, dist)
						v2 := m.Decodable(now, a, b, dist)
						v3 := m.Decodable(now, b, a, dist)
						if v1 != v2 {
							t.Fatalf("%s: verdict changed on repeat (%d,%d,%d,%v)", m.Name(), a, b, now, dist)
						}
						if v1 != v3 {
							t.Fatalf("%s: verdict asymmetric (%d,%d,%d,%v)", m.Name(), a, b, now, dist)
						}
					}
				}
			}
		}
	}
}

// TestMaxRangeBounds checks the grid invariant: no verdict is true beyond
// MaxRange, and MaxRange is not absurdly loose (some verdict is true past
// the nominal radius for the random models, so the slack is being used).
func TestMaxRangeBounds(t *testing.T) {
	for _, m := range models(t) {
		mr := m.MaxRange()
		if mr < 250 {
			t.Fatalf("%s: MaxRange %v below nominal radius", m.Name(), mr)
		}
		beyond := math.Nextafter(mr, 2*mr)
		extended := false
		for a := phy.NodeID(0); a < 40; a++ {
			for b := a + 1; b < 40; b++ {
				for _, now := range []sim.Time{0, 123_456, 1_000_000} {
					if m.Decodable(now, a, b, beyond) {
						t.Fatalf("%s: decodable at %v beyond MaxRange %v", m.Name(), beyond, mr)
					}
					if m.Decodable(now, a, b, 251) {
						extended = true
					}
				}
			}
		}
		if m.Name() != "disk" && !extended {
			t.Errorf("%s: no link ever decodes past the nominal radius; constructive draws missing", m.Name())
		}
		if m.Name() == "disk" && extended {
			t.Error("disk decoded past its radius")
		}
	}
}

// TestShadowingInstantInvariant: shadowing gains model geometry, not time —
// the verdict for a link must not depend on the instant.
func TestShadowingInstantInvariant(t *testing.T) {
	s := NewShadowing(250, 8, 17)
	for a := phy.NodeID(0); a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			ref := s.Decodable(0, a, b, 270)
			for _, now := range []sim.Time{1, 50_000, 999_999_999} {
				if s.Decodable(now, a, b, 270) != ref {
					t.Fatalf("shadowing verdict for (%d,%d) changed with time", a, b)
				}
			}
		}
	}
}

// TestFadingVariesWithInstant: fading must actually fade — adjacent
// instants should disagree for some borderline distance.
func TestFadingVariesWithInstant(t *testing.T) {
	f := NewFading(250, 17)
	varies := false
	for now := sim.Time(0); now < 200 && !varies; now++ {
		if f.Decodable(now, 1, 2, 250) != f.Decodable(now+1, 1, 2, 250) {
			varies = true
		}
	}
	if !varies {
		t.Error("fading verdict constant across 200 adjacent instants at the nominal radius")
	}
}

// TestShadowingGainDistribution sanity-checks the hashed Box–Muller draws:
// across many links the gains should be near N(0, σ²) and clamped.
func TestShadowingGainDistribution(t *testing.T) {
	const sigma = 6.0
	s := NewShadowing(250, sigma, 4242)
	var sum, sumSq float64
	n := 0
	limit := ShadowClampSigmas * sigma
	for a := phy.NodeID(0); a < 100; a++ {
		for b := a + 1; b < 100; b++ {
			g := s.GainDB(a, b)
			if math.Abs(g) > limit {
				t.Fatalf("gain %v outside clamp ±%v", g, limit)
			}
			sum += g
			sumSq += g * g
			n++
		}
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.5 {
		t.Errorf("gain mean %v, want ~0", mean)
	}
	if math.Abs(std-sigma) > 0.5 {
		t.Errorf("gain std %v, want ~%v", std, sigma)
	}
}

// TestFadingGainDistribution checks the capped exponential: unit mean
// (slightly under, from the cap) and monotone tail.
func TestFadingGainDistribution(t *testing.T) {
	f := NewFading(250, 4242)
	var decodes int
	const trials = 20000
	// At dist = R the verdict is g >= 1, so the decode rate estimates
	// P(exp(1) >= 1) = e^-1 ≈ 0.368.
	for i := 0; i < trials; i++ {
		if f.Decodable(sim.Time(i), 3, 4, 250) {
			decodes++
		}
	}
	got := float64(decodes) / trials
	want := math.Exp(-1)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("decode rate at nominal radius %v, want ~%v", got, want)
	}
}

// checkVerdict fails t unless the fast fading verdict equals the
// reference expression for draw u at dist.
func checkVerdict(t testing.TB, f *Fading, u, dist float64) {
	t.Helper()
	if got, want := f.verdict(u, dist), f.reference(u, dist); got != want {
		t.Fatalf("R=%v u=%v dist=%v: verdict %v, reference %v", f.rangeM, u, dist, got, want)
	}
}

// TestFadingVerdictMatchesReference pins the pow-free fading verdict to
// the defining expression bit for bit: on hashed draws over the whole
// reach, at each draw's exact boundary distance and its floating-point
// neighbours (where only the fallback can decide), just inside and outside
// the deferral margin, and on the degenerate draws and distances.
func TestFadingVerdictMatchesReference(t *testing.T) {
	for _, r := range []float64{250, 1, 1e-3, 7.3e5} {
		f := NewFading(r, 5)
		for i := uint64(0); i < 200_000; i++ {
			u := uniform(mix64(i))
			dist := f.MaxRange() * 1.05 * uniform(mix64(^i))
			checkVerdict(t, f, u, dist)
			g := min(-math.Log(1-u), FadingMaxGain)
			edge := r * math.Pow(g, 1/pathLossExponent)
			for _, d := range []float64{
				edge, math.Nextafter(edge, 0), math.Nextafter(edge, math.Inf(1)),
				edge * (1 - verdictMargin/4), edge * (1 + verdictMargin/4),
				edge * (1 - verdictMargin), edge * (1 + verdictMargin),
			} {
				checkVerdict(t, f, u, d)
			}
		}
		top := 1 - 1.0/(1<<53)
		for _, u := range []float64{0, 1.0 / (1 << 53), 0.5, 1 - math.Exp(-FadingMaxGain), top} {
			for _, d := range []float64{0, math.SmallestNonzeroFloat64, 1e-160, r, f.MaxRange(),
				math.Nextafter(f.MaxRange(), math.Inf(1)), 1e300, math.Inf(1), math.NaN(), -1} {
				checkVerdict(t, f, u, d)
			}
		}
	}
	for _, r := range []float64{0, -250, math.Inf(1)} {
		f := NewFading(r, 5)
		for _, u := range []float64{0, 0.3, 0.99} {
			for _, d := range []float64{0, 1, 250, math.Inf(1)} {
				checkVerdict(t, f, u, d)
			}
		}
	}
}

// FuzzFadingVerdict searches for any (radius, draw, distance) on which the
// pow-free fading verdict and the reference expression disagree.
func FuzzFadingVerdict(f *testing.F) {
	f.Add(250.0, uint64(1)<<62, 250.0)
	f.Add(250.0, uint64(0), 0.0)
	f.Add(1e-3, ^uint64(0), 1.7e-3)
	f.Fuzz(func(t *testing.T, r float64, bits uint64, dist float64) {
		checkVerdict(t, NewFading(r, 0), uniform(bits), dist)
	})
}

// BenchmarkFadingDecodable prices one fading verdict over a spread of
// distances within the reach the PHY grid queries.
func BenchmarkFadingDecodable(b *testing.B) {
	f := NewFading(250, 9)
	dists := make([]float64, 256)
	for i := range dists {
		dists[i] = f.MaxRange() * uniform(mix64(uint64(i)))
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		if f.Decodable(sim.Time(i), 1, 2, dists[i&255]) {
			n++
		}
	}
	sinkCount = n
}

var sinkCount int

// TestSeedIndependence: different seeds must give different channels.
func TestSeedIndependence(t *testing.T) {
	s1 := NewShadowing(250, 6, 1)
	s2 := NewShadowing(250, 6, 2)
	diff := 0
	for a := phy.NodeID(0); a < 30; a++ {
		for b := a + 1; b < 30; b++ {
			if s1.GainDB(a, b) != s2.GainDB(a, b) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Error("shadowing gains identical across seeds")
	}
}

func TestNegativeSigmaClamped(t *testing.T) {
	s := NewShadowing(250, -3, 1)
	if s.MaxRange() != 250 {
		t.Errorf("negative sigma MaxRange = %v, want 250", s.MaxRange())
	}
	if !s.Decodable(0, 1, 2, 250) || s.Decodable(0, 1, 2, 250.1) {
		t.Error("negative sigma did not degenerate to disk")
	}
}

// TestLinkRangeMatchesDecodable pins the phy.LinkRanger contract the
// channel settles shadowing verdicts by: for random links and instants,
// Decodable at the link's radius and within three ulps either side of it
// is exactly dist <= LinkRange, the radius is symmetric and within
// MaxRange, and σ = 0 gives the nominal radius itself.
func TestLinkRangeMatchesDecodable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, sigma := range []float64{0, 4, 8, 12} {
		s := NewShadowing(250, sigma, rng.Int63())
		models := []Model{s}
		if sigma == 0 {
			models = append(models, Disk{RangeM: 250})
		}
		for _, m := range models {
			lr := m.(phy.LinkRanger)
			for range 2000 {
				a, b := phy.NodeID(rng.Intn(500)), phy.NodeID(rng.Intn(500))
				r := lr.LinkRange(a, b)
				if r != lr.LinkRange(b, a) || !(r > 0 && r <= m.MaxRange()) {
					t.Fatalf("%s σ=%v: LinkRange(%d, %d) = %v, reverse %v, MaxRange %v",
						m.Name(), sigma, a, b, r, lr.LinkRange(b, a), m.MaxRange())
				}
				if sigma == 0 && r != 250 {
					t.Fatalf("%s σ=0: LinkRange(%d, %d) = %v, want 250", m.Name(), a, b, r)
				}
				now := sim.Time(rng.Int63n(int64(3600 * sim.Second)))
				up, down := r, r
				for range 4 {
					for _, dist := range []float64{up, down} {
						if got := m.Decodable(now, a, b, dist); got != (dist <= r) {
							t.Fatalf("%s σ=%v: Decodable(%d, %d) at %v = %v, LinkRange %v",
								m.Name(), sigma, a, b, dist, got, r)
						}
					}
					up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
				}
			}
		}
	}
}
