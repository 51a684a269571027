// Package propagation implements pluggable channel models deciding, per
// link and instant, whether a receiver can decode a transmitter. The disk
// model reproduces the simulator's historical behaviour exactly (two-ray
// ground with a hard decode radius, DESIGN.md §2); shadowing and fading
// layer randomness over the same d^-4 path loss.
//
// Determinism contract: every verdict is a pure function of (seed, link,
// instant, distance). Models draw nothing from shared RNG streams and keep
// no mutable state, so verdicts are identical regardless of query order,
// repetition, or which subsystem asks — the property record/replay and the
// spatial grid both rely on. Links are unordered: Decodable(a, b) and
// Decodable(b, a) agree at every instant, preserving the disk channel's
// reciprocity (carrier sense and neighbor counts stay symmetric).
//
// MaxRange bounds the distance at which any verdict can be true. The PHY
// grid (internal/phy/grid.go) sizes its candidate queries from this bound,
// so a model is free to extend links beyond the nominal radius — a
// constructive shadowing or fading draw — as long as MaxRange covers the
// extension. Both random models therefore clamp their dB draws: the
// truncated tail mass is negligible (see ShadowClampSigmas, FadingMaxGain)
// and in exchange the grid keeps a finite, correct reach.
package propagation

import (
	"fmt"
	"math"

	"rcast/internal/phy"
	"rcast/internal/sim"
)

// Model is a propagation model: a deterministic per-(link, instant)
// decodability oracle with a hard reach bound. It satisfies
// phy.Propagation; Name returns the canonical model name used by
// scenario.Config.Channel.
type Model interface {
	phy.Propagation
	Name() string
}

// Names lists the model names Parse accepts, in presentation order.
func Names() []string { return []string{"disk", "shadowing", "fading"} }

// ShadowClampSigmas bounds shadowing draws to ±4σ. The clamp turns the
// log-normal's unbounded tail into a finite MaxRange for the grid; the
// truncated mass is ~6e-5 of draws.
const ShadowClampSigmas = 4.0

// FadingMaxGain caps the Rayleigh power gain (unit-mean exponential) at 9,
// truncating P(g>9) = e^-9 ≈ 1.2e-4 of draws so MaxRange stays finite
// (9^(1/4) ≈ 1.73× the nominal radius).
const FadingMaxGain = 9.0

// pathLossExponent is the two-ray ground falloff the nominal radius is
// calibrated against: received power ∝ d^-4, so a gain of x dB stretches
// the decode radius by 10^(x/40).
const pathLossExponent = 4.0

// Parse resolves a model by name for the given nominal radius and seed.
// "" and "disk" yield the exact-disk model; sigmaDB parameterizes
// "shadowing" (0 degenerates to the disk) and is ignored otherwise.
func Parse(name string, rangeM, sigmaDB float64, seed int64) (Model, error) {
	switch name {
	case "", "disk":
		return Disk{RangeM: rangeM}, nil
	case "shadowing":
		return NewShadowing(rangeM, sigmaDB, seed), nil
	case "fading":
		return NewFading(rangeM, seed), nil
	default:
		return nil, fmt.Errorf("propagation: unknown model %q (want one of %v)", name, Names())
	}
}

// Disk is deterministic disk propagation: decodable iff the distance is
// within the nominal radius. Byte-for-byte the simulator's historical
// channel (phy keeps an inlined fast path for the nil-model case; this
// type exists so the model plumbing can be exercised uniformly).
type Disk struct {
	RangeM float64
}

var (
	_ Model          = Disk{}
	_ phy.LinkRanger = Disk{}
)

// Name implements Model.
func (Disk) Name() string { return "disk" }

// MaxRange implements phy.Propagation.
func (d Disk) MaxRange() float64 { return d.RangeM }

// Decodable implements phy.Propagation.
func (d Disk) Decodable(_ sim.Time, _, _ phy.NodeID, dist float64) bool {
	return dist <= d.RangeM
}

// LinkRange implements phy.LinkRanger: every link's radius is RangeM.
func (d Disk) LinkRange(_, _ phy.NodeID) float64 { return d.RangeM }

// Shadowing is log-normal shadowing over the d^-4 path loss: each
// unordered link gets one Gaussian gain X ~ N(0, σ²) dB, fixed for the
// whole run (shadowing models obstruction geometry, which changes with
// position, not time), stretching that link's decode radius to
// R·10^(X/40). σ = 0 reproduces the disk exactly: the gain factor is
// 10^0 = 1 and the verdict is the same dist <= R comparison.
type Shadowing struct {
	rangeM   float64
	sigmaDB  float64
	seed     int64
	maxRange float64
}

var (
	_ Model          = (*Shadowing)(nil)
	_ phy.LinkRanger = (*Shadowing)(nil)
)

// NewShadowing creates a shadowing model with std-dev sigmaDB (clamped
// below at 0) around nominal radius rangeM. The seed must come from a
// dedicated stream name (see sim.DeriveSeed) so channel randomness never
// aliases mobility or MAC randomness.
func NewShadowing(rangeM, sigmaDB float64, seed int64) *Shadowing {
	if sigmaDB < 0 {
		sigmaDB = 0
	}
	return &Shadowing{
		rangeM:   rangeM,
		sigmaDB:  sigmaDB,
		seed:     seed,
		maxRange: rangeM * dbToRangeFactor(ShadowClampSigmas*sigmaDB),
	}
}

// Name implements Model.
func (*Shadowing) Name() string { return "shadowing" }

// MaxRange implements phy.Propagation.
func (s *Shadowing) MaxRange() float64 { return s.maxRange }

// Decodable implements phy.Propagation: the link decodes within its
// radius. The radius is re-derived on every call rather than cached —
// statelessness is what makes verdicts order-independent — and that costs
// a Box–Muller draw (a Log, a Sqrt and a Cos) plus a Pow. The channel
// does not pay it per query: it asks LinkRange once per link and run.
func (s *Shadowing) Decodable(_ sim.Time, a, b phy.NodeID, dist float64) bool {
	return dist <= s.LinkRange(a, b)
}

// LinkRange implements phy.LinkRanger: the link's decode radius,
// R·10^(X/40) for its clamped gain X, and exactly R at σ = 0.
func (s *Shadowing) LinkRange(a, b phy.NodeID) float64 {
	if s.sigmaDB == 0 {
		return s.rangeM
	}
	return s.rangeM * dbToRangeFactor(s.gainDB(a, b))
}

// GainDB exposes a link's shadowing gain in dB (testing and diagnostics).
func (s *Shadowing) GainDB(a, b phy.NodeID) float64 {
	if s.sigmaDB == 0 {
		return 0
	}
	return s.gainDB(a, b)
}

func (s *Shadowing) gainDB(a, b phy.NodeID) float64 {
	g := gaussian(linkHash(s.seed, a, b, 0))
	x := g * s.sigmaDB
	limit := ShadowClampSigmas * s.sigmaDB
	return math.Max(-limit, math.Min(limit, x))
}

// Fading is Rayleigh fading over the d^-4 path loss: each (unordered
// link, instant) draws an independent unit-mean exponential power gain g
// (Rayleigh amplitude squared), stretching the decode radius to R·g^(1/4)
// for that instant. Successive instants fade independently — a block-
// fading abstraction with a one-microsecond block, chosen for determinism
// over channel coherence (DESIGN.md §15).
type Fading struct {
	rangeM   float64
	seed     int64
	maxRange float64
}

var _ Model = (*Fading)(nil)

// NewFading creates a Rayleigh fading model around nominal radius rangeM.
func NewFading(rangeM float64, seed int64) *Fading {
	return &Fading{
		rangeM:   rangeM,
		seed:     seed,
		maxRange: rangeM * math.Pow(FadingMaxGain, 1/pathLossExponent),
	}
}

// Name implements Model.
func (*Fading) Name() string { return "fading" }

// MaxRange implements phy.Propagation.
func (f *Fading) MaxRange() float64 { return f.maxRange }

// verdictMargin is the relative gap between a link's gain and the gain its
// distance needs inside which Fading.Decodable defers to the reference
// expression. Rounding on either side of that comparison stays below
// 1e-14 relative, so outside the margin the cheap comparisons and the
// reference always agree.
const verdictMargin = 1e-9

// Decodable implements phy.Propagation. The verdict is exactly that of
// reference, without its math.Pow: the link decodes iff its capped gain
// g = min(-ln(1-u), FadingMaxGain) reaches q = (dist/R)^4, and for
// 0 < u < 1 the logarithm is bracketed by two bounds that need no
// transcendental call,
//
//	2u/(2-u) < -ln(1-u) < u/√(1-u),
//
// so most draws are settled by a few multiplies. A draw the bounds do not
// settle takes the logarithm, and one whose gain is within verdictMargin
// of q (about one in 10^9) takes the reference expression itself.
func (f *Fading) Decodable(now sim.Time, a, b phy.NodeID, dist float64) bool {
	return f.verdict(uniform(linkHash(f.seed, a, b, uint64(now))), dist)
}

// verdict is Decodable for the link's uniform draw u in [0, 1).
func (f *Fading) verdict(u, dist float64) bool {
	// The bracket needs u > 0, and the margin argument a positive q; the
	// degenerate draw and distances keep the reference.
	if !(u > 0 && dist > 0 && f.rangeM > 0) {
		return f.reference(u, dist)
	}
	x := dist / f.rangeM
	q := x * x
	q *= q
	hi, lo := q*(1+verdictMargin), q*(1-verdictMargin)
	s := 1 - u // exact: u has 53-bit resolution
	if 2*u >= hi*(1+s) {
		return true // the lower bound clears q, and is below the cap
	}
	if u*u < lo*lo*s {
		return false // the upper bound falls short of q
	}
	g := min(-math.Log(s), FadingMaxGain)
	if g >= hi {
		return true
	}
	if g < lo {
		return false
	}
	return f.reference(u, dist)
}

// reference is the defining fading verdict for uniform draw u: an
// inverse-CDF exponential gain, capped at FadingMaxGain (1-u is in (0, 1],
// so the log is finite), stretching the decode radius by its quarter
// power.
func (f *Fading) reference(u, dist float64) bool {
	g := -math.Log(1 - u)
	if g > FadingMaxGain {
		g = FadingMaxGain
	}
	return dist <= f.rangeM*math.Pow(g, 1/pathLossExponent)
}

// dbToRangeFactor converts a power gain in dB to the factor it stretches
// the decode radius by under the d^-4 path loss.
func dbToRangeFactor(db float64) float64 {
	return math.Pow(10, db/(10*pathLossExponent))
}

// linkHash mixes (seed, unordered link, instant) into 64 uniform bits via
// splitmix64 finalizers. Ordering the pair makes every model reciprocal;
// the extra round after folding in the instant keeps per-instant draws
// (fading) decorrelated across adjacent microseconds.
func linkHash(seed int64, a, b phy.NodeID, instant uint64) uint64 {
	lo, hi := uint64(uint32(a)), uint64(uint32(b))
	if lo > hi {
		lo, hi = hi, lo
	}
	z := uint64(seed)
	z = mix64(z ^ lo<<32 ^ hi)
	z = mix64(z ^ instant)
	return z
}

// mix64 is the splitmix64 finalizer (same constants as sim.ReplicationSeed).
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// uniform maps 64 hash bits to [0, 1) with 53-bit resolution.
func uniform(z uint64) float64 {
	return float64(z>>11) / (1 << 53)
}

// gaussian maps 64 hash bits to one standard normal draw via Box–Muller,
// deriving the second uniform by re-mixing the first hash so one link
// identity yields one deterministic gaussian.
func gaussian(z uint64) float64 {
	u1 := uniform(z)
	u2 := uniform(mix64(z))
	if u1 <= 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
