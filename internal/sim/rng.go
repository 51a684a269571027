package sim

import (
	"hash/fnv"
	"math/rand"
	"strconv"
)

// DeriveSeed deterministically derives a sub-seed from a base seed and a
// stream name. Every stochastic component in the simulator draws from its
// own named stream so that adding randomness to one subsystem never perturbs
// another — a prerequisite for meaningful A/B comparisons between schemes.
func DeriveSeed(base int64, name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	_, _ = h.Write([]byte(strconv.FormatInt(base, 16)))
	return int64(h.Sum64()) //nolint:gosec // deliberate wraparound
}

// Stream returns a new pseudo-random stream for the given base seed and
// name. Its draws are exactly those of a math/rand source seeded with
// DeriveSeed(base, name), only built faster: the stream holds no
// generator state until its 274th draw (see deferred), and most streams
// never get that far.
//
// Streams with distinct names are independent only up to a 31-bit seed:
// the generator keeps just DeriveSeed's value mod 2³¹−1, so two names
// collide — draw for draw the same stream — with probability 2⁻³¹ per
// pair (DESIGN.md §14, "Seeding without divisions").
func Stream(base int64, name string) *rand.Rand {
	d := new(deferred)
	d.Seed(DeriveSeed(base, name))
	return rand.New(d)
}

// Bernoulli draws a coin that comes up true with probability p. A certain
// outcome (p ≥ 1 or p ≤ 0) draws nothing, so a stream's later draws do not
// depend on how many certain coins came before; otherwise it consumes one
// Float64. Every overhearing and gossip coin is drawn here.
func Bernoulli(rng *rand.Rand, p float64) bool {
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	return rng.Float64() < p
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Mersenne prime 2³¹−1
)

// source is math/rand's generator, reimplemented so that seeding is fast:
// the additive lagged Fibonacci generator x[n] = x[n−607] + x[n−273] over
// 64-bit words, with math/rand's Int63/Uint64 step and its seeding rule.
// Go's compatibility promise freezes both, and TestStreamMatchesMathRand
// holds this copy to math/rand's own source draw for draw.
//
// math/rand seeds by running x ← 48271·x mod (2³¹−1) 1,841 times, one
// chained Schrage division per step. The k-th value is simply
// 48271ᵏ·seed mod (2³¹−1), so Seed multiplies the reduced seed by
// precomputed powers (seedPow) and folds each product mod the Mersenne
// prime. The 1,821 products are independent of one another, and no
// division remains.
type source struct {
	tap, feed int
	vec       [rngLen]int64
}

// seedPow[i] holds the three multipliers 48271ᵏ mod (2³¹−1) that seed
// state slot i: k = 21+3i, 22+3i and 23+3i, after math/rand's 20 warm-up
// steps. They are the seeding sequence of seed 1. Each fits 31 bits;
// 32-bit entries halve the table to 7.3 KB, and first-touch page faults
// on it are most of its cost at package init.
var seedPow = func() (p [rngLen][3]uint32) {
	x := uint64(1)
	for range 20 {
		x = mulMod(x, 48271)
	}
	for i := range p {
		for j := range p[i] {
			x = mulMod(x, 48271)
			p[i][j] = uint32(x)
		}
	}
	return p
}()

// mulMod returns a·x mod (2³¹−1) for a, x in [1, 2³¹−2]. The product is
// below 2⁶², and one Mersenne fold leaves a value in [1, 2·(2³¹−1)) that
// is congruent to it and never 2³¹−1 itself (the modulus is prime);
// min(r, r−M) then subtracts M exactly when r > M, without a branch.
func mulMod(a, x uint64) uint64 {
	p := a * x
	r := p&int32max + p>>31
	return min(r, r-int32max)
}

// reduceSeed reduces a seed as math/rand's rngSource.Seed does: mod
// 2³¹−1, a negative remainder plus 2³¹−1, and 0 becomes 89482311. The
// result is in [1, 2³¹−2] and reduces to itself.
func reduceSeed(seed int64) uint64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// seedSlot returns state slot i as seeded from the reduced seed x: the
// seeding values 21+3i..23+3i packed as v₁<<40 ^ v₂<<20 ^ v₃, XORed with
// math/rand's seeding table.
func seedSlot(i int, x uint64) int64 {
	p := &seedPow[i]
	u := mulMod(uint64(p[0]), x)<<40 ^ mulMod(uint64(p[1]), x)<<20 ^ mulMod(uint64(p[2]), x)
	return int64(u) ^ rngCooked[i] //nolint:gosec // bit pattern
}

// Seed sets the state exactly as math/rand's rngSource.Seed does.
func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	x := reduceSeed(seed)
	for i := range s.vec {
		s.vec[i] = seedSlot(i, x)
	}
}

// Uint64 advances the generator one step, as math/rand does.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x) //nolint:gosec // bit pattern
}

// Int63 returns the next step's low 63 bits.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask) //nolint:gosec // masked to 63 bits
}

// deferred is a source that holds no state until it must. Step k of the
// generator (k = 1, 2, …) adds slot 607−k (the tap) into slot 334−k (the
// feed) and returns the sum. The first slot a step writes, 333, is read
// as a tap first by step 274, so each of the first rngTap steps reads
// only seeded slots: step k is seedSlot(334−k) + seedSlot(607−k), six
// products and no state. Step 274 seeds a full source, replays the
// rngTap steps into it and goes on from there. Seed returns to the
// deferred phase.
type deferred struct {
	s *source // nil until step rngTap+1
	x uint64  // the reduced seed
	n int     // steps taken while s is nil
}

// Seed restarts the stream from seed, without state.
func (d *deferred) Seed(seed int64) {
	d.s, d.x, d.n = nil, reduceSeed(seed), 0
}

// Uint64 advances the generator one step.
func (d *deferred) Uint64() uint64 {
	if s := d.s; s != nil {
		return s.Uint64()
	}
	return d.step()
}

// Int63 returns the next step's low 63 bits.
func (d *deferred) Int63() int64 {
	if s := d.s; s != nil {
		return s.Int63()
	}
	return int64(d.step() & rngMask) //nolint:gosec // masked to 63 bits
}

// step takes a step while d has no state: directly from the seed up to
// step rngTap, and by materializing the source at the step after.
//
//go:noinline
func (d *deferred) step() uint64 {
	if d.n < rngTap {
		d.n++
		k := d.n
		return uint64(seedSlot(rngLen-rngTap-k, d.x) + seedSlot(rngLen-k, d.x)) //nolint:gosec // bit pattern
	}
	s := new(source)
	s.Seed(int64(d.x)) //nolint:gosec // d.x < 2³¹ reduces to itself
	for range rngTap {
		s.Uint64()
	}
	d.s = s
	return s.Uint64()
}

// ReplicationSeed derives the seed for replication rep of a batch rooted
// at base. Replication 0 runs on the base seed itself, so a single
// replication is exactly Run(cfg); later replications mix (base, rep)
// through a splitmix64 finalizer. Plain base+rep derivation would make
// adjacent base seeds share replication seeds (base 1 rep 1 == base 2
// rep 0), silently correlating experiment rows; the mixed seeds are
// spread over the whole 64-bit space instead.
func ReplicationSeed(base int64, rep int) int64 {
	if rep == 0 {
		return base
	}
	z := uint64(base) + uint64(rep)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31)) //nolint:gosec // deliberate wraparound
}
