// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used for sensor noise and workload jitter.
//
// The simulator cannot use math/rand's global source (seeded from wall
// time) because experiments must be bit-for-bit reproducible. We also want
// *splittable* streams: each subsystem (every sensor, every workload
// phase generator, every node) derives its own independent stream from a
// master seed, so adding a new consumer never perturbs the random numbers
// seen by existing ones.
//
// The core generator is SplitMix64 (Steele, Lea, Flood; OOPSLA 2014),
// which passes BigCrush and is trivially seedable from any 64-bit value.
package rng

import "math"

// Source is a deterministic pseudo-random stream. The zero value is a
// valid stream seeded with 0 (it still produces high-quality output
// because SplitMix64 mixes the counter, not the raw state).
type Source struct {
	state uint64
}

// New returns a stream seeded with seed.
func New(seed uint64) *Source { return &Source{state: seed} }

// At returns a stream seeded with seed as a value, for hot paths that
// draw from a derived stream and throw it away (e.g. tick-keyed sensor
// noise): no pointer literal, nothing for escape analysis to get wrong.
func At(seed uint64) Source { return Source{state: seed} }

// Split derives an independent child stream. The child's sequence does
// not overlap the parent's with overwhelming probability, and deriving a
// child does not disturb the parent's future output beyond consuming one
// value.
func (s *Source) Split() *Source {
	return &Source{state: s.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Mix derives the seed of stream number `stream` of a family keyed by
// seed, by running the SplitMix64 finalizer over the pair. Unlike an
// additive offset (seed + stream·stride), the derived seeds avalanche
// in both arguments: families with different master seeds never share
// a stream seed unless a full 64-bit mix collides (probability ~2⁻⁶⁴),
// whereas seed+stream·stride collides whenever two master seeds differ
// by a multiple of the stride.
func Mix(seed, stream uint64) uint64 {
	s := Source{state: seed + stream*0x9e3779b97f4a7c15}
	return s.Uint64()
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// normFloor is the smallest u1 Norm feeds to the logarithm.
const normFloor = 1e-300

// NormMax bounds the magnitude of every Norm value: Box-Muller's radius
// sqrt(-2·ln u1) is largest at Norm's clamp of u1, and the cosine
// factor is at most 1 (≈ 37.2). Floating-point rounding is monotone, so
// the computed |Norm()| never exceeds the computed NormMax. Consumers
// use it to decide a comparison without drawing.
var NormMax = math.Sqrt(-2 * math.Log(normFloor))

// Norm returns a normally distributed value with mean 0 and standard
// deviation 1, via the Box-Muller transform. |Norm()| ≤ NormMax.
func (s *Source) Norm() float64 {
	u1 := s.Float64()
	u2 := s.Float64()
	return boxMuller(u1, u2)
}

// boxMuller maps two uniform values in [0, 1) to one normal value.
func boxMuller(u1, u2 float64) float64 {
	// Avoid log(0) by nudging u1 away from zero.
	if u1 < normFloor {
		u1 = normFloor
	}
	return normRadiusAt(u1) * normCosAt(u2)
}

func normRadiusAt(u1 float64) float64 { return math.Sqrt(-2 * math.Log(u1)) }

func normCosAt(u2 float64) float64 { return math.Cos(2 * math.Pi * u2) }

// normBinBits sets the resolution of NormBounds: u1 and u2 each fall
// into one of normBins equal bins, found from their top normBinBits
// bits. normBins is even, so every u2 bin lies in one monotone half of
// the cosine.
const (
	normBinBits = 10
	normBins    = 1 << normBinBits
)

// normSlack widens every NormBounds bracket. The bracket's edges are
// products of table values computed exactly as Norm computes the draw
// at the bin edges; inside a bin, Norm's Log and Cos may round a few
// ulps past their values at the edges (at most about 1e-14 on a draw
// bounded by NormMax), and the slack absorbs that.
const normSlack = 0x1p-40

// normRadius[i] is Norm's radius sqrt(-2·ln u1) at u1 = i/normBins, and
// normCos[j] its cosine factor cos(2π·u2) at u2 = j/normBins, each
// computed by the same functions as Norm. normRadius[0] (u1 = 0) is
// unbounded and never read. Immutable after initialisation.
var normRadius, normCos = func() (r, c [normBins + 1]float64) {
	for i := 0; i <= normBins; i++ {
		r[i] = normRadiusAt(float64(i) / normBins)
		c[i] = normCosAt(float64(i) / normBins)
	}
	return r, c
}()

// NormBounds consumes exactly the two stream values Norm would and
// returns an interval [lo, hi] that contains the value Norm would have
// returned, without evaluating Box–Muller: the radius falls as u1 rises
// and the cosine is monotone within each u2 bin, so the product is
// bounded by the table values at the corners of the (u1, u2) bin
// (widened by normSlack for rounding). The interval is about
// 0.007 wide on average. In the lowest u1 bin the radius has no bound
// (and Norm clamps u1 there); NormBounds then returns
// [-NormMax, NormMax] and ok = false, and a caller that needs the value
// draws it with Norm from a copy of the stream taken before the call.
func (s *Source) NormBounds() (lo, hi float64, ok bool) {
	x1 := s.Uint64()
	x2 := s.Uint64()
	return normBounds(x1, x2)
}

// normBounds is NormBounds for the stream values x1 and x2, whose top
// 53 bits are Norm's u1 and u2 and whose top normBinBits bits are
// their bins.
func normBounds(x1, x2 uint64) (lo, hi float64, ok bool) {
	i := x1 >> (64 - normBinBits)
	j := x2 >> (64 - normBinBits)
	if i == 0 {
		return -NormMax, NormMax, false
	}
	// Index arithmetic instead of branches, which would mispredict on
	// random draws: h is 0 in the falling half of the cosine and 1 in
	// the rising half, and r·c, being bilinear, takes its extremes over
	// the bin at corners, where with r ≥ 0 a negative cosine pairs with
	// the larger radius normRadius[i] for the low end and the smaller
	// normRadius[i+1] for the high end, and a positive one the reverse.
	h := j >> (normBinBits - 1)
	clo, chi := normCos[j+1-h], normCos[j+h]
	lo = clo * normRadius[i+1-signBit(clo)]
	hi = chi * normRadius[i+signBit(chi)]
	return lo - normSlack, hi + normSlack, true
}

// signBit returns 1 for a negative x (and -0), 0 otherwise.
func signBit(x float64) uint64 { return math.Float64bits(x) >> 63 }
