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
	// Avoid log(0) by nudging u1 away from zero.
	u1 := s.Float64()
	if u1 < normFloor {
		u1 = normFloor
	}
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// NormRange returns a normal value with the given mean and standard
// deviation, clamped to [lo, hi]. Clamping (rather than redrawing) keeps
// the number of consumed stream values fixed per call, which preserves
// reproducibility when parameters change.
func (s *Source) NormRange(mean, stddev, lo, hi float64) float64 {
	v := mean + stddev*s.Norm()
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
