// Package rng provides deterministic, splittable pseudo-random number
// generation for reproducible parallel simulation.
//
// The evolutionary game dynamics framework runs the same logical simulation
// on one rank or on thousands; for validation the trajectory must not depend
// on the rank count. rng therefore offers two layers:
//
//   - Source: a xoshiro256** generator seeded through SplitMix64, the basic
//     high-quality stream.
//   - Splitting: any stream can derive an arbitrary number of statistically
//     independent child streams keyed by integers (rank, generation, SSet
//     index, ...). Derivation is pure: the same (seed, keys...) always yields
//     the same stream, no matter which rank asks for it.
package rng

import "math/bits"

// Source is a xoshiro256** pseudo-random generator. The zero value is not a
// valid generator; construct one with New or Derive.
type Source struct {
	s0, s1, s2, s3 uint64
}

// golden is the SplitMix64 increment (2^64/phi, odd).
const golden = 0x9E3779B97F4A7C15

// splitmix64 advances *x by the SplitMix64 step and returns the next output.
// It is used both for seeding xoshiro state and for key mixing in Derive.
func splitmix64(x *uint64) uint64 {
	*x += golden
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// mix64 hashes a single value through the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed via SplitMix64, as recommended by
// the xoshiro authors. Any seed, including 0, is valid.
func New(seed uint64) *Source {
	var s Source
	s.reseed(seed)
	return &s
}

func (s *Source) reseed(seed uint64) {
	x := seed
	s.s0 = splitmix64(&x)
	s.s1 = splitmix64(&x)
	s.s2 = splitmix64(&x)
	s.s3 = splitmix64(&x)
	// xoshiro256** requires not-all-zero state; SplitMix64 output of four
	// consecutive steps is never all zero, but guard anyway.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = golden
	}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	r := bits.RotateLeft64(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return r
}

// State returns the generator's four xoshiro256** words, for a kernel that
// steps the recurrence itself, several streams side by side
// (game.PlayMixedBatch).
func (s *Source) State() [4]uint64 { return [4]uint64{s.s0, s.s1, s.s2, s.s3} }

// SetState puts back words State returned, stepped by Uint64's recurrence
// or not; such words are never all zero.
func (s *Source) SetState(w [4]uint64) { s.s0, s.s1, s.s2, s.s3 = w[0], w[1], w[2], w[3] }

// Derive returns a new Source whose state is a pure function of s's original
// seed material and the given keys. Deriving does not advance s. Typical use:
//
//	rankStream := master.Derive(uint64(rank))
//	genStream  := master.Derive(uint64(gen), uint64(sset))
//
// Distinct key tuples give statistically independent streams.
func (s *Source) Derive(keys ...uint64) *Source {
	d := new(Source)
	s.DeriveInto(d, keys...)
	return d
}

// DeriveInto re-seeds dst in place with the stream s.Derive(keys...) returns,
// for a caller that derives one stream per task and keeps it in a Source it
// owns rather than allocating one per derivation. Like Derive it does not
// advance s; dst may be s itself.
func (s *Source) DeriveInto(dst *Source, keys ...uint64) {
	h := s.s0 ^ bits.RotateLeft64(s.s1, 13) ^ bits.RotateLeft64(s.s2, 29) ^ bits.RotateLeft64(s.s3, 43)
	for i, k := range keys {
		h = mix64(h ^ (k + golden*uint64(i+1)))
	}
	dst.reseed(h)
}

// Float64 returns a uniform float64 in [0,1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0,n). It panics if n <= 0.
// It uses Lemire's nearly-divisionless unbiased bounded generation.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0,n). It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Pair returns two distinct uniform indices in [0,n). It panics if n < 2.
// It is used by the Nature Agent to choose (teacher, learner) SSets.
func (s *Source) Pair(n int) (a, b int) {
	if n < 2 {
		panic("rng: Pair needs n >= 2")
	}
	a = s.Intn(n)
	b = s.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}
