// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator.
//
// Determinism is a hard requirement: every experiment in the paper must be
// exactly reproducible from a (benchmark name, seed) pair, so the simulator
// never uses math/rand's global state or any time-derived seed. The core
// generator is splitmix64 (Steele, Lea, Flood; "Fast splittable pseudorandom
// number generators", OOPSLA 2014), which passes BigCrush, needs only one
// uint64 of state, and is trivially seedable from a string hash.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic 64-bit pseudo-random source.
//
// The zero value is a valid generator seeded with 0; most callers should use
// New or NewString so that distinct streams are decorrelated.
type Source struct {
	state uint64
}

// New returns a Source seeded with the given value. Two Sources with
// different seeds produce decorrelated streams (splitmix64 scrambles the
// seed through its output function before the first value is drawn).
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// NewString returns a Source seeded from an arbitrary string, typically a
// benchmark name. The hash is FNV-1a, chosen because it is stable across
// platforms and Go versions (unlike maphash).
func NewString(s string) *Source {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return New(h)
}

// Uint64 returns the next value in the stream.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method would remove modulo bias
	// entirely; for the simulator's purposes the bias of a plain modulo on a
	// 64-bit value (at most n/2^64) is far below measurement noise, but the
	// multiply-shift form is also faster than division, so use it anyway.
	v := s.Uint64()
	hi, _ := bits.Mul64(v, uint64(n))
	return int(hi)
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	hi, _ := bits.Mul64(s.Uint64(), n)
	return hi
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 random mantissa bits, the standard conversion.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0,1]).
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Geometric returns a sample from a geometric distribution with success
// probability p in (0, 1], i.e. the number of failures before the first
// success. Used for dependence-distance and basic-block-length draws.
func (s *Source) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric called with p <= 0")
	}
	u := s.Float64()
	// Inverse transform sampling: floor(ln(1-u) / ln(1-p)).
	return int(math.Log(1-u) / math.Log(1-p))
}

// Split returns a new Source whose stream is decorrelated from the
// receiver's. This lets one seed fan out into independent per-component
// streams (one for addresses, one for opcodes, ...) without the streams
// marching in lockstep.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}
