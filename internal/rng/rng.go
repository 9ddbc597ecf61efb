// Package rng provides a small, fast, deterministic, splittable random
// number generator used throughout the repository.
//
// Reproducibility is a hard requirement for the experiment harness: every
// randomized construction in the paper (edge sampling, detour selection,
// configuration-model pairing, Lemma 19 subset families) must produce the
// same output for the same seed regardless of how many workers execute it.
// To that end the package implements xoshiro256** with a SplitMix64 seeder
// and a Split operation that derives statistically independent child streams
// from a parent, so parallel workers can each own a stream keyed by
// (seed, workerID).
//
// SamplePairs draws vertex pairs without replacement; the evaluation
// kernels draw such samples serially before fanning work out, which is how
// sampled-pair measurements stay identical across worker counts (see
// spanner.VerifyPairStretchOpts and DESIGN.md §9).
package rng

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256** generator. The zero value is not usable; construct
// with New or Split.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances x and returns the next SplitMix64 output.
// It is the recommended seeding procedure for xoshiro generators.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed. Distinct seeds give
// statistically independent streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	r.s2 = splitmix64(&x)
	r.s3 = splitmix64(&x)
	return r
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := bits.RotateLeft64(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Split derives a child generator from the parent. The parent advances, so
// successive Split calls yield distinct children. Children are independent
// of later parent output for all practical purposes (the child is re-seeded
// through SplitMix64 rather than sharing state).
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xd3833e804f4c574b)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Uses Lemire's nearly-divisionless bounded sampling.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, bound)
	if lo < bound {
		thresh := -bound % bound
		for lo < thresh {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, bound)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bernoulli returns true with probability p. Values p <= 0 always return
// false and p >= 1 always return true.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n) as a fresh slice.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher–Yates shuffle of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct values drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0. For k close to n it shuffles a full
// index slice; for small k it uses rejection sampling against a set.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample with k out of range")
	}
	if k == 0 {
		return nil
	}
	// Rejection sampling is fast while the hit rate is low.
	if k*3 < n {
		seen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for len(out) < k {
			v := r.Intn(n)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			out = append(out, v)
		}
		return out
	}
	p := r.Perm(n)
	return p[:k]
}

// SamplePairs returns k distinct unordered vertex pairs {u, v} with
// u != v, drawn uniformly without replacement from the C(n, 2) pairs on
// [0, n). Each returned pair is normalized u < v. It panics if k < 0 or
// k exceeds C(n, 2).
//
// This is the sampling primitive behind sampled-pair stretch measurement:
// drawing the whole sample up front from one stream (rather than inside a
// worker loop) is what makes the measurement identical across worker
// counts, and drawing without replacement means no pair is silently
// measured twice.
func (r *RNG) SamplePairs(n, k int) [][2]int32 {
	total := int64(n) * int64(n-1) / 2
	if k < 0 || int64(k) > total {
		panic("rng: SamplePairs with k out of range")
	}
	if k == 0 {
		return nil
	}
	out := make([][2]int32, 0, k)
	// Rejection sampling against a set of normalized pair keys is fast
	// while the hit rate is low; when the sample covers a third or more of
	// the pair space, enumerate-and-shuffle avoids long rejection tails.
	if int64(k)*3 < total {
		seen := make(map[int64]struct{}, k)
		for len(out) < k {
			u := int32(r.Intn(n))
			v := int32(r.Intn(n))
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			key := int64(u)*int64(n) + int64(v)
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			out = append(out, [2]int32{u, v})
		}
		return out
	}
	all := make([][2]int32, 0, total)
	for u := int32(0); u < int32(n); u++ {
		for v := u + 1; v < int32(n); v++ {
			all = append(all, [2]int32{u, v})
		}
	}
	r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return append(out, all[:k]...)
}

// Norm64 returns a standard normal variate via the polar Box–Muller method.
// It is used by the spectral package to seed random start vectors.
func (r *RNG) Norm64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
