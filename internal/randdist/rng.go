// Package randdist provides the deterministic random-sampling machinery for
// the trace synthesizer and the simulator: a seedable RNG, Zipf weight
// vectors with arbitrary exponent, a Walker alias-method sampler for
// finite categorical distributions, and the continuous distributions used
// by the session model (lognormal, truncated exponential).
//
// Everything in this package is deterministic given a seed, which is what
// lets an entire simulation be replayed bit-for-bit (the paper fixes peer
// placement across runs for the same reason, Section V-B).
package randdist

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// RNG is a deterministic pseudo-random source. It wraps the stdlib PCG
// generator with convenience methods used across the simulator.
type RNG struct {
	src *rand.Rand
	// seed and stream are retained so Derive can mint child generators
	// as a pure function of (seed, stream, label) without consuming
	// randomness from this generator's sequence.
	seed   uint64
	stream uint64
}

// NewRNG returns an RNG seeded with the pair (seed, stream). Distinct
// streams with the same seed are independent, which lets subsystems (user
// model, catalog model, placement) draw from non-interfering sequences.
func NewRNG(seed, stream uint64) *RNG {
	return &RNG{
		src:    rand.New(rand.NewPCG(seed, stream)),
		seed:   seed,
		stream: stream,
	}
}

// Derive returns a new independent RNG whose sequence is a pure function of
// the parent seed pair and the label. Deriving never consumes randomness
// from the parent.
func (r *RNG) Derive(label string) *RNG {
	h := fnv64a(label)
	return NewRNG(r.seed^h, r.stream+h*0x9E3779B97F4A7C15+0xD1B54A32D192ED03)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Int64N returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int64N(n int64) int64 { return r.src.Int64N(n) }

// NormFloat64 returns a standard normal variate.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// ExpFloat64 returns an exponential variate with mean 1.
func (r *RNG) ExpFloat64() float64 { return r.src.ExpFloat64() }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Poisson returns a Poisson variate with the given mean. For small means it
// uses Knuth's product method; for large means a normal approximation with
// continuity correction, which is accurate to well under a percent for the
// arrival counts the synthesizer draws.
func (r *RNG) Poisson(mean float64) int {
	switch {
	case mean < 0 || math.IsNaN(mean):
		panic(fmt.Sprintf("randdist: invalid Poisson mean %v", mean))
	case mean == 0:
		return 0
	case mean < 30:
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		v := mean + math.Sqrt(mean)*r.NormFloat64() + 0.5
		if v < 0 {
			return 0
		}
		return int(v)
	}
}
