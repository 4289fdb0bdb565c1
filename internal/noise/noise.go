// Package noise implements the noise distributions used by the
// differentially private mechanisms in this repository: the continuous
// Laplace distribution (Definition 5 of the paper), the two-sided geometric
// distribution (the discrete analogue recommended in Section 5.2 for
// finite computers), and the Gaussian distribution (used by the Gaussian
// Sparse Histogram Mechanism of Section 8).
//
// All samplers draw randomness from a Source so that tests and experiments
// are reproducible under fixed seeds. The package also provides the tail
// bounds and threshold formulas the paper derives from these distributions.
package noise

import (
	"math"
	"math/rand/v2"
)

// Source is the randomness interface required by the samplers. *rand.Rand
// from math/rand/v2 satisfies it. Implementations do not need to be safe for
// concurrent use; mechanisms that sample concurrently must create one Source
// per goroutine.
type Source interface {
	// Float64 returns a uniformly distributed value in [0, 1).
	Float64() float64
	// NormFloat64 returns a standard normal value.
	NormFloat64() float64
	// Uint64 returns a uniformly distributed 64-bit value.
	Uint64() uint64
}

// NewSource returns a deterministic PCG-backed Source seeded with seed.
// Distinct seeds yield independent-looking streams; the same seed always
// yields the same stream.
func NewSource(seed uint64) Source {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// Laplace samples from the Laplace distribution centered at 0 with scale b
// using inverse transform sampling. It panics if b <= 0.
func Laplace(src Source, b float64) float64 {
	if b <= 0 {
		panic("noise: Laplace scale must be positive")
	}
	// u is uniform on (-1/2, 1/2]; the inverse CDF of Laplace(b) maps it to
	// -b*sign(u)*ln(1-2|u|).
	u := src.Float64() - 0.5
	if u < 0 {
		return b * math.Log1p(2*u) // log(1 - 2|u|), negative branch
	}
	return -b * math.Log1p(-2*u)
}

// Gaussian samples from N(0, sigma^2). It panics if sigma <= 0.
func Gaussian(src Source, sigma float64) float64 {
	if sigma <= 0 {
		panic("noise: Gaussian sigma must be positive")
	}
	return sigma * src.NormFloat64()
}

// TwoSidedGeometric samples the two-sided geometric (discrete Laplace)
// distribution with parameter alpha in (0,1):
//
//	Pr[X = z] = (1-alpha)/(1+alpha) * alpha^|z|  for integer z.
//
// With alpha = exp(-eps/sensitivity) this is the geometric mechanism of
// Ghosh, Roughgarden and Sundararajan referenced in Section 5.2. The sample
// is produced as the difference of two independent Geometric(1-alpha)
// variables, which has exactly the target law.
func TwoSidedGeometric(src Source, alpha float64) int64 {
	if alpha <= 0 || alpha >= 1 {
		panic("noise: TwoSidedGeometric alpha must be in (0,1)")
	}
	return geometric(src, alpha) - geometric(src, alpha)
}

// geometric samples the number of failures before the first success of a
// Bernoulli(1-alpha) process: Pr[G = g] = (1-alpha) * alpha^g for g >= 0.
// Sampled by inverting the CDF: G = floor(ln(U) / ln(alpha)).
func geometric(src Source, alpha float64) int64 {
	u := src.Float64()
	for u == 0 { // Float64 is in [0,1); exclude 0 so Log is finite.
		u = src.Float64()
	}
	return int64(math.Floor(math.Log(u) / math.Log(alpha)))
}

// GeometricAlpha returns the parameter alpha = exp(-eps/sensitivity) that
// makes TwoSidedGeometric an eps-DP mechanism for integer-valued queries
// with the given L1 sensitivity.
func GeometricAlpha(eps, sensitivity float64) float64 {
	return math.Exp(-eps / sensitivity)
}
