package noise

import "math"

// LaplaceQuantile returns the smallest t such that
// Pr[|Laplace(b)| >= t] <= p, i.e. t = b·ln(1/p). The paper uses this with
// p = beta/(k+1) in Lemma 13.
func LaplaceQuantile(b, p float64) float64 {
	return b * math.Log(1/p)
}

// Phi is the standard normal CDF, used verbatim in the exact GSHM condition
// of Theorem 23.
func Phi(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// GaussianTail returns Pr[N(0, sigma^2) >= t].
func GaussianTail(sigma, t float64) float64 {
	return 1 - Phi(t/sigma)
}

// PMGThreshold is the removal threshold of Algorithm 2:
// counters below 1 + 2·ln(3/δ)/ε are discarded (Lemma 11).
func PMGThreshold(eps, delta float64) float64 {
	return 1 + 2*math.Log(3/delta)/eps
}

// StandardMGThreshold is the raised threshold from Section 5.1 that makes
// Algorithm 2 private when the underlying sketch is a standard Misra-Gries
// implementation that removes zero counters immediately: up to k keys (each
// with count 1) may differ between neighboring sketches, so the threshold is
// 1 + 2·ln((k+1)/(2δ))/ε.
func StandardMGThreshold(eps, delta float64, k int) float64 {
	return 1 + 2*math.Log(float64(k+1)/(2*delta))/eps
}

// GeometricThreshold is the Section 5.2 threshold for the discrete release
// path: 1 + 2·⌈ln(6e^ε/((e^ε+1)δ))/ε⌉.
func GeometricThreshold(eps, delta float64) float64 {
	e := math.Exp(eps)
	return 1 + 2*math.Ceil(math.Log(6*e/((e+1)*delta))/eps)
}
