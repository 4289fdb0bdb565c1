// Package core implements the paper's primary contribution: the Private
// Misra-Gries mechanism of Algorithm 2 (Theorem 14). The mechanism releases
// a Misra-Gries sketch under (eps, delta)-differential privacy by adding
// two layers of Laplace(1/eps) noise — one independent sample per counter
// plus one shared sample added to every counter — and discarding noisy
// counts below 1 + 2·ln(3/delta)/eps. The resulting noise magnitude is
// independent of the sketch size k, unlike the k/eps noise the global-
// sensitivity approach of Chan et al. requires.
//
// The package also provides the Section 5.1 variant for standard
// Misra-Gries sketches (raised threshold), the Section 5.2 discrete variant
// (two-sided geometric noise), and the Section 8 group-privacy parameter
// scaling for user-level privacy.
package core

import (
	"fmt"
	"math"

	"dpmg/internal/accountant"
	"dpmg/internal/hist"
	"dpmg/internal/mg"
	"dpmg/internal/noise"
	"dpmg/internal/stream"
)

// Params are the differential privacy parameters of a release.
type Params struct {
	Eps   float64 // privacy parameter epsilon, must be positive
	Delta float64 // privacy parameter delta, must be in (0, 1)
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if !accountant.ValidEps(p.Eps) {
		return fmt.Errorf("core: eps must be finite and positive, got %v", p.Eps)
	}
	if !accountant.ValidDelta(p.Delta, false) {
		return fmt.Errorf("core: delta must be in (0,1), got %v", p.Delta)
	}
	return nil
}

// Threshold returns the Algorithm 2 removal threshold 1 + 2·ln(3/δ)/ε.
func (p Params) Threshold() float64 { return noise.PMGThreshold(p.Eps, p.Delta) }

// Release extracts sk's counter table and runs Algorithm 2 (PMG) on it; see
// ReleaseColumns.
func Release(sk *mg.Sketch, p Params, src noise.Source) (hist.Estimate, error) {
	keys, vals := sk.AppendAll(nil, nil)
	return ReleaseColumns(keys, vals, sk.Universe(), p, src)
}

// ReleaseColumns runs Algorithm 2 (PMG) over a flat extraction of the full
// Algorithm 1 counter table: keys strictly ascending with parallel counts
// (mg.Sketch.AppendAll), dummy keys identified by lying above the universe
// bound. The loop draws the shared layer then one Laplace(1/eps) sample per
// key in ascending order — the sorted, input-independent order Section 5.2
// requires for a safe release. Only genuine universe elements survive:
// dummy keys are removed as post-processing, which the paper notes does not
// affect privacy.
func ReleaseColumns(keys []stream.Item, counts []int64, universe uint64, p Params, src noise.Source) (hist.Estimate, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	eta := noise.Laplace(src, 1/p.Eps) // shared second noise layer
	thresh := p.Threshold()
	out := make(hist.Estimate)
	for i, x := range keys {
		noisy := float64(counts[i]) + eta + noise.Laplace(src, 1/p.Eps)
		if noisy >= thresh && uint64(x) <= universe {
			out[x] = noisy
		}
	}
	return out, nil
}

// ReleaseStandard extracts sk's counter table and privatizes it with the
// Section 5.1 variant; see ReleaseStandardColumns.
func ReleaseStandard(sk *mg.StandardSketch, p Params, src noise.Source) (hist.Estimate, error) {
	keys, vals := sk.AppendAll(nil, nil)
	return ReleaseStandardColumns(keys, vals, sk.K(), p, src)
}

// ReleaseStandardColumns privatizes the counter table of a standard
// Misra-Gries sketch (keys strictly ascending with parallel counts) using
// the Section 5.1 variant: the same two noise layers but the raised
// threshold 1 + 2·ln((k+1)/(2δ))/ε, which also hides the up-to-k keys that
// can differ between neighboring standard sketches.
func ReleaseStandardColumns(keys []stream.Item, counts []int64, k int, p Params, src noise.Source) (hist.Estimate, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	eta := noise.Laplace(src, 1/p.Eps)
	thresh := noise.StandardMGThreshold(p.Eps, p.Delta, k)
	out := make(hist.Estimate)
	for i, x := range keys {
		noisy := float64(counts[i]) + eta + noise.Laplace(src, 1/p.Eps)
		if noisy >= thresh {
			out[x] = noisy
		}
	}
	return out, nil
}

// ReleaseGeometric extracts sk's counter table and runs the Section 5.2
// discrete release on it; see ReleaseGeometricColumns.
func ReleaseGeometric(sk *mg.Sketch, p Params, src noise.Source) (hist.Estimate, error) {
	keys, vals := sk.AppendAll(nil, nil)
	return ReleaseGeometricColumns(keys, vals, sk.Universe(), p, src)
}

// ReleaseGeometricColumns is the Section 5.2 discrete release over the flat
// Algorithm 1 counter table ReleaseColumns takes: both noise layers are
// two-sided geometric with parameter alpha = exp(-eps) (the geometric
// mechanism for sensitivity 1), and the threshold is raised to
// 1 + 2·⌈ln(6e^ε/((e^ε+1)δ))/ε⌉ so that Lemma 11 still holds. All released
// values are integers, avoiding floating-point side channels.
func ReleaseGeometricColumns(keys []stream.Item, counts []int64, universe uint64, p Params, src noise.Source) (hist.Estimate, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	alpha := noise.GeometricAlpha(p.Eps, 1)
	eta := noise.TwoSidedGeometric(src, alpha)
	thresh := noise.GeometricThreshold(p.Eps, p.Delta)
	out := make(hist.Estimate)
	for i, x := range keys {
		noisy := counts[i] + eta + noise.TwoSidedGeometric(src, alpha)
		if float64(noisy) >= thresh && uint64(x) <= universe {
			out[x] = float64(noisy)
		}
	}
	return out, nil
}

// UserLevelParams converts target user-level parameters (epsPrime,
// deltaPrime) into the per-element parameters Algorithm 2 must run with when
// each user contributes up to m elements (Lemma 20, via group privacy):
// eps = eps'/m and delta = delta'/(m·e^eps').
func UserLevelParams(target Params, m int) (Params, error) {
	if m <= 0 {
		return Params{}, fmt.Errorf("core: m must be positive, got %d", m)
	}
	if err := target.Validate(); err != nil {
		return Params{}, err
	}
	return Params{
		Eps:   target.Eps / float64(m),
		Delta: target.Delta / (float64(m) * math.Exp(target.Eps)),
	}, nil
}

// ReleaseUserLevel runs the Section 8 flatten-then-PMG pipeline: the user
// set stream is flattened in the fixed per-user ascending order, sketched
// with Algorithm 1, and released with Algorithm 2 under the group-privacy
// scaled parameters of Lemma 20. The release satisfies (target.Eps,
// target.Delta)-DP at the user level.
func ReleaseUserLevel(ss stream.SetStream, k int, d uint64, m int, target Params, src noise.Source) (hist.Estimate, error) {
	if err := ss.Validate(m); err != nil {
		return nil, err
	}
	scaled, err := UserLevelParams(target, m)
	if err != nil {
		return nil, err
	}
	sk := mg.New(k, d)
	sk.Process(ss.Flatten())
	return Release(sk, scaled, src)
}

// NoiseErrorBound returns the two-sided high-probability bound of Lemma 13
// on the noise-only error: with probability at least 1-beta, every released
// counter is within 2·ln((k+1)/beta)/eps above its sketch value and within
// 2·ln((k+1)/beta)/eps + 1 + 2·ln(3/delta)/eps below it.
func NoiseErrorBound(p Params, k int, beta float64) (down, up float64) {
	up = 2 * math.Log(float64(k+1)/beta) / p.Eps
	down = up + p.Threshold()
	return down, up
}

// TotalErrorBound returns the Theorem 14 bound on |f̂(x) - f(x)| for all x
// with probability 1-beta: the Lemma 13 noise error plus the sketch error
// n/(k+1).
func TotalErrorBound(p Params, k int, n int64, beta float64) float64 {
	down, _ := NoiseErrorBound(p, k, beta)
	return down + float64(n)/float64(k+1)
}

// MSEBound returns the Theorem 14 bound on the per-element mean squared
// error: 3·(1 + (2 + 2·ln(3/δ))/ε + n/(k+1))².
func MSEBound(p Params, k int, n int64) float64 {
	t := 1 + (2+2*math.Log(3/p.Delta))/p.Eps + float64(n)/float64(k+1)
	return 3 * t * t
}
