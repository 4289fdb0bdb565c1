// Package puredp implements Section 6 of the paper: a post-processing step
// (Algorithm 3) that reduces the l1-sensitivity of a Misra-Gries sketch from
// k to strictly less than 2 while adding at most n/(k+1) extra error
// (Lemmas 15 and 16), and the releases it enables — pure eps-DP with noise
// Laplace(2/eps) over the whole universe, and an (eps, delta) thresholded
// variant in the style of [3, Algorithm 9].
package puredp

import (
	"fmt"

	"dpmg/internal/hist"
	"dpmg/internal/mg"
	"dpmg/internal/noise"
	"dpmg/internal/stream"
)

// Reduced is the output of the Algorithm 3 sensitivity reduction: at most k
// strictly positive real-valued counters with l1-sensitivity < 2.
type Reduced struct {
	K      int
	Gamma  float64 // the subtracted offset, sum(c)/(k+1)
	Counts map[stream.Item]float64
}

// Reduce runs Algorithm 3 on a paper-variant Misra-Gries sketch: compute
// gamma = (sum of counters)/(k+1), subtract it from every counter, and keep
// only counters that remain positive. Dummy keys never survive (their
// counters are zero). By Lemma 15 the reduced estimates still satisfy
// f̂(x) in [f(x) - n/(k+1), f(x)].
func Reduce(sk *mg.Sketch) *Reduced {
	keys, vals := sk.AppendAll(nil, nil)
	return ReduceColumns(keys, vals, sk.K())
}

// ReduceColumns is Reduce on a flat Algorithm 1 counter table (all k
// counters, dummy and zero keys included, counts parallel to keys) — the
// form the unified release front-end hands mechanisms.
func ReduceColumns(keys []stream.Item, counts []int64, k int) *Reduced {
	var sum int64
	for _, c := range counts {
		sum += c
	}
	gamma := float64(sum) / float64(k+1)
	out := make(map[stream.Item]float64)
	for i, x := range keys {
		if v := float64(counts[i]) - gamma; v > 0 {
			out[x] = v
		}
	}
	return &Reduced{K: k, Gamma: gamma, Counts: out}
}

// Estimate returns the reduced frequency estimate of x (0 if absent).
func (r *Reduced) Estimate(x stream.Item) float64 { return r.Counts[x] }

// ToEstimate converts the reduced counters into a released-style table.
func (r *Reduced) ToEstimate() hist.Estimate {
	out := make(hist.Estimate, len(r.Counts))
	for x, v := range r.Counts {
		out[x] = v
	}
	return out
}

// ReleasePure releases the reduced sketch under pure eps-differential
// privacy: Laplace(2/eps) noise (the l1-sensitivity is < 2 by Lemma 16) is
// added to the count of every element of the universe [1, d] — zero for
// elements outside the sketch — and the k largest noisy counts are returned.
// The error satisfies n/(k+1) + O(log(d)/eps) with high probability.
//
// The run time is Theta(d); the paper points to [4, 11, 12] for sampling
// only the top noisy counts in sublinear time, which matters for universes
// far larger than the experiments here use.
func ReleasePure(r *Reduced, eps float64, d uint64, src noise.Source) (hist.Estimate, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("puredp: eps must be positive, got %v", eps)
	}
	if d == 0 {
		return nil, fmt.Errorf("puredp: universe size must be positive")
	}
	acc := hist.NewTopAccumulator(r.K)
	scale := 2 / eps
	for x := stream.Item(1); uint64(x) <= d; x++ {
		acc.Offer(x, r.Counts[x]+noise.Laplace(src, scale))
	}
	return acc.Estimate(), nil
}

// L1Sensitivity returns the l1 distance between two reduced counter tables
// viewed over the whole universe. Lemma 16 proves it is < 2 for reductions
// of sketches on neighboring streams; the experiments measure it.
func L1Sensitivity(a, b *Reduced) float64 {
	var sum float64
	for x, va := range a.Counts {
		sum += abs(va - b.Counts[x])
	}
	for x, vb := range b.Counts {
		if _, ok := a.Counts[x]; !ok {
			sum += abs(vb)
		}
	}
	return sum
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
