// Package baseline implements every comparison mechanism the paper
// discusses, so the experiments can regenerate the paper's claimed
// separations:
//
//   - Chan et al. [11]: Misra-Gries release with noise calibrated to the
//     global l1-sensitivity k — Laplace(k/eps) per counter — in both the
//     pure-DP top-k-over-the-universe form and the thresholded
//     (eps, delta) form (the latter is also the "corrected" version of
//     Böhler–Kerschbaum's mechanism).
//   - Böhler–Kerschbaum [7] as published: Laplace(1/eps) noise on the MG
//     counters. The paper shows this uses the wrong sensitivity (the MG
//     sketch has sensitivity k, not 1), so this mechanism DOES NOT satisfy
//     its claimed DP guarantee. It is implemented only so the audit
//     experiment (E9) can demonstrate the violation; never deploy it.
//   - Korolova et al. [22]: the non-streaming gold standard — exact
//     histogram, Laplace(1/eps) noise on every positive count, threshold.
//   - A noisy frequency-oracle heavy-hitters baseline in the spirit of
//     [18, Appendix D]: a Count-Min oracle whose table has l1-sensitivity
//     equal to its depth (~log d), privatized with Laplace(depth/eps) per
//     cell and queried by iterating the universe.
package baseline

import (
	"fmt"
	"math"
	"sort"

	"dpmg/internal/cms"
	"dpmg/internal/hist"
	"dpmg/internal/mg"
	"dpmg/internal/noise"
	"dpmg/internal/stream"
)

// ChanPure releases a standard Misra-Gries sketch under pure eps-DP exactly
// as Chan et al. do: Laplace(k/eps) noise added to the count of every
// universe element (implicitly zero outside the sketch), keeping the top-k
// noisy counts. Expected maximum error O(k·log(d)/eps).
func ChanPure(sk *mg.StandardSketch, eps float64, d uint64, src noise.Source) (hist.Estimate, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("baseline: eps must be positive, got %v", eps)
	}
	if d == 0 {
		return nil, fmt.Errorf("baseline: universe size must be positive")
	}
	k := sk.K()
	scale := float64(k) / eps
	acc := hist.NewTopAccumulator(k)
	for x := stream.Item(1); uint64(x) <= d; x++ {
		acc.Offer(x, float64(sk.Estimate(x))+noise.Laplace(src, scale))
	}
	return acc.Estimate(), nil
}

// ChanApproxThreshold is the removal threshold of ChanApprox:
// 1 + 2·(k/eps)·ln((k+1)/(2·delta)), the Section 5.1 threshold scaled to the
// Laplace(k/eps) noise so that the up-to-k differing keys stay hidden.
func ChanApproxThreshold(eps, delta float64, k int) float64 {
	return 1 + 2*(float64(k)/eps)*float64(logKOverDelta(delta, k))
}

func logKOverDelta(delta float64, k int) float64 {
	return math.Log(float64(k+1) / (2 * delta))
}

// ChanApprox is the (eps, delta) improvement the paper sketches for the
// Chan et al. mechanism (and equivalently the corrected Böhler–Kerschbaum
// mechanism): Laplace(k/eps) noise on the stored counters only, removing
// noisy counts below ChanApproxThreshold. Error O(k·log(k/delta)/eps).
func ChanApprox(sk *mg.StandardSketch, eps, delta float64, src noise.Source) (hist.Estimate, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("baseline: eps must be positive, got %v", eps)
	}
	if delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("baseline: delta must be in (0,1), got %v", delta)
	}
	k := sk.K()
	scale := float64(k) / eps
	thresh := ChanApproxThreshold(eps, delta, k)
	out := make(hist.Estimate)
	for _, x := range sk.SortedKeys() {
		if v := float64(sk.Estimate(x)) + noise.Laplace(src, scale); v >= thresh {
			out[x] = v
		}
	}
	return out, nil
}

// Korolova is the non-streaming gold standard the paper compares its noise
// magnitude against [22]: compute the exact histogram, add Laplace(1/eps)
// noise to every positive count, and remove noisy counts below
// 1 + ln(1/(2·delta))/eps (the count of an element present in only one of
// two neighboring datasets is 1, and 1 + Laplace(1/eps) exceeds the
// threshold with probability at most delta).
func Korolova(f map[stream.Item]int64, eps, delta float64, src noise.Source) (hist.Estimate, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("baseline: eps must be positive, got %v", eps)
	}
	if delta <= 0 || delta >= 0.5 {
		return nil, fmt.Errorf("baseline: delta must be in (0,0.5), got %v", delta)
	}
	thresh := 1 + math.Log(1/(2*delta))/eps
	keys := make([]stream.Item, 0, len(f))
	for x, c := range f {
		if c > 0 {
			keys = append(keys, x)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make(hist.Estimate)
	for _, x := range keys {
		if v := float64(f[x]) + noise.Laplace(src, 1/eps); v >= thresh {
			out[x] = v
		}
	}
	return out, nil
}

// FrequencyOracle is the noisy-frequency-oracle heavy hitters baseline the
// paper discusses in Sections 1 and 4: a Count-Min oracle over the stream,
// privatized by adding Laplace(depth/eps) noise to every cell (one element
// touches one cell per row, so the table's l1-sensitivity is depth ≈ log d),
// then queried for every universe element to extract the top-k. The noise
// per estimate is Theta(log(d)/eps), which is why the paper's mechanism
// dominates it.
type FrequencyOracle struct {
	sketch *cms.Sketch
	eps    float64
}

// NewFrequencyOracle sizes a Count-Min sketch for the universe [1, d] with
// relative error errFrac and privatization budget eps.
func NewFrequencyOracle(d uint64, errFrac, eps float64, seed uint64) (*FrequencyOracle, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("baseline: eps must be positive, got %v", eps)
	}
	if d == 0 {
		return nil, fmt.Errorf("baseline: universe size must be positive")
	}
	// Depth log2(d): per-item failure probability 1/d, i.e. union over the
	// universe stays constant.
	depth := 1
	for p := uint64(1); p < d; p *= 2 {
		depth++
	}
	width := int(2.72/errFrac) + 1
	return &FrequencyOracle{sketch: cms.New(depth, width, seed), eps: eps}, nil
}

// Process feeds the stream into the oracle.
func (o *FrequencyOracle) Process(str stream.Stream) {
	for _, x := range str {
		o.sketch.Update(x)
	}
}

// Release privatizes the table and extracts the k largest noisy estimates
// over the universe [1, d].
func (o *FrequencyOracle) Release(k int, d uint64, src noise.Source) hist.Estimate {
	scale := float64(o.sketch.Depth()) / o.eps
	o.sketch.AddNoise(func() float64 { return noise.Laplace(src, scale) })
	acc := hist.NewTopAccumulator(k)
	for x := stream.Item(1); uint64(x) <= d; x++ {
		acc.Offer(x, float64(o.sketch.Estimate(x)))
	}
	return acc.Estimate()
}
