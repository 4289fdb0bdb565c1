package merge

import (
	"fmt"
	"math"
	"sort"

	"dpmg/internal/core"
	"dpmg/internal/hist"
	"dpmg/internal/mg"
	"dpmg/internal/noise"
	"dpmg/internal/stream"
)

// MergeNoisy merges two released (float-valued) frequency tables with the
// Agarwal et al. rule — add, subtract the (k+1)-th largest, drop
// non-positive. This is the only merge available to an *untrusted*
// aggregator, which receives already-privatized sketches; the noise and
// threshold error of each input accumulates (Section 7: "the error from
// noise still increases linearly in the number of merges").
func MergeNoisy(a, b hist.Estimate, k int) hist.Estimate {
	combined := make(map[stream.Item]float64, len(a)+len(b))
	for x, v := range a {
		combined[x] = v
	}
	for x, v := range b {
		combined[x] += v
	}
	var sub float64
	if len(combined) > k {
		vals := make([]float64, 0, len(combined))
		for _, v := range combined {
			vals = append(vals, v)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
		sub = vals[k]
	}
	out := make(hist.Estimate, k)
	for x, v := range combined {
		if v > sub {
			out[x] = v - sub
		}
	}
	return out
}

// UntrustedAggregate models the Chan et al. setting: every local stream is
// sketched and privatized *before* leaving its server (Algorithm 2 with the
// given params), and the aggregator folds the noisy releases with
// MergeNoisy. The output is (eps, delta)-DP by post-processing, but its
// error grows linearly in the number of sketches.
func UntrustedAggregate(streams []stream.Stream, k int, d uint64, p core.Params, src noise.Source) (hist.Estimate, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("merge: no streams")
	}
	var acc hist.Estimate
	for i, str := range streams {
		sk := mg.New(k, d)
		sk.Process(str)
		rel, err := core.Release(sk, p, src)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			acc = rel
		} else {
			acc = MergeNoisy(acc, rel, k)
		}
	}
	return acc, nil
}

// TrustedAggregateLaplace is the Section 7 trusted-aggregator release built
// on the Section 6 sensitivity reduction: each local sketch is
// post-processed with Algorithm 3 (l1-sensitivity < 2), the reduced counters
// are summed exactly (the aggregator is trusted, so no noise yet), and the
// aggregate is privatized once with Laplace(2/eps) noise plus the threshold
// 1 + 2·ln(1/delta)/eps on each positive aggregated counter. The noise is
// independent of the number of merged sketches. The aggregated table can
// hold up to l·k counters, the memory trade-off the paper notes.
//
// reducedTables are the Algorithm 3 outputs of the individual sketches.
func TrustedAggregateLaplace(reducedTables []map[stream.Item]float64, eps, delta float64, src noise.Source) (hist.Estimate, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("merge: eps must be positive, got %v", eps)
	}
	if delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("merge: delta must be in (0,1), got %v", delta)
	}
	if len(reducedTables) == 0 {
		return nil, fmt.Errorf("merge: no tables")
	}
	agg := make(map[stream.Item]float64)
	for _, tab := range reducedTables {
		for x, v := range tab {
			agg[x] += v
		}
	}
	keys := make([]stream.Item, 0, len(agg))
	for x := range agg {
		keys = append(keys, x)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	thresh := 1 + 2*noise.LaplaceQuantile(2/eps, delta) // hide single-key diffs
	out := make(hist.Estimate)
	for _, x := range keys {
		if v := agg[x] + noise.Laplace(src, 2/eps); v >= thresh {
			out[x] = v
		}
	}
	return out, nil
}

// TrustedAggregateBounded is the bounded-memory trusted pipeline: local
// non-private summaries are merged with the Agarwal algorithm (the
// aggregator never stores more than 2k counters), and the merged summary is
// released once with Laplace(k/eps) noise and a k-scaled threshold — valid
// because Corollary 18 bounds the merged l1-sensitivity by k independent of
// the number of merges. This is the regime where the Chan et al. approach,
// fixed up with the paper's Corollary 18, beats per-sketch noising once the
// number of merges exceeds ~k.
func TrustedAggregateBounded(summaries []*Summary, eps, delta float64, src noise.Source) (hist.Estimate, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("merge: eps must be positive, got %v", eps)
	}
	if delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("merge: delta must be in (0,1), got %v", delta)
	}
	merged, err := MergeAll(summaries)
	if err != nil {
		return nil, err
	}
	return ReleaseBoundedFlat(merged, eps, delta, src), nil
}

// BoundedScale returns the per-counter Laplace scale of the Corollary 18
// release: k/eps, since up to k counters can differ between neighboring
// merged summaries.
func BoundedScale(eps float64, k int) float64 { return float64(k) / eps }

// BoundedThreshold returns the removal threshold of the Corollary 18
// release: 1 + 2·(k/ε)·ln((k+1)/(2δ)), which hides the up-to-k keys (each
// off by one) that can differ between neighboring merged summaries.
func BoundedThreshold(eps, delta float64, k int) float64 {
	return 1 + 2*BoundedScale(eps, k)*math.Log(float64(k+1)/(2*delta))
}

// ReleaseBoundedColumns privatizes one already-merged counter table, held
// as flat parallel columns, with the Corollary 18 Laplace release:
// Laplace(k/eps) per strictly positive counter, threshold BoundedThreshold.
// Keys must be ascending — the input-independent visiting order Section 5.2
// requires, and what fixes the draw sequence under a seed. Inputs must be
// pre-validated; TrustedAggregateBounded and the unified release front-end
// both funnel through this loop, so their noise draws are identical. No
// map is built or consulted.
func ReleaseBoundedColumns(keys []stream.Item, counts []int64, k int, eps, delta float64, src noise.Source) hist.Estimate {
	scale := BoundedScale(eps, k)
	thresh := BoundedThreshold(eps, delta, k)
	out := make(hist.Estimate)
	for i, x := range keys {
		if c := counts[i]; c > 0 {
			if v := float64(c) + noise.Laplace(src, scale); v >= thresh {
				out[x] = v
			}
		}
	}
	return out
}

// ReleaseBoundedFlat privatizes a flat summary with the Corollary 18
// release, consuming the summary's already-sorted columns directly.
func ReleaseBoundedFlat(s *Summary, eps, delta float64, src noise.Source) hist.Estimate {
	return ReleaseBoundedColumns(s.keys, s.vals, s.K, eps, delta, src)
}
