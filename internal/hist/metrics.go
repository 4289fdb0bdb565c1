package hist

import (
	"math"
	"sort"

	"dpmg/internal/stream"
)

// MaxError returns max over x in the union of supports of |est(x) - f(x)|.
// Because both tables default to 0 outside their support, this equals the
// maximum error over the whole universe.
func MaxError(est Estimate, truth map[stream.Item]int64) float64 {
	worst := 0.0
	for x, f := range truth {
		if e := math.Abs(est[x] - float64(f)); e > worst {
			worst = e
		}
	}
	for x, v := range est {
		if _, ok := truth[x]; ok {
			continue
		}
		if e := math.Abs(v); e > worst {
			worst = e
		}
	}
	return worst
}

// TopK returns the k items with the largest counts in truth, ties broken by
// smaller item first so the result is deterministic.
func TopK(truth map[stream.Item]int64, k int) []stream.Item {
	type kv struct {
		x stream.Item
		f int64
	}
	all := make([]kv, 0, len(truth))
	for x, f := range truth {
		all = append(all, kv{x, f})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].f != all[j].f {
			return all[i].f > all[j].f
		}
		return all[i].x < all[j].x
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]stream.Item, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].x
	}
	return out
}

// TopKEstimate returns the k items with the largest estimates.
func TopKEstimate(est Estimate, k int) []stream.Item {
	type kv struct {
		x stream.Item
		v float64
	}
	all := make([]kv, 0, len(est))
	for x, v := range est {
		all = append(all, kv{x, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].x < all[j].x
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]stream.Item, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].x
	}
	return out
}

// RecallAtK returns the fraction of the true top-k items recovered by the
// estimate's top-k, the standard heavy-hitters quality metric.
func RecallAtK(est Estimate, truth map[stream.Item]int64, k int) float64 {
	trueTop := TopK(truth, k)
	if len(trueTop) == 0 {
		return 1
	}
	got := make(map[stream.Item]struct{}, k)
	for _, x := range TopKEstimate(est, k) {
		got[x] = struct{}{}
	}
	hits := 0
	for _, x := range trueTop {
		if _, ok := got[x]; ok {
			hits++
		}
	}
	return float64(hits) / float64(len(trueTop))
}

// L1Distance returns the l1 distance between two counter tables viewed as
// vectors over the universe (Definition 6 with p = 1). Used by the empirical
// sensitivity experiments.
func L1Distance(a, b map[stream.Item]int64) float64 {
	var sum float64
	for x, va := range a {
		sum += math.Abs(float64(va - b[x]))
	}
	for x, vb := range b {
		if _, ok := a[x]; !ok {
			sum += math.Abs(float64(vb))
		}
	}
	return sum
}

// L2Distance returns the l2 distance between two counter tables
// (Definition 6 with p = 2).
func L2Distance(a, b map[stream.Item]int64) float64 {
	var sum float64
	for x, va := range a {
		d := float64(va - b[x])
		sum += d * d
	}
	for x, vb := range b {
		if _, ok := a[x]; !ok {
			sum += float64(vb) * float64(vb)
		}
	}
	return math.Sqrt(sum)
}

// LInfDistance returns the l-infinity distance between two counter tables.
func LInfDistance(a, b map[stream.Item]int64) float64 {
	worst := 0.0
	for x, va := range a {
		if d := math.Abs(float64(va - b[x])); d > worst {
			worst = d
		}
	}
	for x, vb := range b {
		if _, ok := a[x]; !ok {
			if d := math.Abs(float64(vb)); d > worst {
				worst = d
			}
		}
	}
	return worst
}
