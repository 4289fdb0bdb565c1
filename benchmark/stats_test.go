package main

import (
	"math"
	"testing"
)

func TestHighestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want int // hundredths of a percent; 0 = no percentile qualifies
	}{
		{0, 0}, {19, 0}, {20, 5000}, {99, 5000}, {100, 9000},
		{999, 9000}, {1000, 9900}, {9999, 9900}, {10000, 9990}, {100000, 9999},
	}
	for _, c := range cases {
		got, ok := highestTail(c.n)
		if ok != (c.want != 0) || got != c.want {
			t.Errorf("highestTail(%d) = %d, %v; want %d", c.n, got, ok, c.want)
		}
		if ok && c.n-rankOf(c.n, got) < 10 {
			t.Errorf("highestTail(%d) = %d leaves %d samples beyond it", c.n, got, c.n-rankOf(c.n, got))
		}
	}
}

func TestSummarizeWithholdsAnUnsupportedP99(t *testing.T) {
	series := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(n-i) * 1000 // descending: summarize must sort
		}
		return out
	}
	d := summarize(series(999))
	if d.N != 999 || d.P50 != 500 || d.P99 != 0 || d.TailPct != 90 || d.Tail != 900 {
		t.Errorf("999 samples: %+v; want p50=500 p99 withheld tail=p90=900", d)
	}
	d = summarize(series(1000))
	if d.P99 != 990 || d.TailPct != 99 || d.Tail != 990 {
		t.Errorf("1000 samples: %+v; want p99=990 as the tail", d)
	}
	if d := summarize(nil); d.N != 0 || d.P50 != 0 {
		t.Errorf("empty series: %+v", d)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4) prints.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{3.5, 3.7, 3.6, 3.65, 3.55, 3.62, 3.58, 3.61, 3.59, 3.9}, 3.5725, 3.6625},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread = %v; want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	tight := func(m float64) setStat { return setStat{median: m, spread: 0.02} }
	if v := verdict(lower, tight(100), tight(105)); v != "agree" {
		t.Errorf("5%% apart under a 10%% bound: %s", v)
	}
	if v := verdict(lower, tight(100), tight(115)); v != "DIFFER" {
		t.Errorf("15%% apart under a 10%% bound: %s", v)
	}
	if v := verdict(higher, tight(115), tight(100)); v != "DIFFER" {
		t.Errorf("throughput 13%% lower: %s", v)
	}
	// A spread wider than the bound cannot resolve a bound-sized change.
	if v := verdict(lower, setStat{median: 100, spread: 0.12}, tight(100)); v != "unresolved" {
		t.Errorf("spread above the bound with equal medians: %s, must never read as agreement", v)
	}
	if got := worseBy(higher, 100, 80); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("worseBy(higher, 100, 80) = %v", got)
	}
	if got := worseBy(lower, 100, 80); math.Abs(got+0.2) > 1e-12 {
		t.Errorf("worseBy(lower, 100, 80) = %v", got)
	}
}
