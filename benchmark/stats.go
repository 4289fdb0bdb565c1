package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a latency series may report, in
// hundredths of a percent so the rank arithmetic stays exact.
var tailCandidates = []int{5000, 9000, 9900, 9990, 9999}

// rankOf returns the 1-based nearest-rank index of percentile c (hundredths
// of a percent) in a series of n samples: ceil(n·c/10000).
func rankOf(n, c int) int {
	r := (n*c + 9999) / 10000
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile c (hundredths of a
// percent) of an ascending series; 0 for an empty series.
func percentile(sorted []int64, c int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), c)-1]
}

// highestTail returns the highest candidate percentile that still has at
// least ten samples beyond it — the only tail a series of n samples can
// state without reporting its own noise — and false when not even the
// median qualifies.
func highestTail(n int) (c int, ok bool) {
	for _, cand := range tailCandidates {
		if n-rankOf(n, cand) >= 10 {
			c, ok = cand, true
		}
	}
	return c, ok
}

// dist is the summary of one latency series, in microseconds.
type dist struct {
	// N is the sample count behind every percentile.
	N int
	// P50 is the median.
	P50 float64
	// P99 is the 99th percentile, 0 when fewer than ten samples lie beyond it.
	P99 float64
	// Tail is the highest percentile with at least ten samples beyond it,
	// and TailPct names that percentile (e.g. 99.9).
	Tail, TailPct float64
}

// summarize sorts ns in place and reports its median and qualified tails.
func summarize(ns []int64) dist {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	d := dist{N: len(ns)}
	if len(ns) == 0 {
		return d
	}
	d.P50 = float64(percentile(ns, 5000)) / 1e3
	if len(ns)-rankOf(len(ns), 9900) >= 10 {
		d.P99 = float64(percentile(ns, 9900)) / 1e3
	}
	if c, ok := highestTail(len(ns)); ok {
		d.Tail, d.TailPct = float64(percentile(ns, c))/1e3, float64(c)/100
	}
	return d
}

// median returns the median of xs, averaging the middle pair; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the acceptance driver computes a metric's spread from. It needs at least
// two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}
