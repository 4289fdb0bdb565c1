package merge

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"dpmg/internal/stream"
)

// killerMedian3 is Musser's median-of-3 killer ("Introspective Sorting and
// Selection Algorithms", 1997) for even n: it keeps a first/middle/last
// median pivot near the ends of the range, so partitions stay lopsided.
func killerMedian3(n int) []int64 {
	a := make([]int64, n)
	h := n / 2
	for i := 1; i <= h; i++ {
		if i%2 == 1 {
			a[i-1] = int64(i)
		} else {
			a[i-1] = int64(h + i - 1)
		}
		a[h+i-1] = int64(2 * i)
	}
	return a
}

// TestSelectNthMatchesSort pins the selection to a sort on the shapes that
// break naive quickselects — sorted, reversed, all-equal, organ-pipe and the
// median-of-3 killer — plus random counts with many ties, at sizes up to
// 2^16, and requires the depth bound to have cut in on the killer: the
// fallback is what keeps a hostile edge's crafted counts from making the
// merge quadratic.
func TestSelectNthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	shapes := []struct {
		name string
		gen  func(n int) []int64
	}{
		{"sorted", func(n int) []int64 {
			a := make([]int64, n)
			for i := range a {
				a[i] = int64(i)
			}
			return a
		}},
		{"reversed", func(n int) []int64 {
			a := make([]int64, n)
			for i := range a {
				a[i] = int64(n - i)
			}
			return a
		}},
		{"all-equal", func(n int) []int64 {
			a := make([]int64, n)
			for i := range a {
				a[i] = 7
			}
			return a
		}},
		{"organ-pipe", func(n int) []int64 {
			a := make([]int64, n)
			for i := range a {
				a[i] = int64(min(i, n-1-i))
			}
			return a
		}},
		{"median-of-3-killer", killerMedian3},
		{"random-ties", func(n int) []int64 {
			a := make([]int64, n)
			for i := range a {
				a[i] = 1 + rng.Int64N(8)
			}
			return a
		}},
	}
	fellBack := make(map[string]bool)
	for _, n := range []int{1, 2, 3, 12, 13, 14, 100, 333, 820, 1299, 4096, 1 << 16} {
		for _, shape := range shapes {
			in := shape.gen(n)
			ref := slices.Clone(in)
			slices.Sort(ref)
			for _, nth := range []int{0, n / 4, n / 2, n - 1 - min(256, n-1), n - 1, rng.IntN(n)} {
				a := slices.Clone(in)
				v, fb := selectNth(a, nth)
				if v != ref[nth] {
					t.Fatalf("%s n=%d nth=%d: got %d, sort says %d", shape.name, n, nth, v, ref[nth])
				}
				slices.Sort(a)
				if !slices.Equal(a, ref) {
					t.Fatalf("%s n=%d nth=%d: selection lost or invented values", shape.name, n, nth)
				}
				if n == 1<<16 {
					fellBack[shape.name] = fellBack[shape.name] || fb
				}
			}
		}
	}
	if !fellBack["median-of-3-killer"] {
		t.Error("the median-of-3 killer never reached the depth bound's fallback sort")
	}
	for _, benign := range []string{"sorted", "reversed", "all-equal"} {
		if fellBack[benign] {
			t.Errorf("%s input fell back to sorting", benign)
		}
	}
}

// TestKPlusFirstLargest pins the merge's subtraction value: the (k+1)-th
// largest, and 0 when at most k values exist.
func TestKPlusFirstLargest(t *testing.T) {
	for _, tc := range []struct {
		vals []int64
		k    int
		want int64
	}{
		{nil, 0, 0},
		{[]int64{5}, 1, 0},
		{[]int64{5, 9}, 2, 0},
		{[]int64{10, 4, 7}, 2, 4},
		{[]int64{10, 4, 7}, 0, 10},
		{[]int64{3, 3, 3, 3}, 1, 3},
	} {
		if got := KPlusFirstLargest(slices.Clone(tc.vals), tc.k); got != tc.want {
			t.Errorf("KPlusFirstLargest(%v, %d) = %d, want %d", tc.vals, tc.k, got, tc.want)
		}
	}
}

// TestMergeAllOverflow is the regression test for wrapped sums: two counts
// of 2^62 used to add to -2^63 and come back as a negative estimate. The
// merge must refuse instead, at every input count and position, while a sum
// that reaches math.MaxInt64 exactly still merges.
func TestMergeAllOverflow(t *testing.T) {
	big := mustSummary(t, 4, map[stream.Item]int64{7: 1 << 62})
	other := mustSummary(t, 4, map[stream.Item]int64{3: 1, 9: 2})
	var m Merger
	for n := 2; n <= 6; n++ {
		for pos := 0; pos < n-1; pos++ {
			sums := make([]*Summary, n)
			for i := range sums {
				sums[i] = other
			}
			sums[pos], sums[n-1] = big, big
			if got, err := m.MergeAll(sums); err == nil {
				t.Fatalf("n=%d pos=%d: overflowing merge accepted: %v", n, pos, got.CountsMap())
			}
		}
	}
	if _, err := Merge(big, big); err == nil {
		t.Fatal("Merge accepted an overflowing pair")
	}
	edge := mustSummary(t, 4, map[stream.Item]int64{7: math.MaxInt64 - 1})
	one := mustSummary(t, 4, map[stream.Item]int64{7: 1})
	got, err := m.MergeAll([]*Summary{edge, one})
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate(7) != math.MaxInt64 {
		t.Fatalf("estimate %d, want MaxInt64", got.Estimate(7))
	}
}
