package merge

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"dpmg/internal/hist"
	"dpmg/internal/mg"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

func summarize(t *testing.T, k int, d uint64, str stream.Stream) *Summary {
	t.Helper()
	sk := mg.New(k, d)
	sk.Process(str)
	s, err := FromCounters(k, d, sk.Counters())
	if err != nil {
		t.Fatalf("FromCounters: %v", err)
	}
	return s
}

func TestMergeErrorBound(t *testing.T) {
	// Lemma 29 / [1]: a merged summary over streams of total length N has
	// estimates in [f(x) - N/(k+1), f(x)].
	k := 16
	d := uint64(500)
	var summaries []*Summary
	var all stream.Stream
	for i := 0; i < 8; i++ {
		str := workload.Zipf(10000, int(d), 1.1, uint64(i+1))
		all = append(all, str...)
		summaries = append(summaries, summarize(t, k, d, str))
	}
	merged, err := MergeAll(summaries)
	if err != nil {
		t.Fatal(err)
	}
	f := hist.Exact(all)
	slack := int64(len(all)) / int64(k+1)
	for x, fx := range f {
		est := merged.Estimate(x)
		if est > fx {
			t.Fatalf("item %d: estimate %d > true %d", x, est, fx)
		}
		if est < fx-slack {
			t.Fatalf("item %d: estimate %d < %d - %d", x, est, fx, slack)
		}
	}
	if merged.Len() > k {
		t.Fatalf("merged summary has %d > k counters", merged.Len())
	}
}

func TestMergeErrorBoundRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 3))
	for trial := 0; trial < 100; trial++ {
		k := 2 + rng.IntN(6)
		d := uint64(3 + rng.IntN(10))
		parts := 2 + rng.IntN(4)
		var summaries []*Summary
		var all stream.Stream
		for p := 0; p < parts; p++ {
			n := rng.IntN(60)
			str := make(stream.Stream, n)
			for i := range str {
				str[i] = stream.Item(rng.IntN(int(d)) + 1)
			}
			all = append(all, str...)
			summaries = append(summaries, summarize(t, k, d, str))
		}
		merged, err := MergeAll(summaries)
		if err != nil {
			t.Fatal(err)
		}
		f := hist.Exact(all)
		slack := int64(len(all)) / int64(k+1)
		for x, fx := range f {
			est := merged.Estimate(x)
			if est > fx || est < fx-slack {
				t.Fatalf("trial %d item %d: est %d true %d slack %d", trial, x, est, fx, slack)
			}
		}
	}
}

func TestLemma17SingleMerge(t *testing.T) {
	// Lemma 17: if the first summary pair has the one-sided 0/1 structure,
	// the merged pair keeps it. Build neighboring pairs from real sketches.
	rng := rand.New(rand.NewPCG(7, 8))
	trials := 1000
	if testing.Short() {
		trials = 100
	}
	for trial := 0; trial < trials; trial++ {
		k := 2 + rng.IntN(4)
		d := uint64(3 + rng.IntN(6))
		n := 1 + rng.IntN(50)
		str := make(stream.Stream, n)
		for i := range str {
			str[i] = stream.Item(rng.IntN(int(d)) + 1)
		}
		a := summarize(t, k, d, str)
		aPrime := summarize(t, k, d, str.RemoveAt(rng.IntN(n)))
		if CheckNeighborStructure(a.CountsMap(), aPrime.CountsMap()) != nil {
			// Lemma 8 guarantees this structure only after dropping zero
			// counters, which FromCounters does; it must always hold.
			t.Fatalf("trial %d: input pair lacks 0/1 structure", trial)
		}
		// Merge both with the same second summary.
		m := rng.IntN(40)
		other := make(stream.Stream, m)
		for i := range other {
			other[i] = stream.Item(rng.IntN(int(d)) + 1)
		}
		b := summarize(t, k, d, other)
		ma, err := Merge(a, b)
		if err != nil {
			t.Fatal(err)
		}
		maPrime, err := Merge(aPrime, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckNeighborStructure(ma.CountsMap(), maPrime.CountsMap()); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestCorollary18ManyMerges(t *testing.T) {
	// Corollary 18: the 0/1 structure survives any number of merges in any
	// fixed order, so the sensitivity is independent of the merge count.
	rng := rand.New(rand.NewPCG(9, 10))
	for trial := 0; trial < 100; trial++ {
		k := 2 + rng.IntN(4)
		d := uint64(3 + rng.IntN(6))
		parts := 2 + rng.IntN(6)
		streams := make([]stream.Stream, parts)
		for p := range streams {
			n := 1 + rng.IntN(40)
			streams[p] = make(stream.Stream, n)
			for i := range streams[p] {
				streams[p][i] = stream.Item(rng.IntN(int(d)) + 1)
			}
		}
		// Neighbor: remove one element from one part.
		pi := rng.IntN(parts)
		idx := rng.IntN(len(streams[pi]))

		build := func(modify bool) *Summary {
			var summaries []*Summary
			for p, str := range streams {
				if modify && p == pi {
					str = str.RemoveAt(idx)
				}
				summaries = append(summaries, summarize(t, k, d, str))
			}
			merged, err := MergeAll(summaries)
			if err != nil {
				t.Fatal(err)
			}
			return merged
		}
		a, b := build(false), build(true)
		if err := CheckNeighborStructure(a.CountsMap(), b.CountsMap()); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if l1 := hist.L1Distance(a.CountsMap(), b.CountsMap()); l1 > float64(k) {
			t.Fatalf("trial %d: merged l1 sensitivity %v > k", trial, l1)
		}
	}
}

// mustSummary builds a summary from a counter table, failing the test on
// invalid input.
func mustSummary(t *testing.T, k int, counts map[stream.Item]int64) *Summary {
	t.Helper()
	s, err := FromCounters(k, 0, counts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMergeSizeMismatch(t *testing.T) {
	a := mustSummary(t, 4, nil)
	b := mustSummary(t, 5, nil)
	if _, err := Merge(a, b); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestMergeAllEmpty(t *testing.T) {
	if _, err := MergeAll(nil); err == nil {
		t.Error("empty MergeAll accepted")
	}
}

func TestFromCountersValidation(t *testing.T) {
	if _, err := FromCounters(0, 0, nil); err == nil {
		t.Error("k=0 accepted")
	}
	// Too many positive counters.
	c := map[stream.Item]int64{1: 1, 2: 1, 3: 1}
	if _, err := FromCounters(2, 0, c); err == nil {
		t.Error("overfull counter table accepted")
	}
	// Dummies above the universe and zero counters must be dropped.
	c2 := map[stream.Item]int64{1: 2, 7: 0, 101: 5}
	s, err := FromCounters(2, 100, c2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Estimate(1) != 2 {
		t.Fatalf("Counts = %v", s.CountsMap())
	}
}

func TestFromSortedValidation(t *testing.T) {
	if _, err := FromSorted(0, nil, nil); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := FromSorted(4, []stream.Item{1, 2}, []int64{1}); err == nil {
		t.Error("ragged columns accepted")
	}
	if _, err := FromSorted(2, []stream.Item{1, 2, 3}, []int64{1, 1, 1}); err == nil {
		t.Error("overfull summary accepted")
	}
	if _, err := FromSorted(4, []stream.Item{2, 1}, []int64{1, 1}); err == nil {
		t.Error("descending keys accepted")
	}
	if _, err := FromSorted(4, []stream.Item{1, 1}, []int64{1, 1}); err == nil {
		t.Error("duplicate keys accepted")
	}
	if _, err := FromSorted(4, []stream.Item{1, 2}, []int64{1, 0}); err == nil {
		t.Error("non-positive counter accepted")
	}
	s, err := FromSorted(4, []stream.Item{3, 9}, []int64{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Estimate(3) != 2 || s.Estimate(9) != 5 || s.Estimate(4) != 0 {
		t.Fatalf("FromSorted contents wrong: %v", s.CountsMap())
	}
}

func TestMergeSmallInputsNoSubtraction(t *testing.T) {
	// Union fits within k: merge must be exact addition.
	a := mustSummary(t, 4, map[stream.Item]int64{1: 3, 2: 1})
	b := mustSummary(t, 4, map[stream.Item]int64{1: 2, 3: 5})
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := map[stream.Item]int64{1: 5, 2: 1, 3: 5}
	for x, w := range want {
		if m.Estimate(x) != w {
			t.Fatalf("Counts = %v", m.CountsMap())
		}
	}
}

func TestMergeSubtractsKPlusFirst(t *testing.T) {
	// 3 counters, k=2: subtract the 3rd largest from all.
	a := mustSummary(t, 2, map[stream.Item]int64{1: 10, 2: 4})
	b := mustSummary(t, 2, map[stream.Item]int64{3: 7})
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// values 10,7,4 -> subtract 4 -> {1:6, 3:3}
	if m.Len() != 2 || m.Estimate(1) != 6 || m.Estimate(3) != 3 {
		t.Fatalf("Counts = %v", m.CountsMap())
	}
}

func TestCloneIndependent(t *testing.T) {
	a := mustSummary(t, 2, map[stream.Item]int64{1: 1})
	c := a.Clone()
	c.Counts()[0] = 99 // mutate the clone's backing storage
	if a.Estimate(1) != 1 {
		t.Error("Clone shares storage")
	}
}

// CheckNeighborStructure verifies the Lemma 17 / Corollary 18 invariant on
// two merged counter tables from neighboring inputs: one table's key set
// contains the other's and counters differ by at most 1, all in the same
// direction. This is the same structure as pamg.CheckNeighborStructure and
// is what qualifies merged sketches for the Gaussian Sparse Histogram
// Mechanism with l = k.
func CheckNeighborStructure(c, cPrime map[stream.Item]int64) error {
	if oneSided(c, cPrime) || oneSided(cPrime, c) {
		return nil
	}
	return fmt.Errorf("merge: Lemma 17 structure violated: %v vs %v", c, cPrime)
}
