package merge

// Differential tests pinning the flat merge/release tier to its map-based
// counterparts: the flat MergeAll must reproduce the map reference's
// counter table exactly (ref_test.go is the executable spec, like mg.Ref
// for the sketch core), and the flat release loop must draw noise in
// exactly the order the map loop draws it, so a release through either
// representation is byte-identical under the same seed.

import (
	"math/rand/v2"
	"slices"
	"testing"

	"dpmg/internal/hist"
	"dpmg/internal/mg"
	"dpmg/internal/noise"
	"dpmg/internal/stream"
)

func randomSummaries(t *testing.T, rng *rand.Rand, parts, k int, d uint64) []*Summary {
	t.Helper()
	sums := make([]*Summary, parts)
	for p := range sums {
		sk := mg.New(k, d)
		n := rng.IntN(200)
		for i := 0; i < n; i++ {
			sk.Update(stream.Item(rng.IntN(int(d)) + 1))
		}
		s, err := FromCounters(k, d, sk.Counters())
		if err != nil {
			t.Fatal(err)
		}
		sums[p] = s
	}
	return sums
}

func TestMergeAllMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	var m Merger // reused across trials: scratch reuse must not leak state
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.IntN(8)
		d := uint64(2 + rng.IntN(20))
		sums := randomSummaries(t, rng, 1+rng.IntN(6), k, d)
		want := mergeAllRef(sums)
		got, err := m.MergeAll(sums)
		if err != nil {
			t.Fatal(err)
		}
		if err := equalToRef(got, want); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestMergeMatchesRefPairwise(t *testing.T) {
	// The binary Merge is the m=2 case of the multi-way rule; pin it to the
	// reference separately since the server's incremental fold uses it.
	rng := rand.New(rand.NewPCG(13, 14))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.IntN(6)
		d := uint64(2 + rng.IntN(12))
		sums := randomSummaries(t, rng, 2, k, d)
		got, err := Merge(sums[0], sums[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := equalToRef(got, mergeAllRef(sums)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// releaseBoundedRef is the Corollary 18 release over a counter map — the
// executable spec ReleaseBoundedColumns is pinned against: sort the keys,
// then one Laplace(k/eps) draw per positive counter in ascending key order.
func releaseBoundedRef(counts map[stream.Item]int64, k int, eps, delta float64, src noise.Source) hist.Estimate {
	keys := make([]stream.Item, 0, len(counts))
	for x := range counts {
		keys = append(keys, x)
	}
	slices.Sort(keys)
	scale := BoundedScale(eps, k)
	thresh := BoundedThreshold(eps, delta, k)
	out := make(hist.Estimate)
	for _, x := range keys {
		if c := counts[x]; c > 0 {
			if v := float64(c) + noise.Laplace(src, scale); v >= thresh {
				out[x] = v
			}
		}
	}
	return out
}

func TestReleaseBoundedFlatMatchesMap(t *testing.T) {
	// Same summary, same seed: the flat release and the map reference must
	// produce identical histograms, because they must consume the noise
	// stream in the same (ascending-key) order.
	rng := rand.New(rand.NewPCG(15, 16))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.IntN(8)
		d := uint64(2 + rng.IntN(30))
		merged, err := MergeAll(randomSummaries(t, rng, 1+rng.IntN(5), k, d))
		if err != nil {
			t.Fatal(err)
		}
		seed := rng.Uint64()
		eps := 0.5 + rng.Float64()
		flat := ReleaseBoundedFlat(merged, eps, 1e-6, noise.NewSource(seed))
		viaMap := releaseBoundedRef(merged.CountsMap(), merged.K, eps, 1e-6, noise.NewSource(seed))
		if len(flat) != len(viaMap) {
			t.Fatalf("trial %d: support drift: flat %d, map %d", trial, len(flat), len(viaMap))
		}
		for x, v := range viaMap {
			if flat[x] != v {
				t.Fatalf("trial %d: value drift at %d: flat %v, map %v", trial, x, flat[x], v)
			}
		}
	}
}

func TestMergerSelfMergeSafe(t *testing.T) {
	// Feeding a Merger's own borrowed result back as an input must not
	// corrupt the merge: the Merger detects the aliasing and moves to fresh
	// scratch. Construct the hazardous shape deliberately — the second
	// merge's other input sorts before the borrowed result's keys, so
	// without the guard the output cursor would overtake the read cursor.
	rng := rand.New(rand.NewPCG(21, 22))
	for trial := 0; trial < 100; trial++ {
		k := 2 + rng.IntN(6)
		d := uint64(30)
		var m Merger
		first, err := m.MergeAll(randomSummaries(t, rng, 3, k, d))
		if err != nil {
			t.Fatal(err)
		}
		// Low keys (1..10) so they merge ahead of most of first's keys.
		low := mg.New(k, d)
		for i := 0; i < 50; i++ {
			low.Update(stream.Item(rng.IntN(10) + 1))
		}
		other, err := FromCounters(k, d, low.Counters())
		if err != nil {
			t.Fatal(err)
		}
		want := mergeAllRef([]*Summary{other, first.Clone()})
		got, err := m.MergeAll([]*Summary{other, first})
		if err != nil {
			t.Fatal(err)
		}
		if err := equalToRef(got, want); err != nil {
			t.Fatalf("trial %d: self-merge corrupted: %v", trial, err)
		}
	}

	// Wider merges write intermediate sums to both halves of the scratch, so
	// a previous result must be safe at every input position — and so must
	// a summary rebound over the tail of one, which starts inside the
	// scratch rather than at its first element.
	for n := 2; n <= 9; n++ {
		for pos := 0; pos < n; pos++ {
			for _, tail := range []bool{false, true} {
				k := 2 + rng.IntN(6)
				var m Merger
				prev, err := m.MergeAll(randomSummaries(t, rng, n, k, 30))
				if err != nil {
					t.Fatal(err)
				}
				if tail && prev.Len() > 1 {
					if prev, err = FromSorted(k, prev.Keys()[1:], prev.Counts()[1:]); err != nil {
						t.Fatal(err)
					}
				}
				sums := randomSummaries(t, rng, n, k, 30)
				sums[pos] = prev.Clone()
				want := mergeAllRef(sums)
				sums[pos] = prev
				got, err := m.MergeAll(sums)
				if err != nil {
					t.Fatal(err)
				}
				if err := equalToRef(got, want); err != nil {
					t.Fatalf("n=%d pos=%d tail=%v: self-merge corrupted: %v", n, pos, tail, err)
				}
			}
		}
	}
}

// TestMergeAllMatchesRefTree pins the merge tree to the reference at every
// input count from 1 to 33, so every shape of lone input at some tree
// level is covered, over four kinds of input: random sketches, random
// sketches with empty summaries mixed in, shard-style summaries over
// disjoint key classes, and summaries that all hold one key set.
func TestMergeAllMatchesRefTree(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	var m Merger // reused across counts: scratch reuse must not leak state
	shapes := []struct {
		name  string
		build func(n, k int) []*Summary
	}{
		{"random", func(n, k int) []*Summary {
			return randomSummaries(t, rng, n, k, uint64(2+rng.IntN(40)))
		}},
		{"with-empty", func(n, k int) []*Summary {
			sums := randomSummaries(t, rng, n, k, uint64(2+rng.IntN(40)))
			for i := range sums {
				if rng.IntN(3) == 0 {
					sums[i] = mustSummary(t, k, nil)
				}
			}
			return sums
		}},
		{"disjoint", func(n, k int) []*Summary {
			sums := make([]*Summary, n)
			for i := range sums {
				counts := make(map[stream.Item]int64)
				for r := rng.IntN(k + 1); r > 0; r-- {
					counts[stream.Item(1+i+n*rng.IntN(3*k))] = 1 + rng.Int64N(20)
				}
				sums[i] = mustSummary(t, k, counts)
			}
			return sums
		}},
		{"same-keys", func(n, k int) []*Summary {
			sums := make([]*Summary, n)
			for i := range sums {
				counts := make(map[stream.Item]int64)
				for x := 1; x <= k; x++ {
					counts[stream.Item(x)] = 1 + rng.Int64N(1<<40)
				}
				sums[i] = mustSummary(t, k, counts)
			}
			return sums
		}},
	}
	for n := 1; n <= 33; n++ {
		for _, shape := range shapes {
			for trial := 0; trial < 4; trial++ {
				sums := shape.build(n, 1+rng.IntN(8))
				want := mergeAllRef(sums)
				got, err := m.MergeAll(sums)
				if err != nil {
					t.Fatal(err)
				}
				if err := equalToRef(got, want); err != nil {
					t.Fatalf("%d %s inputs, trial %d: %v", n, shape.name, trial, err)
				}
			}
		}
	}
}
