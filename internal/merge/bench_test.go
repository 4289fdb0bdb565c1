package merge

import (
	"testing"

	"dpmg/internal/mg"
	"dpmg/internal/noise"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

func benchSummaries(b *testing.B, parts, k int, d uint64) []*Summary {
	b.Helper()
	sums := make([]*Summary, parts)
	for i := range sums {
		sk := mg.New(k, d)
		sk.Process(workload.Zipf(1<<16, int(d), 1.05, uint64(i+1)))
		s, err := FromCounters(k, d, sk.Counters())
		if err != nil {
			b.Fatal(err)
		}
		sums[i] = s
	}
	return sums
}

// BenchmarkMergeAllWide is the wide-aggregation case: 32 edge summaries of
// k=256 merged per iteration through a reused Merger (zero allocations in
// steady state).
func BenchmarkMergeAllWide(b *testing.B) {
	sums := benchSummaries(b, 32, 256, 1<<14)
	var m Merger
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.MergeAll(sums); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeFold is the root's fold at the fanin-fold workload's shape:
// a folded k=256 aggregate merged with one segment summary (8192 Zipf(1.05)
// items over a 2^20 universe), cycling 31 segment variants as that
// workload's edges do. The result is copied back into the aggregate's own
// columns, as a fold publishes a copy; the merge must not allocate.
func BenchmarkMergeFold(b *testing.B) {
	const k, d, variants = 256, 1 << 20, 31
	z := workload.NewZipfian(d, 1.05, 1)
	segs := make([]*Summary, variants)
	for i := range segs {
		sk := mg.New(k, d)
		sk.Process(z.Stream(8192))
		s, err := FromCounters(k, d, sk.Counters())
		if err != nil {
			b.Fatal(err)
		}
		segs[i] = s
	}
	agg := &Summary{K: k, keys: make([]stream.Item, 0, k), vals: make([]int64, 0, k)}
	in := []*Summary{agg, nil}
	var m Merger
	fold := func(i int) {
		in[1] = segs[i%variants]
		res, err := m.MergeAll(in)
		if err != nil {
			b.Fatal(err)
		}
		agg.keys = append(agg.keys[:0], res.keys...)
		agg.vals = append(agg.vals[:0], res.vals...)
	}
	for i := 0; i < variants; i++ {
		fold(i) // the aggregate fills up to k counters
	}
	if allocs := testing.AllocsPerRun(100, func() { fold(0) }); allocs != 0 {
		b.Fatalf("fold allocates %.1f times, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fold(i)
	}
}

// BenchmarkReleaseBounded is the Corollary 18 Laplace release over a merged
// flat summary: one noise draw per counter, no map rebuilds.
func BenchmarkReleaseBounded(b *testing.B) {
	sums := benchSummaries(b, 8, 256, 1<<14)
	merged, err := MergeAll(sums)
	if err != nil {
		b.Fatal(err)
	}
	src := noise.NewSource(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rel := ReleaseBoundedFlat(merged, 1, 1e-6, src); rel == nil {
			b.Fatal("nil release")
		}
	}
}
