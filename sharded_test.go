package dpmg

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"dpmg/internal/hist"
	"dpmg/internal/merge"
	"dpmg/internal/mg"
	"dpmg/internal/workload"
)

func TestShardedConcurrentIngest(t *testing.T) {
	const d = 10_000
	const workers = 8
	const perWorker = 50_000
	s := NewShardedSketch(16, 128, d)
	streams := make([][]Item, workers)
	var all []Item
	for w := range streams {
		str := workload.HeavyTail(perWorker, d, 4, 0.8, uint64(w+1))
		streams[w] = str
		all = append(all, str...)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(str []Item) {
			defer wg.Done()
			for _, x := range str {
				s.Update(x)
			}
		}(streams[w])
	}
	wg.Wait()
	// Exact reads on the live tier: N/Estimate may serve the bounded-stale
	// published view once auto-publish has fired mid-stream.
	if s.NExact() != workers*perWorker {
		t.Fatalf("N = %d want %d", s.NExact(), workers*perWorker)
	}
	f := hist.Exact(all)
	// Shard-local estimates respect the per-shard Fact 7 bound: never
	// overestimate, and the heavy items remain recoverable.
	for x := Item(1); x <= 4; x++ {
		if est := s.EstimateExact(x); est > f[x] || est < f[x]/2 {
			t.Errorf("item %d: estimate %d vs true %d", x, est, f[x])
		}
	}
	h, err := Release(s, Params{Eps: 1, Delta: 1e-6}, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for x := Item(1); x <= 4; x++ {
		if _, ok := h[x]; !ok {
			t.Errorf("heavy item %d missing from sharded release", x)
		}
	}
}

func TestShardedMatchesSingleSketchBound(t *testing.T) {
	// The merged shard summary must obey the N/(k+1) bound over the whole
	// stream.
	const d = 2_000
	str := workload.Zipf(200_000, d, 1.1, 7)
	s := NewShardedSketch(8, 64, d)
	for _, x := range str {
		s.Update(x)
	}
	sum, err := s.Summary()
	if err != nil {
		t.Fatal(err)
	}
	f := hist.Exact(str)
	slack := int64(len(str)) / 65
	for x, fx := range f {
		est := sum.inner.Estimate(x)
		if est > fx || est < fx-slack {
			t.Fatalf("item %d: merged estimate %d vs true %d (slack %d)", x, est, fx, slack)
		}
	}
}

func TestShardedRouting(t *testing.T) {
	s := NewShardedSketch(4, 8, 100)
	// The same item always lands in the same shard.
	for x := Item(1); x <= 100; x++ {
		a := s.shardOf(x)
		if b := s.shardOf(x); a != b {
			t.Fatal("routing not stable")
		}
		if a < 0 || a >= 4 {
			t.Fatal("shard index out of range")
		}
	}
}

// TestShardOfGolden pins the routing of a fixed item list at one shard
// count that reduces the hash with a modulo and two that reduce it with a
// mask. Snapshots store per-shard state, so a changed routing function
// would strand every restored counter in a shard its item no longer
// reaches; this table makes such a change fail here first.
func TestShardOfGolden(t *testing.T) {
	items := []Item{1, 2, 3, 4, 5, 7, 64, 255, 256, 257, 1000, 65535, 65536,
		1 << 20, 1<<20 + 1, 1<<32 - 1, 1 << 32, 1<<40 + 12345, 1<<63 - 1, 1<<64 - 1}
	golden := map[int][]int{
		3:  {1, 1, 0, 0, 1, 1, 2, 2, 1, 0, 1, 1, 2, 2, 0, 0, 2, 0, 0, 2},
		4:  {3, 1, 3, 1, 3, 0, 2, 0, 0, 0, 0, 0, 0, 3, 1, 0, 0, 0, 3, 3},
		16: {7, 1, 3, 9, 15, 12, 6, 0, 12, 8, 8, 8, 4, 15, 9, 4, 0, 4, 3, 3},
	}
	for n, want := range golden {
		s := NewShardedSketch(n, 1, 1)
		for i, x := range items {
			if got := s.shardOf(x); got != want[i] {
				t.Errorf("%d shards: shardOf(%d) = %d, want %d", n, x, got, want[i])
			}
		}
	}
}

// TestShardedBadItemLeavesShardsUnlocked is the regression test for a bad
// item panicking under a shard mutex: the panic must come before any lock
// is taken or any item applied, so a caller that recovers can keep using
// the sketch.
func TestShardedBadItemLeavesShardsUnlocked(t *testing.T) {
	const d = 100
	for _, n := range []int{1, 4} {
		s := NewShardedSketch(n, 8, d)
		good := workload.Uniform(500, d, 3)
		s.UpdateBatch(good)
		bad := append(append([]Item(nil), good...), d+1)
		for name, call := range map[string]func(){
			"UpdateBatch/above": func() { s.UpdateBatch(bad) },
			"UpdateBatch/zero":  func() { s.UpdateBatch([]Item{1, 2, 0, 3}) },
			"Update/above":      func() { s.Update(d + 1) },
			"Update/zero":       func() { s.Update(0) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%d shards: %s accepted an out-of-universe item", n, name)
					}
				}()
				call()
			}()
			if got := s.NExact(); got != int64(len(good)) {
				t.Fatalf("%d shards: %s applied part of its input: N = %d, want %d", n, name, got, len(good))
			}
		}
		// With a shard mutex left locked these would block until the test
		// binary's timeout.
		s.UpdateBatch(good)
		s.Update(1)
		if got := s.NExact(); got != int64(2*len(good)+1) {
			t.Fatalf("%d shards: N = %d after the follow-up updates, want %d", n, got, 2*len(good)+1)
		}
	}
}

func TestShardedValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shards=0 accepted")
		}
	}()
	NewShardedSketch(0, 8, 10)
}

func TestShardedReleaseRejectsBadParams(t *testing.T) {
	s := NewShardedSketch(2, 8, 10)
	if _, err := Release(s, Params{Eps: 0, Delta: 0.1}, WithSeed(1)); err == nil {
		t.Error("eps=0 accepted")
	}
}

// TestShardedConcurrentStress interleaves every public operation —
// single-item updates, batch updates, estimates, N, ReleaseView-based
// releases, and Summary extraction — from many goroutines. Under -race
// (the CI test mode) this is the safety net for the sharded tier's locking:
// the padded shard mutexes, the pooled batch scratch, and the release
// mutex guarding the shared merge scratch. Assertions are deliberately
// weak (no torn state, conserved totals); the point is the interleaving.
func TestShardedConcurrentStress(t *testing.T) {
	const (
		d         = 5_000
		writers   = 4
		batchers  = 2
		perWriter = 8_000
		batchSize = 257
		readers   = 2
		releases  = 6
	)
	s := NewShardedSketch(8, 64, d)
	var wg sync.WaitGroup

	total := int64(0)
	for w := 0; w < writers; w++ {
		str := workload.HeavyTail(perWriter, d, 4, 0.8, uint64(100+w))
		total += int64(len(str))
		wg.Add(1)
		go func(str []Item) {
			defer wg.Done()
			for _, x := range str {
				s.Update(x)
			}
		}(str)
	}
	for w := 0; w < batchers; w++ {
		str := workload.Zipf(perWriter, d, 1.1, uint64(200+w))
		total += int64(len(str))
		wg.Add(1)
		go func(str []Item) {
			defer wg.Done()
			for i := 0; i < len(str); i += batchSize {
				end := i + batchSize
				if end > len(str) {
					end = len(str)
				}
				s.UpdateBatch(str[i:end])
			}
		}(str)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				if n := s.N(); n < 0 {
					t.Errorf("negative N %d", n)
					return
				}
				if est := s.Estimate(Item(i%d + 1)); est < 0 {
					t.Errorf("negative estimate %d", est)
					return
				}
			}
		}(uint64(r))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < releases; i++ {
			// ReleaseView (and the deprecated Release wrapper) must be safe
			// to run while writers are mid-stream: each release snapshots
			// shard by shard under the shard locks and merges under relMu.
			if _, err := Release(s, Params{Eps: 1, Delta: 1e-6}, WithSeed(uint64(i))); err != nil {
				t.Errorf("concurrent release: %v", err)
				return
			}
			if _, err := s.Summary(); err != nil {
				t.Errorf("concurrent summary: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if n := s.NExact(); n != total {
		t.Fatalf("N = %d after quiesce, want %d", n, total)
	}
	// A post-quiesce release still works and sees the heavy items.
	h, err := Release(s, Params{Eps: 1, Delta: 1e-6}, WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	if len(h) == 0 {
		t.Fatal("release empty after stress ingest")
	}
}

// TestMergedLenMatchesMergeAll pins the evict path's raw-tier tally, which
// is counted from the shards' full counter tables without merging, to what
// it replaced: the length of the merged shard summaries. Shards hold
// disjoint items, as a sharded sketch's do. Random shard
// states draw small counters, so ties at the (k+1)-th largest value are
// common; real keys are drawn sparsely, so dummy keys stay in most tables;
// and the fixed cases cover all-zero shards, at most k positive counters,
// and a tie at the cut.
func TestMergedLenMatchesMergeAll(t *testing.T) {
	check := func(name string, k int, shards []*mg.Sketch) {
		t.Helper()
		var vals []int64
		sums := make([]*merge.Summary, len(shards))
		for i, sk := range shards {
			_, vals = sk.AppendAll(nil, vals)
			keys, counts := sk.AppendReal(nil, nil)
			sum, err := merge.FromSorted(k, keys, counts)
			if err != nil {
				t.Fatal(err)
			}
			sums[i] = sum
		}
		merged, err := merge.MergeAll(sums)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := mergedLen(k, vals, nil); got != merged.Len() {
			t.Fatalf("%s: mergedLen = %d, MergeAll(...).Len() = %d (vals %v)", name, got, merged.Len(), vals)
		}
	}
	// disjoint maps r to an item of shard i's own residue class, since a
	// sharded sketch routes every item to exactly one shard.
	disjoint := func(i, shards, r int) Item {
		return Item(1 + i + shards*(r/shards))
	}
	// restore builds a k-counter shard over [1, d] holding counts on the
	// given real keys, dummies filling the rest of the table.
	restore := func(k int, d uint64, counts map[Item]int64) *mg.Sketch {
		t.Helper()
		keys := make([]Item, 0, k)
		for x := range counts {
			keys = append(keys, x)
		}
		slices.Sort(keys)
		for i := 1; len(keys) < k; i++ {
			keys = append(keys, Item(d+uint64(i)))
		}
		vals := make([]int64, k)
		var n int64
		for i, x := range keys {
			vals[i] = counts[x]
			n += vals[i]
		}
		sk, err := mg.RestoreColumns(k, d, n, 0, keys, vals)
		if err != nil {
			t.Fatal(err)
		}
		return sk
	}
	const d = 60 // a multiple of every shard count drawn, so disjoint stays in [1, d]
	check("all-zero shards", 4, []*mg.Sketch{mg.New(4, d), mg.New(4, d), mg.New(4, d)})
	check("at most k positive", 4, []*mg.Sketch{
		restore(4, d, map[Item]int64{1: 3, 2: 1}), restore(4, d, map[Item]int64{3: 2, 4: 2}),
	})
	check("tie at the (k+1)-th value", 2, []*mg.Sketch{
		restore(2, d, map[Item]int64{1: 5, 2: 3}), restore(2, d, map[Item]int64{3: 3, 4: 3}),
	})
	check("tie above the cut", 2, []*mg.Sketch{
		restore(2, d, map[Item]int64{1: 4, 2: 4}), restore(2, d, map[Item]int64{3: 4, 4: 1}),
	})
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 2000; trial++ {
		k := 1 + rng.IntN(6)
		shards := make([]*mg.Sketch, 1+rng.IntN(5))
		for i := range shards {
			counts := make(map[Item]int64)
			for j := rng.IntN(k + 1); j > 0; j-- {
				counts[disjoint(i, len(shards), rng.IntN(d))] = int64(rng.IntN(4))
			}
			shards[i] = restore(k, d, counts)
		}
		check(fmt.Sprintf("trial %d", trial), k, shards)
	}
	// Live sketches too, decrement-all steps included.
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.IntN(8)
		shards := make([]*mg.Sketch, 1+rng.IntN(4))
		for i := range shards {
			shards[i] = mg.New(k, d)
			for j := rng.IntN(200); j > 0; j-- {
				shards[i].Update(disjoint(i, len(shards), rng.IntN(1+rng.IntN(d))))
			}
		}
		check(fmt.Sprintf("live trial %d", trial), k, shards)
	}
}
