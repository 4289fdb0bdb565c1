package dpmg

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The tests in this file pin the published read path's consistency
// contract: every value served from a published view was exact at some
// publish point (bounded staleness), reads are monotone per item under
// increment-only workloads, and the exact accessors always agree with the
// live counters once writers quiesce.
//
// The workload shape makes the contract checkable: each writer hammers one
// distinct item in fixed-size uniform batches, so (with ≤ k distinct items
// the sketch never decrements and each batch lands under one shard lock)
// every fold — published or exact — must observe every per-item count at a
// batch boundary. A torn read, a count from a half-applied batch, or a
// view assembled outside the shard locks would all break the multiple-of-
// batch invariant immediately.

// TestPublishedReadsDifferential races readers against ingest on a
// ShardedSketch with an aggressive publish threshold and checks every read
// against the bounded-staleness contract, then pins exact agreement at
// quiesce.
func TestPublishedReadsDifferential(t *testing.T) {
	const (
		workers = 4
		rounds  = 200
		batch   = 64
	)
	s := NewShardedSketch(4, 64, 1<<20)
	s.SetPublishEvery(1024) // republish constantly so readers cross many epochs

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			xs := make([]Item, batch)
			for i := range xs {
				xs[i] = Item(w + 1)
			}
			for r := 0; r < rounds; r++ {
				s.UpdateBatch(xs)
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			lastN := int64(0)
			lastEst := [workers]int64{}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := s.N(); n%batch != 0 || n < lastN || n > workers*rounds*batch {
					t.Errorf("published N = %d (last %d): not a batch-aligned monotone value", n, lastN)
					return
				} else {
					lastN = n
				}
				for w := 0; w < workers; w++ {
					est := s.Estimate(Item(w + 1))
					if est%batch != 0 || est < lastEst[w] || est > rounds*batch {
						t.Errorf("published Estimate(%d) = %d (last %d): was never exact at a publish point", w+1, est, lastEst[w])
						return
					}
					lastEst[w] = est
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	// Quiesced: one forced publish must converge the published path onto
	// the exact one.
	if err := s.Publish(); err != nil {
		t.Fatal(err)
	}
	if n, exact := s.N(), s.NExact(); n != exact || exact != workers*rounds*batch {
		t.Fatalf("post-publish N = %d, NExact = %d, want %d", n, exact, workers*rounds*batch)
	}
	for w := 0; w < workers; w++ {
		if est, exact := s.Estimate(Item(w+1)), s.EstimateExact(Item(w+1)); est != exact || exact != rounds*batch {
			t.Fatalf("post-publish Estimate(%d) = %d, exact %d, want %d", w+1, est, exact, rounds*batch)
		}
	}
}

// TestStreamEpochEstimateMatchesExact pins the Stream-level read path: the
// published fast path must fold the node-aggregate tier in exactly like
// the exact path, and a quiesced publish converges the two.
func TestStreamEpochEstimateMatchesExact(t *testing.T) {
	m := testManager(t)
	st, _, err := m.CreateStream("s", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateBatch([]Item{1, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// A shipped node summary lands in the aggregate tier (disjoint items so
	// the expected counts are unambiguous).
	edge := NewSketch(st.Config().K, st.Config().Universe)
	for _, x := range []Item{7, 7, 7, 8} {
		edge.Update(x)
	}
	sum, err := edge.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.FoldSummary(sum); err != nil {
		t.Fatal(err)
	}
	if err := st.sharded.Load().Publish(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		x    Item
		want int64
	}{{1, 2}, {2, 1}, {3, 1}, {7, 3}, {8, 1}, {9, 0}} {
		if got := st.Estimate(c.x); got != c.want {
			t.Errorf("Estimate(%d) = %d, want %d", c.x, got, c.want)
		}
		if got := st.EstimateExact(c.x); got != c.want {
			t.Errorf("EstimateExact(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

// TestStatsServedFromFreshView pins the Stats freshness gate: with writers
// quiesced and a view published, the raw-tier tally must come out equal to
// the full shard fold (the gate may only take the cheap path when it is
// exact), including right after more ingest invalidates the view.
func TestStatsServedFromFreshView(t *testing.T) {
	m := testManager(t)
	st, _, err := m.CreateStream("s", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	foldLen := func() int {
		sum, err := st.sharded.Load().Summary()
		if err != nil {
			t.Fatal(err)
		}
		return sum.inner.Len()
	}
	if err := st.UpdateBatch([]Item{1, 1, 2, 3, 5, 8}); err != nil {
		t.Fatal(err)
	}
	// Summary() above refreshed the view, so this Stats hits the gate.
	want := foldLen()
	stats, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.IngestCounters != want {
		t.Fatalf("fresh-view IngestCounters = %d, want %d", stats.IngestCounters, want)
	}
	// New ingest makes the view stale: the gate must fall back to the fold
	// and still report the live tally.
	if err := st.UpdateBatch([]Item{13, 21}); err != nil {
		t.Fatal(err)
	}
	sh := st.sharded.Load()
	if p := sh.pub.Load(); p != nil && p.n == sh.total.Load() {
		t.Fatal("view cannot be fresh right after unpublished ingest")
	}
	stats, err = st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if want := foldLen(); stats.IngestCounters != want {
		t.Fatalf("stale-view IngestCounters = %d, want %d", stats.IngestCounters, want)
	}
}

// TestEpochReadStorm is the -race schedule's read-path stress: estimate
// and stats readers storm a stream while writers ingest and an eviction
// storm offloads and faults it in underneath them. Readers must always see
// batch-aligned, monotone, in-range values (stale is allowed, torn is
// not), and the exact path must account for every admitted batch at the
// end.
func TestEpochReadStorm(t *testing.T) { epochReadStorm(t, true) }

// TestEpochReadStormEstimateOnly is the storm with estimate readers only.
// A Stats call republishes the view whenever it has fallen behind, which
// hid a reader going backwards: Estimate on an offloaded stream used to
// fault it in and read live counters, and the next Estimate read the older
// view the fault-in published.
func TestEpochReadStormEstimateOnly(t *testing.T) { epochReadStorm(t, false) }

func epochReadStorm(t *testing.T, withStats bool) {
	m, _, _, _ := lifecycleManager(t)
	if _, _, err := m.CreateStream("s", StreamConfig{}); err != nil {
		t.Fatal(err)
	}
	st, _ := m.Stream("s")
	st.sharded.Load().SetPublishEvery(1024)
	const (
		workers = 2
		rounds  = 100
		batch   = 128
	)
	var writers sync.WaitGroup
	var writersDone atomic.Bool
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			xs := make([]Item, batch)
			for i := range xs {
				xs[i] = Item(w + 1)
			}
			for r := 0; r < rounds; r++ {
				if err := st.UpdateBatch(xs); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var churn sync.WaitGroup
	churn.Add(1)
	go func() { // eviction storm: readers cross sketch generations
		defer churn.Done()
		for !writersDone.Load() {
			if _, err := m.Evict("s"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := [workers]int64{}
			for !writersDone.Load() {
				for w := 0; w < workers; w++ {
					est := st.Estimate(Item(w + 1))
					if est%batch != 0 || est < last[w] || est > rounds*batch {
						t.Errorf("storm Estimate(%d) = %d (last %d): torn or non-monotone", w+1, est, last[w])
						return
					}
					last[w] = est
				}
				if !withStats {
					continue
				}
				if _, err := st.Stats(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writers.Wait()
	writersDone.Store(true)
	churn.Wait()
	readers.Wait()
	for w := 0; w < workers; w++ {
		if got := st.EstimateExact(Item(w + 1)); got != rounds*batch {
			t.Fatalf("worker %d count = %d, want %d (batch lost under read storm)", w, got, rounds*batch)
		}
	}
}

// TestPublishedReadsAllocFree pins the structural property the epoch read
// path exists for: once a view is published, Estimate and N are one atomic
// load plus a binary search — no locking, no folding, and zero heap
// allocations per query, at both the sketch and the Stream level.
func TestPublishedReadsAllocFree(t *testing.T) {
	s := NewShardedSketch(4, 64, 1<<20)
	xs := make([]Item, 4096)
	for i := range xs {
		xs[i] = Item(i%100 + 1)
	}
	s.UpdateBatch(xs)
	if err := s.Publish(); err != nil {
		t.Fatal(err)
	}
	var sink int64
	if allocs := testing.AllocsPerRun(100, func() {
		sink += s.Estimate(Item(7)) + s.N()
	}); allocs != 0 {
		t.Errorf("published sketch reads allocate %.0f times per op, want 0", allocs)
	}

	m := testManager(t)
	st, _, err := m.CreateStream("s", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateBatch(xs); err != nil {
		t.Fatal(err)
	}
	if err := st.sharded.Load().Publish(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		sink += st.Estimate(Item(7))
	}); allocs != 0 {
		t.Errorf("stream published Estimate allocates %.0f times per op, want 0", allocs)
	}
	_ = sink
}

// TestPublishEveryConfig pins the StreamConfig knobs: the volume threshold
// reaches the stream's sketch (including across cut resets and fault-in),
// zero inherits the default, and negative disables the trigger.
func TestPublishEveryConfig(t *testing.T) {
	m := testManager(t)
	st, _, err := m.CreateStream("tuned", StreamConfig{PublishEvery: 512, PublishInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.sharded.Load().pubEvery; got != 512 {
		t.Fatalf("pubEvery = %d, want 512", got)
	}
	if st.pubInterval != 0 {
		t.Fatalf("pubInterval = %v, want disabled", st.pubInterval)
	}
	// The cut reset builds a fresh sketch: the policy must survive it.
	if err := st.Update(1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.CutSummary(nil); err != nil {
		t.Fatal(err)
	}
	if got := st.sharded.Load().pubEvery; got != 512 {
		t.Fatalf("pubEvery after cut = %d, want 512", got)
	}
	def, _, err := m.CreateStream("default", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := def.sharded.Load().pubEvery; got != DefaultPublishEvery {
		t.Fatalf("default pubEvery = %d, want %d", got, DefaultPublishEvery)
	}
	if def.pubInterval != DefaultPublishInterval {
		t.Fatalf("default pubInterval = %v, want %v", def.pubInterval, DefaultPublishInterval)
	}
	off, _, err := m.CreateStream("off", StreamConfig{PublishEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := off.sharded.Load().pubEvery; got != 0 {
		t.Fatalf("disabled pubEvery = %d, want 0", got)
	}
}

// TestTimedPublishConverges pins the PublishInterval trigger: a stream far
// below the volume threshold still gets a published view once an ingest
// arrives after the interval has lapsed.
func TestTimedPublishConverges(t *testing.T) {
	m, clk, _, _ := lifecycleManager(t)
	st, _, err := m.CreateStream("slow", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateBatch([]Item{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Well below the volume threshold: only the construction-time empty
	// view is installed, so the published N still reads 0.
	if n := st.sharded.Load().N(); n != 0 {
		t.Fatalf("view republished before any trigger: N = %d, want 0", n)
	}
	clk.advance(2 * DefaultPublishInterval)
	if err := st.Update(4); err != nil {
		t.Fatal(err)
	}
	// The timed republish runs on its own goroutine; wait for it.
	deadline := time.Now().Add(5 * time.Second)
	for st.sharded.Load().N() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timed republish never installed a view")
		}
		time.Sleep(time.Millisecond)
	}
	if n := st.sharded.Load().N(); n != 4 {
		t.Fatalf("timed-published N = %d, want 4", n)
	}
}
