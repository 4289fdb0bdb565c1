package dpmg

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpmg/internal/workload"
)

// fakeClock is a settable lifecycle clock for deterministic TTL tests.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() int64              { return c.ns.Load() }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// lifecycleManager is testManager plus an injected clock and a DirStore in
// a temp dir.
func lifecycleManager(t *testing.T) (*Manager, *fakeClock, *DirStore, string) {
	t.Helper()
	m := testManager(t)
	clk := &fakeClock{}
	clk.ns.Store(int64(time.Hour))
	m.nowFn = clk.now
	dir := filepath.Join(t.TempDir(), "streams")
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetOffloadStore(store); err != nil {
		t.Fatal(err)
	}
	return m, clk, store, dir
}

// normalizeLifecycle zeroes the process-lifetime observability fields so
// stats of a stream and its offloaded/restored twin can be compared.
func normalizeLifecycle(s StreamStats) StreamStats {
	s.Resident = false
	s.Evictions, s.FaultIns = 0, 0
	s.ThrottledIngest, s.ThrottledReleases = 0, 0
	return s
}

// slowMechanism is a registry mechanism whose Release blocks until the
// test releases it — the deterministic way to hold a release in flight.
type slowMechanism struct {
	mu      sync.Mutex
	started chan struct{}
	unblock chan struct{}
}

func (s *slowMechanism) arm() (started, unblock chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.started = make(chan struct{})
	s.unblock = make(chan struct{})
	return s.started, s.unblock
}

func (s *slowMechanism) Name() string { return "slowtest" }

func (s *slowMechanism) Calibrate(p Params, sens Sensitivity) (*Calibration, error) {
	return NewCalibration(map[string]float64{"slow": 1}, nil), nil
}

func (s *slowMechanism) Release(view *ReleaseView, cal *Calibration, seed uint64) Histogram {
	s.mu.Lock()
	started, unblock := s.started, s.unblock
	s.mu.Unlock()
	if started != nil {
		close(started)
		<-unblock
	}
	return Histogram{}
}

var (
	slowMech     = &slowMechanism{}
	slowMechOnce sync.Once
)

func registerSlowMech(t *testing.T) {
	t.Helper()
	slowMechOnce.Do(func() {
		if err := RegisterMechanism(slowMech); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEvictFaultInRoundTrip is the differential pin of the lifecycle tier:
// an offloaded-and-faulted-in stream is indistinguishable from a resident
// twin restored from a manager snapshot — identical stats, byte-identical
// seeded releases, exact remaining budgets, and identical continuation.
func TestEvictFaultInRoundTrip(t *testing.T) {
	m, _, store, _ := lifecycleManager(t)
	st, _, err := m.CreateStream("tenant", StreamConfig{Mechanism: MechanismLaplace})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateBatch(workload.HeavyTail(40000, 1000, 3, 0.9, 11)); err != nil {
		t.Fatal(err)
	}
	edge := NewSketch(32, 1000)
	edge.UpdateBatch(workload.Zipf(10000, 1000, 1.2, 12))
	sum, err := edge.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.FoldSummary(sum); err != nil {
		t.Fatal(err)
	}
	// Spend some budget so the round trip carries accountant history.
	if _, err := st.ReleaseDetailed(Params{Eps: 1, Delta: 1e-5}, WithSeed(1)); err != nil {
		t.Fatal(err)
	}
	before, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}

	// Resident twin via the manager snapshot path (the pinned-exact
	// restore from PR 4): the offload round trip must match it everywhere.
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	twinMgr, err := RestoreManager(bytes.NewReader(buf.Bytes()), m.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	twin, ok := twinMgr.Stream("tenant")
	if !ok {
		t.Fatal("twin missing")
	}

	if evicted, err := m.Evict("tenant"); !evicted || err != nil {
		t.Fatalf("Evict = %v, %v", evicted, err)
	}
	if st.Resident() {
		t.Fatal("stream still resident after Evict")
	}
	if _, err := store.Load("tenant"); err != nil {
		t.Fatalf("offload record missing: %v", err)
	}
	// Stats are served from the stub without faulting in, and match the
	// live values captured before the eviction.
	mid, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Resident() {
		t.Fatal("Stats faulted the stream back in")
	}
	if mid.Resident || mid.Evictions != 1 {
		t.Fatalf("offloaded stats lifecycle fields: %+v", mid)
	}
	if normalizeLifecycle(mid) != normalizeLifecycle(before) {
		t.Errorf("offloaded stats diverge:\n  before %+v\n  after  %+v", before, mid)
	}

	// Seeded release faults the stream in and matches the resident twin
	// byte for byte; both spend their accountants identically.
	ho, err1 := st.ReleaseDetailed(Params{Eps: 0.25, Delta: 1e-6}, WithSeed(99))
	ht, err2 := twin.ReleaseDetailed(Params{Eps: 0.25, Delta: 1e-6}, WithSeed(99))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !st.Resident() {
		t.Fatal("release did not fault the stream in")
	}
	if !equalHistograms(ho.Histogram, ht.Histogram) {
		t.Error("seeded release diverges after evict → fault-in")
	}
	if ro, rt := st.Accountant().Remaining(), twin.Accountant().Remaining(); ro != rt {
		t.Errorf("remaining budget diverges: %+v vs %+v", ro, rt)
	}

	// Continuation: both copies respond identically to more data.
	cont := workload.Zipf(5000, 400, 1.1, 14)
	if err := st.UpdateBatch(cont); err != nil {
		t.Fatal(err)
	}
	if err := twin.UpdateBatch(cont); err != nil {
		t.Fatal(err)
	}
	ho, err1 = st.ReleaseDetailed(Params{Eps: 0.25, Delta: 1e-6}, WithSeed(100))
	ht, err2 = twin.ReleaseDetailed(Params{Eps: 0.25, Delta: 1e-6}, WithSeed(100))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !equalHistograms(ho.Histogram, ht.Histogram) {
		t.Error("continuation release diverges after evict → fault-in")
	}
	so, errA := st.Stats()
	sr, errB := twin.Stats()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if normalizeLifecycle(so) != normalizeLifecycle(sr) {
		t.Errorf("final stats diverge:\n  evicted %+v\n  twin    %+v", so, sr)
	}
}

// TestEvictIdleTTL: only streams idle past the TTL are evicted; TTL <= 0
// never evicts; the next access faults in transparently; Stats and the
// metrics-style reads do not count as accesses.
func TestEvictIdleTTL(t *testing.T) {
	m, clk, _, _ := lifecycleManager(t)
	a, _, err := m.CreateStream("a", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := m.CreateStream("b", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Stream{a, b} {
		if err := st.UpdateBatch([]Item{1, 2, 3, 1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	clk.advance(10 * time.Minute)
	if err := b.Update(7); err != nil { // touch b: no longer idle
		t.Fatal(err)
	}
	// Reading stats must not keep a hot: it is not a data access.
	if _, err := a.Stats(); err != nil {
		t.Fatal(err)
	}
	// TTL = 0 (and negative): never evict, even though both are idle.
	if n, err := m.EvictIdle(0); n != 0 || err != nil {
		t.Fatalf("EvictIdle(0) = %d, %v", n, err)
	}
	if n, err := m.EvictIdle(-time.Second); n != 0 || err != nil {
		t.Fatalf("EvictIdle(<0) = %d, %v", n, err)
	}
	if n, err := m.EvictIdle(5 * time.Minute); n != 1 || err != nil {
		t.Fatalf("EvictIdle = %d, %v", n, err)
	}
	if a.Resident() || !b.Resident() {
		t.Fatalf("residency after sweep: a=%v b=%v", a.Resident(), b.Resident())
	}
	// Transparent fault-in on the next data access.
	if err := a.UpdateBatch([]Item{9, 9}); err != nil {
		t.Fatal(err)
	}
	if !a.Resident() {
		t.Fatal("access did not fault a back in")
	}
	if lc := a.Lifecycle(); lc.Evictions != 1 || lc.FaultIns != 1 {
		t.Fatalf("lifecycle counters = %+v", lc)
	}
	if got := a.EstimateExact(9); got != 2 {
		t.Fatalf("post-fault-in estimate = %d", got)
	}
}

// TestDoubleOffloadIdempotent: offloading an offloaded stream is a no-op,
// and because the record encoding is canonical, re-evicting unchanged
// state writes byte-identical records.
func TestDoubleOffloadIdempotent(t *testing.T) {
	m, clk, store, _ := lifecycleManager(t)
	st, _, err := m.CreateStream("s", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateBatch(workload.Zipf(5000, 1000, 1.2, 3)); err != nil {
		t.Fatal(err)
	}
	est := st.EstimateExact(1)
	if evicted, err := m.Evict("s"); !evicted || err != nil {
		t.Fatalf("first Evict = %v, %v", evicted, err)
	}
	rec1, err := store.Load("s")
	if err != nil {
		t.Fatal(err)
	}
	// Second offload: no-op, record untouched.
	if evicted, err := m.Evict("s"); evicted || err != nil {
		t.Fatalf("second Evict = %v, %v", evicted, err)
	}
	clk.advance(time.Hour)
	if n, err := m.EvictIdle(time.Minute); n != 0 || err != nil {
		t.Fatalf("EvictIdle over offloaded stream = %d, %v", n, err)
	}
	rec2, err := store.Load("s")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec1, rec2) {
		t.Error("double offload rewrote the record")
	}
	if lc := st.Lifecycle(); lc.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", lc.Evictions)
	}
	// Fault in, mutate nothing, evict again: canonical encoding means the
	// record is byte-identical.
	if got := st.EstimateExact(1); got != est {
		t.Fatalf("estimate after fault-in = %d, want %d", got, est)
	}
	if evicted, err := m.Evict("s"); !evicted || err != nil {
		t.Fatalf("re-Evict = %v, %v", evicted, err)
	}
	rec3, err := store.Load("s")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec1, rec3) {
		t.Error("unchanged state re-offloaded to different bytes (canonicality)")
	}
}

// TestFaultInAfterRestart: a restarted manager (snapshot restore +
// RecoverOffloaded) serves an evicted stream from its stub and faults it
// in on first access with byte-identical releases and exact budgets.
func TestFaultInAfterRestart(t *testing.T) {
	m, clk, _, dir := lifecycleManager(t)
	cold, _, err := m.CreateStream("cold", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hot, _, err := m.CreateStream("hot", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.UpdateBatch(workload.HeavyTail(30000, 1000, 3, 0.9, 21)); err != nil {
		t.Fatal(err)
	}
	if err := hot.UpdateBatch(workload.Zipf(10000, 1000, 1.2, 22)); err != nil {
		t.Fatal(err)
	}
	if _, err := cold.ReleaseDetailed(Params{Eps: 0.5, Delta: 1e-5}, WithSeed(5)); err != nil {
		t.Fatal(err)
	}
	coldStats, err := cold.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if evicted, err := m.Evict("cold"); !evicted || err != nil {
		t.Fatalf("Evict = %v, %v", evicted, err)
	}
	// The manager snapshot holds only the resident stream.
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh manager over the same snapshot and offload dir.
	m2, err := RestoreManager(bytes.NewReader(buf.Bytes()), m.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	m2.nowFn = clk.now
	store2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.SetOffloadStore(store2); err != nil {
		t.Fatal(err)
	}
	if m2.Len() != 1 {
		t.Fatalf("pre-recover Len = %d, want 1 (hot only)", m2.Len())
	}
	if n, err := m2.RecoverOffloaded(); n != 1 || err != nil {
		t.Fatalf("RecoverOffloaded = %d, %v", n, err)
	}
	if m2.Len() != 2 {
		t.Fatalf("post-recover Len = %d", m2.Len())
	}
	// Idempotent: nothing left to recover.
	if n, err := m2.RecoverOffloaded(); n != 0 || err != nil {
		t.Fatalf("second RecoverOffloaded = %d, %v", n, err)
	}
	cold2, ok := m2.Stream("cold")
	if !ok {
		t.Fatal("cold missing after recover")
	}
	if cold2.Resident() {
		t.Fatal("recovered stream should stay offloaded until first access")
	}
	// Stub stats match the pre-eviction live stats.
	s2, err := cold2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if normalizeLifecycle(s2) != normalizeLifecycle(coldStats) {
		t.Errorf("recovered stub stats diverge:\n  before %+v\n  after  %+v", coldStats, s2)
	}
	// First access faults in; the original (also offloaded, same record)
	// must agree byte for byte under the same seed, with equal budgets.
	h1, err1 := cold.ReleaseDetailed(Params{Eps: 0.25, Delta: 1e-6}, WithSeed(77))
	h2, err2 := cold2.ReleaseDetailed(Params{Eps: 0.25, Delta: 1e-6}, WithSeed(77))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !equalHistograms(h1.Histogram, h2.Histogram) {
		t.Error("post-restart seeded release diverges")
	}
	if r1, r2 := cold.Accountant().Remaining(), cold2.Accountant().Remaining(); r1 != r2 {
		t.Errorf("post-restart remaining budget diverges: %+v vs %+v", r1, r2)
	}
}

// TestEvictWhileIngesting is the -race interlock pin: force-evictions
// sweep a stream while goroutines ingest; every admitted batch must
// survive the offload/fault-in churn (the lifecycle lock drains in-flight
// batches before offloading, so nothing can land in a dropped sketch).
func TestEvictWhileIngesting(t *testing.T) {
	m, _, _, _ := lifecycleManager(t)
	if _, _, err := m.CreateStream("s", StreamConfig{}); err != nil {
		t.Fatal(err)
	}
	st, _ := m.Stream("s")
	const (
		workers = 4
		rounds  = 50
		batch   = 256
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			xs := make([]Item, batch)
			for i := range xs {
				xs[i] = Item(w + 1) // one distinct heavy item per worker: exact counts
			}
			for r := 0; r < rounds; r++ {
				if err := st.UpdateBatch(xs); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() { // eviction storm
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := m.Evict("s"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // concurrent manager snapshots skip/include as they race
		defer wg.Done()
		for i := 0; i < 10; i++ {
			var buf bytes.Buffer
			if err := m.Snapshot(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	stats, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(workers * rounds * batch); stats.Ingested != want {
		t.Fatalf("ingested %d, want %d", stats.Ingested, want)
	}
	// With ≤ k distinct items the sketch never decrements: per-item counts
	// are exact, so any update lost in an eviction race would show here.
	// EstimateExact: the published view is bounded-stale by design, and a
	// lost-update detector must read the live counters.
	for w := 0; w < workers; w++ {
		if got := st.EstimateExact(Item(w + 1)); got != rounds*batch {
			t.Fatalf("worker %d item count = %d, want %d (updates lost in eviction race)", w, got, rounds*batch)
		}
	}
}

// TestDeleteMidReleaseConflict is the regression test for the
// delete-vs-release race: with a release deterministically held in flight,
// DeleteStream must refuse with ErrStreamConflict instead of deleting the
// stream out from under the release's view.
func TestDeleteMidReleaseConflict(t *testing.T) {
	registerSlowMech(t)
	m, _, _, _ := lifecycleManager(t)
	st, _, err := m.CreateStream("victim", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateBatch([]Item{1, 2, 3, 1}); err != nil {
		t.Fatal(err)
	}
	started, unblock := slowMech.arm()
	relErr := make(chan error, 1)
	go func() {
		_, err := st.ReleaseDetailed(Params{Eps: 0.5, Delta: 1e-5}, WithMechanism("slowtest"), WithSeed(1))
		relErr <- err
	}()
	<-started // the release is now provably mid-flight
	deleted, err := m.DeleteStream("victim")
	if deleted || !errors.Is(err, ErrStreamConflict) {
		t.Fatalf("DeleteStream mid-release = %v, %v; want false, ErrStreamConflict", deleted, err)
	}
	if _, ok := m.Stream("victim"); !ok {
		t.Fatal("stream vanished despite refused delete")
	}
	close(unblock)
	if err := <-relErr; err != nil {
		t.Fatalf("in-flight release failed: %v", err)
	}
	// Quiet stream: the delete now succeeds.
	if deleted, err := m.DeleteStream("victim"); !deleted || err != nil {
		t.Fatalf("post-release DeleteStream = %v, %v", deleted, err)
	}
}

// TestStreamQoSRateLimit drives the token bucket through the manager
// facade with a synthetic clock.
func TestStreamQoSRateLimit(t *testing.T) {
	m, clk, _, _ := lifecycleManager(t)
	st, _, err := m.CreateStream("limited", StreamConfig{MaxIngestRate: 100, IngestBurst: 10})
	if err != nil {
		t.Fatal(err)
	}
	tenOf := func(x Item) []Item {
		xs := make([]Item, 10)
		for i := range xs {
			xs[i] = x
		}
		return xs
	}
	if err := st.UpdateBatch(tenOf(1)); err != nil {
		t.Fatalf("burst-sized batch refused: %v", err)
	}
	if err := st.Update(2); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-burst update err = %v, want ErrRateLimited", err)
	}
	clk.advance(100 * time.Millisecond) // 10 tokens at 100 items/s
	if err := st.UpdateBatch(tenOf(3)); err != nil {
		t.Fatalf("refilled batch refused: %v", err)
	}
	// A rejected batch is all-or-nothing: nothing ingested, no tokens burned.
	if err := st.UpdateBatch(tenOf(4)); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("empty-bucket batch err = %v, want ErrRateLimited", err)
	}
	stats, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ingested != 20 || stats.ThrottledIngest != 2 {
		t.Fatalf("ingested %d throttled %d, want 20, 2", stats.Ingested, stats.ThrottledIngest)
	}
	// Negative rate: explicitly unlimited, even when the manager default
	// (or another stream) throttles.
	free, _, err := m.CreateStream("free", StreamConfig{MaxIngestRate: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := free.UpdateBatch(workload.Zipf(100000, 1000, 1.1, 1)); err != nil {
		t.Fatalf("unlimited stream throttled: %v", err)
	}
}

// TestStreamQoSReleaseGate holds one release in flight and checks the
// in-flight ceiling refuses the second with no budget spent.
func TestStreamQoSReleaseGate(t *testing.T) {
	registerSlowMech(t)
	m, _, _, _ := lifecycleManager(t)
	st, _, err := m.CreateStream("g", StreamConfig{MaxInflightReleases: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateBatch([]Item{1, 1, 2}); err != nil {
		t.Fatal(err)
	}
	started, unblock := slowMech.arm()
	relErr := make(chan error, 1)
	go func() {
		_, err := st.ReleaseDetailed(Params{Eps: 0.5, Delta: 1e-5}, WithMechanism("slowtest"), WithSeed(1))
		relErr <- err
	}()
	<-started
	if _, err := st.ReleaseDetailed(Params{Eps: 0.5, Delta: 1e-5}, WithSeed(2)); !errors.Is(err, ErrReleaseBusy) {
		t.Fatalf("second release err = %v, want ErrReleaseBusy", err)
	}
	close(unblock)
	if err := <-relErr; err != nil {
		t.Fatal(err)
	}
	stats, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Releases != 1 || stats.ThrottledReleases != 1 {
		t.Fatalf("releases %d throttled %d, want 1, 1", stats.Releases, stats.ThrottledReleases)
	}
	// The gate drained: releases work again.
	if _, err := st.ReleaseDetailed(Params{Eps: 0.5, Delta: 1e-5}, WithSeed(3)); err != nil {
		t.Fatal(err)
	}
}

// TestLifecycleRequiresStore: eviction APIs fail cleanly without a store,
// and the store can be attached at most once.
func TestLifecycleRequiresStore(t *testing.T) {
	m := testManager(t)
	if _, _, err := m.CreateStream("s", StreamConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Evict("s"); err == nil {
		t.Error("Evict without store succeeded")
	}
	if _, err := m.EvictIdle(time.Second); err == nil {
		t.Error("EvictIdle without store succeeded")
	}
	if _, err := m.RecoverOffloaded(); err == nil {
		t.Error("RecoverOffloaded without store succeeded")
	}
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetOffloadStore(store); err != nil {
		t.Fatal(err)
	}
	if err := m.SetOffloadStore(store); err == nil {
		t.Error("second SetOffloadStore succeeded")
	}
	if err := m.SetOffloadStore(nil); err == nil {
		t.Error("nil store accepted")
	}
}

// TestDeleteStreamRemovesOffloadRecord: deleting an offloaded stream
// removes its record, so a re-created name starts fresh.
func TestDeleteStreamRemovesOffloadRecord(t *testing.T) {
	m, _, store, _ := lifecycleManager(t)
	st, _, err := m.CreateStream("s", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateBatch([]Item{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Evict("s"); err != nil {
		t.Fatal(err)
	}
	if deleted, err := m.DeleteStream("s"); !deleted || err != nil {
		t.Fatalf("DeleteStream = %v, %v", deleted, err)
	}
	if _, err := store.Load("s"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("offload record survived delete: %v", err)
	}
	// Re-created name: fresh state, nothing recovered from disk.
	st2, _, err := m.CreateStream("s", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := st2.Stats(); err != nil || got.Ingested != 0 {
		t.Fatalf("re-created stream stats = %+v, %v", got, err)
	}
}

// TestDeleteTombstoneBlocksOffload: an eviction sweep that grabbed a
// *Stream handle before DeleteStream removed it must not write a fresh
// offload record afterwards — the record would resurrect the deleted
// tenant's counters at the next recovery.
func TestDeleteTombstoneBlocksOffload(t *testing.T) {
	m, _, store, _ := lifecycleManager(t)
	st, _, err := m.CreateStream("victim", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateBatch([]Item{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if deleted, err := m.DeleteStream("victim"); !deleted || err != nil {
		t.Fatalf("DeleteStream = %v, %v", deleted, err)
	}
	// The sweep's stale handle tries to offload after the delete.
	st.life.Lock()
	err = st.offloadLocked(store)
	st.life.Unlock()
	if err != nil {
		t.Fatalf("offload of deleted stream errored (want silent no-op): %v", err)
	}
	if _, err := store.Load("victim"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("deleted stream's offload record was resurrected: %v", err)
	}
	// The public sweep paths also skip it.
	if evicted, err := m.Evict("victim"); evicted || err != nil {
		t.Fatalf("Evict of deleted stream = %v, %v", evicted, err)
	}
}

// TestRecoverPrefersNewerRecord: after evict-then-crash, the offload
// record post-dates the last manager snapshot; recovery must prefer it —
// restoring the older resident copy would resurrect spent privacy budget
// and drop ingested data. The stale-shadow direction (resident newer than
// the record) must still prefer the resident copy.
func TestRecoverPrefersNewerRecord(t *testing.T) {
	m, clk, _, dir := lifecycleManager(t)
	st, _, err := m.CreateStream("s", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateBatch(workload.Zipf(10000, 1000, 1.2, 1)); err != nil {
		t.Fatal(err)
	}
	// Periodic flush at t0: resident snapshot with 10000 items, no spend.
	var snapT0 bytes.Buffer
	if err := m.Snapshot(&snapT0); err != nil {
		t.Fatal(err)
	}
	// After t0: more data, a release, then eviction — the record now
	// post-dates the snapshot. Crash before any further flush.
	if err := st.UpdateBatch(workload.Zipf(5000, 1000, 1.2, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReleaseDetailed(Params{Eps: 1, Delta: 1e-5}, WithSeed(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Evict("s"); err != nil {
		t.Fatal(err)
	}
	wantRemaining := st.Accountant().Remaining()

	m2, err := RestoreManager(bytes.NewReader(snapT0.Bytes()), m.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	m2.nowFn = clk.now
	store2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.SetOffloadStore(store2); err != nil {
		t.Fatal(err)
	}
	if n, err := m2.RecoverOffloaded(); n != 1 || err != nil {
		t.Fatalf("RecoverOffloaded = %d, %v (record should replace stale resident state)", n, err)
	}
	st2, _ := m2.Stream("s")
	if st2.Resident() {
		t.Fatal("replaced stream should be an offloaded stub")
	}
	if got := st2.Accountant().Remaining(); got != wantRemaining {
		t.Fatalf("remaining budget %+v, want %+v (stale snapshot resurrected spent budget)", got, wantRemaining)
	}
	if got := st2.Ingested(); got != 15000 {
		t.Fatalf("ingested %d, want 15000 (stale snapshot dropped data)", got)
	}

	// Stale-shadow direction: fault in, ingest more, snapshot — the
	// resident copy is now newer than the record and must win.
	if err := st2.UpdateBatch(workload.Zipf(2000, 1000, 1.2, 3)); err != nil {
		t.Fatal(err)
	}
	var snapT1 bytes.Buffer
	if err := m2.Snapshot(&snapT1); err != nil {
		t.Fatal(err)
	}
	m3, err := RestoreManager(bytes.NewReader(snapT1.Bytes()), m.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	m3.nowFn = clk.now
	store3, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := m3.SetOffloadStore(store3); err != nil {
		t.Fatal(err)
	}
	if n, err := m3.RecoverOffloaded(); n != 0 || err != nil {
		t.Fatalf("RecoverOffloaded = %d, %v (stale shadow record must not replace newer resident state)", n, err)
	}
	st3, _ := m3.Stream("s")
	if got := st3.Ingested(); got != 17000 {
		t.Fatalf("ingested %d, want 17000", got)
	}
}

func TestDirStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "streams")
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDirStore(""); err == nil {
		t.Error("empty dir accepted")
	}
	if _, err := s.Load("missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing Load err = %v, want fs.ErrNotExist", err)
	}
	if err := s.Save("a", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("a", []byte("v2")); err != nil { // atomic replace
		t.Fatal(err)
	}
	if got, err := s.Load("a"); err != nil || string(got) != "v2" {
		t.Fatalf("Load = %q, %v", got, err)
	}
	// Stale temp files from a crashed save are ignored and swept by List.
	stale := filepath.Join(dir, "b"+streamFileSuffix+".tmp-123")
	if err := os.WriteFile(stale, []byte("junk"), 0o600); err != nil {
		t.Fatal(err)
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "a" {
		t.Fatalf("List = %v", names)
	}
	if _, err := os.Stat(stale); !errors.Is(err, fs.ErrNotExist) {
		t.Error("List did not sweep the stale temp file")
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a"); err != nil { // idempotent
		t.Fatal(err)
	}
	if names, err := s.List(); err != nil || len(names) != 0 {
		t.Fatalf("List after delete = %v, %v", names, err)
	}
}

// TestManagerSnapshotSkipsOffloaded: the periodic flush must not fault
// idle tenants back in, and restoring the snapshot alone yields only the
// resident streams.
func TestManagerSnapshotSkipsOffloaded(t *testing.T) {
	m, _, _, _ := lifecycleManager(t)
	for _, name := range []string{"r", "e"} {
		st, _, err := m.CreateStream(name, StreamConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.UpdateBatch([]Item{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Evict("e"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	e, _ := m.Stream("e")
	if e.Resident() {
		t.Fatal("Snapshot faulted the offloaded stream in")
	}
	r2, err := RestoreManager(bytes.NewReader(buf.Bytes()), m.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 1 {
		t.Fatalf("restored %d streams, want 1 (resident only)", r2.Len())
	}
	if _, ok := r2.Stream("r"); !ok {
		t.Fatal("resident stream missing from snapshot")
	}
}

// TestEvictIdleConcurrentTouch: a stream touched between the idle check
// and the exclusive lock is spared — the sweep re-checks under the lock.
func TestEvictIdleConcurrentTouch(t *testing.T) {
	m, clk, _, _ := lifecycleManager(t)
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
		st, _, err := m.CreateStream(names[i], StreamConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Update(1); err != nil {
			t.Fatal(err)
		}
	}
	clk.advance(time.Hour)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // toucher: keeps half the streams hot
		defer wg.Done()
		for i := 0; i < 200; i++ {
			for j := 0; j < len(names); j += 2 {
				st, _ := m.Stream(names[j])
				if err := st.Update(2); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := m.EvictIdle(time.Minute); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	// The touched streams were just accessed at the frozen clock, so the
	// final sweep must leave them resident; the untouched half is gone.
	if _, err := m.EvictIdle(time.Minute); err != nil {
		t.Fatal(err)
	}
	for j, name := range names {
		st, _ := m.Stream(name)
		if touched := j%2 == 0; st.Resident() != touched {
			t.Errorf("stream %s resident=%v, want %v", name, st.Resident(), touched)
		}
	}
}

// TestDirStoreTempLikeStreamName: dots and dashes are legal in stream
// names after the first character, so a stream can be named such that its
// record file contains the temp-file marker ("a.stream.tmp-1" →
// "a.stream.tmp-1.stream"). List must treat it as the record it is — not
// sweep it as a stale temp, which would silently destroy the stream's
// durable counters and spent-budget record at the next recovery.
func TestDirStoreTempLikeStreamName(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "streams")
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const name = "a" + streamFileSuffix + ".tmp-1" // a.stream.tmp-1
	if err := s.Save(name, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// A genuine stale temp for the same stream, as a crashed Save leaves it.
	stale := filepath.Join(dir, name+streamFileSuffix+".tmp-123456")
	if err := os.WriteFile(stale, []byte("junk"), 0o600); err != nil {
		t.Fatal(err)
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != name {
		t.Fatalf("List = %v, want [%s]", names, name)
	}
	if _, err := os.Stat(stale); !errors.Is(err, fs.ErrNotExist) {
		t.Error("List did not sweep the genuine stale temp file")
	}
	if got, err := s.Load(name); err != nil || string(got) != "payload" {
		t.Fatalf("record destroyed by List: Load = %q, %v", got, err)
	}
}

// TestRecoverTempLikeStreamName is the end-to-end pin of the same hazard:
// a stream whose name embeds the temp-file marker survives evict → restart
// → RecoverOffloaded → fault-in with its data and budget intact.
func TestRecoverTempLikeStreamName(t *testing.T) {
	m, clk, _, dir := lifecycleManager(t)
	const name = "tenant.stream.tmp-1"
	st, _, err := m.CreateStream(name, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateBatch([]Item{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if evicted, err := m.Evict(name); !evicted || err != nil {
		t.Fatalf("Evict = %v, %v", evicted, err)
	}

	m2, err := NewManager(m.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	m2.nowFn = clk.now
	store2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.SetOffloadStore(store2); err != nil {
		t.Fatal(err)
	}
	if n, err := m2.RecoverOffloaded(); n != 1 || err != nil {
		t.Fatalf("RecoverOffloaded = %d, %v, want 1 recovered", n, err)
	}
	st2, ok := m2.Stream(name)
	if !ok {
		t.Fatalf("stream %q not recovered", name)
	}
	if err := st2.Update(4); err != nil { // faults in
		t.Fatalf("fault-in after recovery: %v", err)
	}
	if got := st2.Ingested(); got != 4 {
		t.Fatalf("ingested = %d, want 4", got)
	}
}

// TestDeleteRecreateEvictNoRecordLoss: DeleteStream's offload-record
// removal is atomic with the registry removal, so a concurrent
// recreate-then-evict of the same name can never have its fresh record
// destroyed by a stale delete — which would strand the registered stream
// offloaded with nothing to fault in from. Run with -race.
func TestDeleteRecreateEvictNoRecordLoss(t *testing.T) {
	m, _, _, _ := lifecycleManager(t)
	const name = "tenant"
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := m.DeleteStream(name); err != nil && !errors.Is(err, ErrStreamConflict) {
				t.Errorf("DeleteStream: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 300 && !t.Failed(); i++ {
		if _, _, err := m.CreateStream(name, StreamConfig{}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Evict(name); err != nil {
			t.Fatal(err)
		}
		st, ok := m.Stream(name)
		if !ok {
			continue // deleter got there first; nothing to check
		}
		if err := st.Update(1); err != nil {
			// An orphaned handle (deleted between the Get and the Update)
			// may legitimately fail its fault-in — its record is gone with
			// the stream. A handle that is still the registered instance
			// must never fail: that is the destroyed-record bug.
			if cur, ok := m.Stream(name); ok && cur == st {
				t.Fatalf("registered stream lost its offload record: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestIngestRefundOnFaultInFailure: a failed fault-in ingests nothing, so
// the tokens its admission consumed are refunded — a tenant whose offload
// record is broken gets the real error on every retry, not a spurious
// ErrRateLimited once the bucket drains.
func TestIngestRefundOnFaultInFailure(t *testing.T) {
	m, clk, store, _ := lifecycleManager(t)
	st, _, err := m.CreateStream("tenant", StreamConfig{MaxIngestRate: 1, IngestBurst: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Update(1); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Second) // refill the one-token bucket
	if evicted, err := m.Evict("tenant"); !evicted || err != nil {
		t.Fatalf("Evict = %v, %v", evicted, err)
	}
	data, err := store.Load("tenant")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Delete("tenant"); err != nil {
		t.Fatal(err)
	}
	// Broken record: repeated attempts all surface the fault-in error. At
	// one token per two clock-frozen attempts, the second would be
	// ErrRateLimited if the first had kept its token.
	for i, ingest := range []func() error{
		func() error { return st.Update(2) },
		func() error { return st.UpdateBatch([]Item{3}) },
	} {
		err := ingest()
		if err == nil {
			t.Fatalf("attempt %d: ingest with missing record succeeded", i)
		}
		if errors.Is(err, ErrRateLimited) {
			t.Fatalf("attempt %d: spuriously rate-limited instead of fault-in error: %v", i, err)
		}
	}
	// Repair the record: the very next ingest must be admitted — a
	// refund-less limiter would still be drained by the failed attempts.
	if err := store.Save("tenant", data); err != nil {
		t.Fatal(err)
	}
	if err := st.Update(4); err != nil {
		t.Fatalf("ingest after repair: %v", err)
	}
	if lc := st.Lifecycle(); lc.ThrottledIngest != 0 {
		t.Fatalf("ThrottledIngest = %d, want 0 (fault-in failures are not throttles)", lc.ThrottledIngest)
	}
}

// TestEvictKeepsIngestCounters: an offloaded stream serves the raw-tier
// counter tally the evict path counted from the shard columns, and it must
// equal what the resident stream reported from its merged view just before
// the evict — on a stream with more positive counters across its shards
// than k, where the merge's (k+1)-th-value cut decides the count, and on
// one with fewer.
func TestEvictKeepsIngestCounters(t *testing.T) {
	m, _, _, _ := lifecycleManager(t)
	for _, tc := range []struct {
		name  string
		items []Item
	}{
		{"wide", workload.Zipf(20000, 1000, 0.8, 5)},
		{"narrow", []Item{1, 2, 2, 3, 3, 3}},
	} {
		st, _, err := m.CreateStream(tc.name, StreamConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.UpdateBatch(tc.items); err != nil {
			t.Fatal(err)
		}
		positive := 0
		shards := st.sharded.Load().shards
		for i := range shards {
			keys, _ := shards[i].sk.AppendReal(nil, nil)
			positive += len(keys)
		}
		if wide := positive > st.Config().K; wide != (tc.name == "wide") {
			t.Fatalf("%s: %d positive shard counters for k=%d", tc.name, positive, st.Config().K)
		}
		before, err := st.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if evicted, err := m.Evict(tc.name); !evicted || err != nil {
			t.Fatalf("%s: evict: %v %v", tc.name, evicted, err)
		}
		after, err := st.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if after.Resident || after.IngestCounters != before.IngestCounters {
			t.Fatalf("%s: offloaded IngestCounters = %d (resident %v), want %d",
				tc.name, after.IngestCounters, after.Resident, before.IngestCounters)
		}
	}
}
