package dpmg

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"dpmg/internal/workload"
)

func testManager(t *testing.T) *Manager {
	t.Helper()
	m, err := NewManager(StreamConfig{
		K: 32, Universe: 1000, Shards: 4,
		Budget: Budget{Eps: 4, Delta: 1e-4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManagerCreateIdempotent(t *testing.T) {
	m := testManager(t)
	a, created, err := m.CreateStream("tenant-a", StreamConfig{})
	if err != nil || !created {
		t.Fatalf("first create: created=%v err=%v", created, err)
	}
	// Same (defaulted) config: idempotent, same stream back.
	b, created, err := m.CreateStream("tenant-a", StreamConfig{K: 32})
	if err != nil || created || a != b {
		t.Fatalf("idempotent create: created=%v err=%v same=%v", created, err, a == b)
	}
	// Different config: conflict.
	if _, _, err := m.CreateStream("tenant-a", StreamConfig{K: 64}); !errors.Is(err, ErrStreamConflict) {
		t.Fatalf("conflicting create err = %v, want ErrStreamConflict", err)
	}
	// Config is resolved from defaults.
	cfg := a.Config()
	if cfg.K != 32 || cfg.Universe != 1000 || cfg.Shards != 4 || cfg.Budget.Eps != 4 {
		t.Errorf("resolved config = %+v", cfg)
	}
	// Budget components inherit individually: eps-only inherits the default
	// delta instead of silently creating a zero-delta account.
	epsOnly, _, err := m.CreateStream("eps-only", StreamConfig{Budget: Budget{Eps: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := epsOnly.Config().Budget; got.Eps != 2 || got.Delta != 1e-4 {
		t.Errorf("eps-only budget = %+v, want delta inherited", got)
	}
	if got := m.Len(); got != 2 { // tenant-a + eps-only
		t.Errorf("Len = %d", got)
	}
	if del, err := m.DeleteStream("tenant-a"); !del || err != nil {
		t.Errorf("DeleteStream = %v, %v", del, err)
	}
	if del, err := m.DeleteStream("tenant-a"); del || err != nil {
		t.Errorf("second DeleteStream = %v, %v", del, err)
	}
}

func TestManagerValidation(t *testing.T) {
	if _, err := NewManager(StreamConfig{K: 0, Universe: 10, Budget: Budget{Eps: 1, Delta: 0.1}}); err == nil {
		t.Error("k=0 defaults accepted")
	}
	if _, err := NewManager(StreamConfig{K: 4, Universe: 10, Budget: Budget{Eps: 0}}); err == nil {
		t.Error("empty budget defaults accepted")
	}
	if _, err := NewManager(StreamConfig{K: 4, Universe: 10, Mechanism: "nope", Budget: Budget{Eps: 1, Delta: 0.1}}); err == nil {
		t.Error("unknown mechanism defaults accepted")
	}
	// Resource ceilings: stream creation is reachable from untrusted input,
	// so one request must not be able to commit unbounded memory.
	caps := testManager(t)
	for name, cfg := range map[string]StreamConfig{
		"huge-k":      {K: MaxStreamK + 1},
		"huge-shards": {Shards: MaxStreamShards + 1},
		"huge-slots":  {K: 1 << 14, Shards: 1 << 9}, // 2^23 slots > cap
		// d+k would wrap past 2^64, putting the dummy keys in the universe.
		"wrapping-universe": {Universe: math.MaxUint64 - 31},
	} {
		if _, _, err := caps.CreateStream(name, cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	m := testManager(t)
	for _, name := range []string{"", ".hidden", "-dash", "a b", "x/y", "héllo", string(make([]byte, 200))} {
		if _, _, err := m.CreateStream(name, StreamConfig{}); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
	for _, name := range []string{"a", "tenant-1", "A.b_c-d", "0x9"} {
		if _, _, err := m.CreateStream(name, StreamConfig{}); err != nil {
			t.Errorf("name %q rejected: %v", name, err)
		}
	}
}

func TestStreamRejectsOutOfUniverse(t *testing.T) {
	m := testManager(t)
	st, _, err := m.CreateStream("s", StreamConfig{Universe: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Update(0); err == nil {
		t.Error("item 0 accepted")
	}
	if err := st.Update(101); err == nil {
		t.Error("item above universe accepted")
	}
	// A bad item mid-batch must reject the whole batch atomically.
	if err := st.UpdateBatch([]Item{1, 2, 101, 3}); err == nil {
		t.Error("bad batch accepted")
	}
	stats, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ingested != 0 || stats.Batches != 0 {
		t.Errorf("rejected items leaked into stats: %+v", stats)
	}
	if err := st.UpdateBatch([]Item{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if st.EstimateExact(2) != 1 {
		t.Errorf("Estimate(2) = %d", st.EstimateExact(2))
	}
}

func TestStreamReleasePath(t *testing.T) {
	m := testManager(t)
	st, _, err := m.CreateStream("s", StreamConfig{Mechanism: MechanismLaplace, Budget: Budget{Eps: 1, Delta: 1e-4}})
	if err != nil {
		t.Fatal(err)
	}
	// Empty stream: ErrStreamEmpty, budget untouched.
	if _, err := st.ReleaseDetailed(Params{Eps: 0.5, Delta: 1e-5}); !errors.Is(err, ErrStreamEmpty) {
		t.Fatalf("empty release err = %v", err)
	}
	if rem := st.Accountant().Remaining(); rem.Eps != 1 {
		t.Errorf("empty release spent budget: %+v", rem)
	}
	if err := st.UpdateBatch(workload.HeavyTail(20000, 1000, 3, 0.9, 7)); err != nil {
		t.Fatal(err)
	}
	// Default mechanism comes from the stream config; options override.
	res, err := st.ReleaseDetailed(Params{Eps: 0.3, Delta: 1e-5}, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mechanism != MechanismLaplace {
		t.Errorf("default mechanism = %q", res.Mechanism)
	}
	res, err = st.ReleaseDetailed(Params{Eps: 0.3, Delta: 1e-5}, WithSeed(1), WithMechanism(MechanismGaussian))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mechanism != MechanismGaussian {
		t.Errorf("override mechanism = %q", res.Mechanism)
	}
	if st.Accountant().Releases() != 2 {
		t.Errorf("releases = %d", st.Accountant().Releases())
	}
	// Exhaustion: third release of 0.5 exceeds eps=1.
	if _, err := st.ReleaseDetailed(Params{Eps: 0.5, Delta: 1e-5}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("over-budget err = %v", err)
	}
}

func TestStreamSummaryAndBatchCombine(t *testing.T) {
	m := testManager(t)
	st, _, err := m.CreateStream("s", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// One edge ships a summary, another ships raw items of the same skew.
	edge := NewSketch(32, 1000)
	edge.UpdateBatch(workload.HeavyTail(30000, 1000, 3, 0.9, 1))
	sum, err := edge.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.FoldSummary(sum); err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateBatch(workload.HeavyTail(30000, 1000, 3, 0.9, 2)); err != nil {
		t.Fatal(err)
	}
	// k mismatch rejected.
	small := NewSketch(8, 1000)
	small.Update(1)
	smallSum, _ := small.Summary()
	if err := st.FoldSummary(smallSum); err == nil {
		t.Error("k-mismatched summary accepted")
	}
	h, err := st.ReleaseDetailed(Params{Eps: 2, Delta: 1e-5}, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for x := Item(1); x <= 3; x++ {
		if h.Histogram.Get(x) == 0 {
			t.Errorf("heavy item %d missing from combined release", x)
		}
	}
	stats, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != 1 || stats.Batches != 1 || stats.Ingested != 30000 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.AggregateCounters == 0 || stats.AggregateCounters > 32 ||
		stats.IngestCounters == 0 || stats.IngestCounters > 32 {
		t.Errorf("counter stats outside (0, k]: %+v", stats)
	}
}

// TestFoldSummaryOverflowRefused is the regression test for wrapped fold
// sums: folding two one-key summaries of count 2^62 used to leave the
// counter at -2^63, which Estimate and ReleaseView then served. The second
// fold must fail with the aggregate and the node count as the first fold
// left them.
func TestFoldSummaryOverflowRefused(t *testing.T) {
	m := testManager(t)
	st, _, err := m.CreateStream("s", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const big = int64(1) << 62
	sum, err := NewMergeableSummarySorted(32, []Item{7}, []int64{big})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.FoldSummary(sum); err != nil {
		t.Fatal(err)
	}
	if err := st.FoldSummary(sum); err == nil {
		t.Fatal("overflowing fold accepted")
	}
	if got := st.Estimate(7); got != big {
		t.Fatalf("estimate(7) = %d after the refused fold, want %d", got, big)
	}
	if got := st.Nodes(); got != 1 {
		t.Fatalf("nodes = %d after the refused fold, want 1", got)
	}
	view, err := st.ReleaseView()
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Vals) != 1 || view.Vals[0] != big {
		t.Fatalf("release view counts %v, want [%d]", view.Vals, big)
	}
}

// TestManagerCrossStreamStress is the -race harness for the no-shared-mutex
// claim: goroutines hammer distinct streams with batch and single-item
// ingest while others release, read stats, snapshot the manager, and churn
// a third stream's lifecycle. Any shared unsynchronized state shows up
// under -race; any cross-stream lock shows up as the stress test hanging on
// contention it should not have.
func TestManagerCrossStreamStress(t *testing.T) {
	m := testManager(t)
	const streams = 4
	for i := 0; i < streams; i++ {
		if _, _, err := m.CreateStream(fmt.Sprintf("s%d", i), StreamConfig{Budget: Budget{Eps: 1e6, Delta: 0.5}}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		st, _ := m.Stream(fmt.Sprintf("s%d", i))
		wg.Add(2)
		go func(st *Stream, seed uint64) { // batch ingester
			defer wg.Done()
			batch := workload.Zipf(512, 1000, 1.1, seed)
			for iter := 0; iter < 50; iter++ {
				if err := st.UpdateBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(st, uint64(i))
		go func(st *Stream) { // releaser + stats reader
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				if _, err := st.Stats(); err != nil {
					t.Error(err)
					return
				}
				_, err := st.ReleaseDetailed(Params{Eps: 0.5, Delta: 1e-7}, WithSeed(uint64(iter)))
				if err != nil && !errors.Is(err, ErrStreamEmpty) {
					t.Error(err)
					return
				}
				st.Estimate(Item(iter + 1))
			}
		}(st)
	}
	wg.Add(2)
	go func() { // lifecycle churn on an unrelated name
		defer wg.Done()
		for iter := 0; iter < 100; iter++ {
			if _, _, err := m.CreateStream("churn", StreamConfig{}); err != nil {
				t.Error(err)
				return
			}
			m.DeleteStream("churn")
		}
	}()
	go func() { // concurrent snapshots
		defer wg.Done()
		for iter := 0; iter < 10; iter++ {
			var buf bytes.Buffer
			if err := m.Snapshot(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	for i := 0; i < streams; i++ {
		st, _ := m.Stream(fmt.Sprintf("s%d", i))
		stats, err := st.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Ingested != 50*512 {
			t.Errorf("stream %d ingested %d, want %d", i, stats.Ingested, 50*512)
		}
	}
}

func equalHistograms(a, b Histogram) bool {
	if len(a) != len(b) {
		return false
	}
	for x, v := range a {
		w, ok := b[x]
		if !ok || v != w { // exact float equality: same draws or bust
			return false
		}
	}
	return true
}

// TestManagerSnapshotRestore is the durability contract: a restored manager
// resumes every stream with identical stats, byte-identical seeded
// releases, exactly the remaining budget, and the same response to stream
// continuation.
// countingWriter counts Write calls.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestManagerSnapshotSingleWrite: the server hands Snapshot a raw *os.File,
// so every Write is a syscall. The snapshot used to go out one header field
// and one 16-byte counter at a time (8 584 writes for 8 streams × 4 shards
// × k=256); it must be exactly one.
func TestManagerSnapshotSingleWrite(t *testing.T) {
	m, err := NewManager(StreamConfig{K: 256, Universe: 1 << 16, Shards: 4, Budget: Budget{Eps: 4, Delta: 1e-4}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		st, _, err := m.CreateStream(fmt.Sprintf("s%d", i), StreamConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.UpdateBatch(workload.Zipf(4096, 1<<16, 1.05, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	var w countingWriter
	if err := m.Snapshot(&w); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Errorf("Snapshot of %d bytes issued %d Write calls, want 1", w.Len(), w.writes)
	}
	if _, err := RestoreManager(&w.Buffer, StreamConfig{K: 256, Universe: 1 << 16, Shards: 4, Budget: Budget{Eps: 4, Delta: 1e-4}}); err != nil {
		t.Fatalf("single-write snapshot does not restore: %v", err)
	}
}

func TestManagerSnapshotRestore(t *testing.T) {
	m := testManager(t)
	a, _, err := m.CreateStream("alpha", StreamConfig{Mechanism: MechanismLaplace})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := m.CreateStream("beta", StreamConfig{K: 16, Universe: 500, Shards: 2, Budget: Budget{Eps: 2, Delta: 1e-5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.UpdateBatch(workload.HeavyTail(40000, 1000, 3, 0.9, 11)); err != nil {
		t.Fatal(err)
	}
	edge := NewSketch(32, 1000)
	edge.UpdateBatch(workload.Zipf(10000, 1000, 1.2, 12))
	sum, _ := edge.Summary()
	if err := a.FoldSummary(sum); err != nil {
		t.Fatal(err)
	}
	if err := b.UpdateBatch(workload.Zipf(20000, 500, 1.3, 13)); err != nil {
		t.Fatal(err)
	}
	// Spend some budget so the restored accountants have history.
	if _, err := a.ReleaseDetailed(Params{Eps: 1, Delta: 1e-5}, WithSeed(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReleaseDetailed(Params{Eps: 0.5, Delta: 1e-6}, WithSeed(2)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Canonical: a second snapshot of the same quiesced state is
	// byte-identical.
	var buf2 bytes.Buffer
	if err := m.Snapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("snapshots of quiesced state differ")
	}

	r, err := RestoreManager(bytes.NewReader(buf.Bytes()), m.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("restored %d streams", r.Len())
	}
	for _, name := range []string{"alpha", "beta"} {
		orig, _ := m.Stream(name)
		rest, ok := r.Stream(name)
		if !ok {
			t.Fatalf("stream %q missing after restore", name)
		}
		if rest.Config() != orig.Config() {
			t.Errorf("%s config: %+v vs %+v", name, rest.Config(), orig.Config())
		}
		so, err1 := orig.Stats()
		sr, err2 := rest.Stats()
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if so != sr {
			t.Errorf("%s stats diverge:\n  orig %+v\n  rest %+v", name, so, sr)
		}
		// Byte-identical seeded releases (each spends its own accountant the
		// same way).
		ho, err1 := orig.ReleaseDetailed(Params{Eps: 0.25, Delta: 1e-6}, WithSeed(99))
		hr, err2 := rest.ReleaseDetailed(Params{Eps: 0.25, Delta: 1e-6}, WithSeed(99))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !equalHistograms(ho.Histogram, hr.Histogram) {
			t.Errorf("%s seeded release diverges after restore", name)
		}
		// Continuation: both copies must respond identically to more data.
		cont := workload.Zipf(5000, 400, 1.1, 14)
		if err := orig.UpdateBatch(cont); err != nil {
			t.Fatal(err)
		}
		if err := rest.UpdateBatch(cont); err != nil {
			t.Fatal(err)
		}
		ho, err1 = orig.ReleaseDetailed(Params{Eps: 0.25, Delta: 1e-6}, WithSeed(100))
		hr, err2 = rest.ReleaseDetailed(Params{Eps: 0.25, Delta: 1e-6}, WithSeed(100))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !equalHistograms(ho.Histogram, hr.Histogram) {
			t.Errorf("%s continuation release diverges after restore", name)
		}
		ro, rr := orig.Accountant().Remaining(), rest.Accountant().Remaining()
		if ro != rr {
			t.Errorf("%s remaining budget diverges: %+v vs %+v", name, ro, rr)
		}
	}

	// Corrupt snapshots fail loudly.
	raw := buf.Bytes()
	if _, err := RestoreManager(bytes.NewReader(raw[:len(raw)/2]), m.Defaults()); err == nil {
		t.Error("truncated snapshot restored")
	}
	bad := append([]byte{}, raw...)
	bad[0] ^= 0xff
	if _, err := RestoreManager(bytes.NewReader(bad), m.Defaults()); err == nil {
		t.Error("bad-magic snapshot restored")
	}
}
