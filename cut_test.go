package dpmg

import (
	"errors"
	"testing"

	"dpmg/internal/workload"
)

// TestCutSummaryDisjointSegments is the correctness pin of the edge-side
// cut primitive: successive cuts cover disjoint traffic segments, so a
// downstream stream that folds the cuts is release-for-release identical to
// one that folded a single summary of all the traffic. k is chosen above
// the distinct-item count so the sketches are exact and the comparison is
// byte-level, not error-bounded.
func TestCutSummaryDisjointSegments(t *testing.T) {
	m, err := NewManager(StreamConfig{K: 256, Universe: 1000, Shards: 4, Budget: Budget{Eps: 8, Delta: 1e-4}})
	if err != nil {
		t.Fatal(err)
	}
	edge, _, err := m.CreateStream("edge", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	first := workload.HeavyTail(20000, 200, 3, 0.9, 7)
	second := workload.HeavyTail(20000, 200, 3, 0.9, 8)

	if err := edge.UpdateBatch(first); err != nil {
		t.Fatal(err)
	}
	cut1, err := edge.CutSummary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cut1 == nil {
		t.Fatal("first cut returned nil with data in the stream")
	}
	if err := edge.UpdateBatch(second); err != nil {
		t.Fatal(err)
	}
	cut2, err := edge.CutSummary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cut2 == nil {
		t.Fatal("second cut returned nil with data in the stream")
	}

	// Root that folds the two cuts vs a root that folds one summary of all
	// the traffic.
	fanin, _, err := m.CreateStream("fanin", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*MergeableSummary{cut1, cut2} {
		wrapped, err := NewMergeableSummarySorted(c.K(), c.Keys(), c.Counts())
		if err != nil {
			t.Fatal(err)
		}
		if err := fanin.FoldSummary(wrapped); err != nil {
			t.Fatal(err)
		}
	}
	single, _, err := m.CreateStream("single", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]Item(nil), first...), second...)
	if err := single.UpdateBatch(all); err != nil {
		t.Fatal(err)
	}
	one, err := single.CutSummary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fanin2Ingest(m, one); err != nil {
		t.Fatal(err)
	}
	twin, _ := m.Stream("fanin2")

	a, err := fanin.ReleaseDetailed(Params{Eps: 1, Delta: 1e-6}, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := twin.ReleaseDetailed(Params{Eps: 1, Delta: 1e-6}, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Histogram) != len(b.Histogram) {
		t.Fatalf("fan-in release has %d keys, single-summary twin %d", len(a.Histogram), len(b.Histogram))
	}
	for k, v := range b.Histogram {
		if a.Histogram[k] != v {
			t.Fatalf("key %d: fan-in %v, twin %v", k, a.Histogram[k], v)
		}
	}
}

// fanin2Ingest folds one summary into a fresh "fanin2" stream.
func fanin2Ingest(m *Manager, sum *MergeableSummary) error {
	st, _, err := m.CreateStream("fanin2", StreamConfig{})
	if err != nil {
		return err
	}
	wrapped, err := NewMergeableSummarySorted(sum.K(), sum.Keys(), sum.Counts())
	if err != nil {
		return err
	}
	return st.FoldSummary(wrapped)
}

// TestCutSummaryResetAndBookkeeping pins the reset semantics: an immediate
// second cut has nothing to extract, estimates drop to zero, and the
// monotone bookkeeping counters survive the cut.
func TestCutSummaryResetAndBookkeeping(t *testing.T) {
	m := testManager(t)
	st, _, err := m.CreateStream("tenant", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if cut, err := st.CutSummary(nil); err != nil || cut != nil {
		t.Fatalf("cut of an empty stream = (%v, %v), want (nil, nil)", cut, err)
	}
	if err := st.UpdateBatch([]Item{5, 5, 5, 9}); err != nil {
		t.Fatal(err)
	}
	before := st.Ingested()
	cut, err := st.CutSummary(nil)
	if err != nil || cut == nil {
		t.Fatalf("cut = (%v, %v), want data", cut, err)
	}
	if got := cut.Estimate(5); got != 3 {
		t.Fatalf("cut estimate(5) = %d, want 3", got)
	}
	if got := st.Estimate(5); got != 0 {
		t.Fatalf("post-cut stream estimate(5) = %d, want 0", got)
	}
	if again, err := st.CutSummary(nil); err != nil || again != nil {
		t.Fatalf("immediate re-cut = (%v, %v), want (nil, nil)", again, err)
	}
	if st.Ingested() != before {
		t.Fatalf("cut changed Ingested: %d → %d (monotone counters must survive cuts)", before, st.Ingested())
	}
}

// TestCutSummaryPersistFailureAborts pins the at-most-once contract: a
// failing persist callback leaves the stream unchanged, so the traffic is
// still there for the retry — never lost, never extracted twice.
func TestCutSummaryPersistFailureAborts(t *testing.T) {
	m := testManager(t)
	st, _, err := m.CreateStream("tenant", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateBatch([]Item{7, 7, 11}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("spool full")
	if _, err := st.CutSummary(func(*MergeableSummary) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("cut error = %v, want wrapped persist error", err)
	}
	if got := st.Estimate(7); got != 2 {
		t.Fatalf("post-abort estimate(7) = %d, want 2 (stream must be unchanged)", got)
	}
	cut, err := st.CutSummary(nil)
	if err != nil || cut == nil || cut.Estimate(7) != 2 {
		t.Fatalf("retry cut = (%v, %v), want the aborted traffic", cut, err)
	}
}

// TestCutSummaryFaultsIn pins that cutting an offloaded stream faults it in
// first and extracts exactly the offloaded traffic.
func TestCutSummaryFaultsIn(t *testing.T) {
	m, _, _, _ := lifecycleManager(t)
	st, _, err := m.CreateStream("tenant", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateBatch([]Item{3, 3, 3, 3}); err != nil {
		t.Fatal(err)
	}
	if ok, err := m.Evict("tenant"); err != nil || !ok {
		t.Fatalf("evict = (%v, %v)", ok, err)
	}
	cut, err := st.CutSummary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cut == nil || cut.Estimate(3) != 4 {
		t.Fatalf("cut of offloaded stream = %v, want estimate(3)=4", cut)
	}
	if !st.Resident() {
		t.Fatal("cut left the stream offloaded")
	}
}

// TestManagerFaultIn pins the admin-surface fault-in: idempotent, honest
// about unknown streams, and failing with ErrFaultIn when the record is
// gone.
func TestManagerFaultIn(t *testing.T) {
	m, _, store, _ := lifecycleManager(t)
	st, _, err := m.CreateStream("tenant", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Update(4); err != nil {
		t.Fatal(err)
	}
	if ok, err := m.FaultIn("nope"); ok || err != nil {
		t.Fatalf("FaultIn(unknown) = (%v, %v), want (false, nil)", ok, err)
	}
	if ok, err := m.FaultIn("tenant"); ok || err != nil {
		t.Fatalf("FaultIn(resident) = (%v, %v), want (false, nil)", ok, err)
	}
	if ok, err := m.Evict("tenant"); err != nil || !ok {
		t.Fatalf("evict = (%v, %v)", ok, err)
	}
	if ok, err := m.FaultIn("tenant"); !ok || err != nil {
		t.Fatalf("FaultIn(offloaded) = (%v, %v), want (true, nil)", ok, err)
	}
	if !st.Resident() {
		t.Fatal("FaultIn reported success but the stream is not resident")
	}
	// Break the record behind the manager's back and verify the error class.
	if ok, err := m.Evict("tenant"); err != nil || !ok {
		t.Fatalf("re-evict = (%v, %v)", ok, err)
	}
	if err := store.Delete("tenant"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.FaultIn("tenant"); !errors.Is(err, ErrFaultIn) {
		t.Fatalf("FaultIn with a lost record = %v, want ErrFaultIn", err)
	}
}
