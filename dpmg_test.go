package dpmg

import (
	"testing"

	"dpmg/internal/workload"
)

var pp = Params{Eps: 1, Delta: 1e-6}

func TestSketchEndToEnd(t *testing.T) {
	d := uint64(1000)
	sk := NewSketch(64, d)
	str := workload.HeavyTail(200000, int(d), 5, 0.8, 1)
	for _, x := range str {
		sk.Update(x)
	}
	if sk.N() != 200000 || sk.K() != 64 {
		t.Fatalf("accounting: N=%d K=%d", sk.N(), sk.K())
	}
	h, err := Release(sk, pp, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	top := h.TopK(5)
	if len(top) != 5 {
		t.Fatalf("TopK returned %d items", len(top))
	}
	for _, x := range top {
		if x > 5 {
			t.Errorf("designated heavy hitters are 1..5, got %d in top-5", x)
		}
	}
	// Determinism.
	h2, _ := Release(sk, pp, WithSeed(42))
	if len(h2) != len(h) {
		t.Error("same seed, different release")
	}
}

func TestHistogramHelpers(t *testing.T) {
	h := Histogram{3: 5, 1: 9, 2: 7}
	if h.Get(1) != 9 || h.Get(99) != 0 {
		t.Error("Get wrong")
	}
	items := h.Items()
	if len(items) != 3 || items[0] != 1 || items[2] != 3 {
		t.Errorf("Items = %v", items)
	}
	top := h.TopK(2)
	if top[0] != 1 || top[1] != 2 {
		t.Errorf("TopK = %v", top)
	}
}

func TestReleaseGeometricFacade(t *testing.T) {
	sk := NewSketch(16, 100)
	for _, x := range workload.Zipf(50000, 100, 1.3, 2) {
		sk.Update(x)
	}
	h, err := Release(sk, pp, WithMechanism(MechanismGeometric), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range h {
		if v != float64(int64(v)) {
			t.Fatal("geometric release must be integral")
		}
	}
}

func TestReleasePureFacade(t *testing.T) {
	sk := NewSketch(8, 200)
	for _, x := range workload.HeavyTail(100000, 200, 3, 0.9, 3) {
		sk.Update(x)
	}
	h, err := Release(sk, Params{Eps: 1.0}, WithMechanism(MechanismPure), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 8 {
		t.Fatalf("pure release kept %d items, want k", len(h))
	}
}

func TestMergeSummariesAndRelease(t *testing.T) {
	d := uint64(300)
	var sums []*MergeableSummary
	for i := 0; i < 4; i++ {
		sk := NewSketch(32, d)
		for _, x := range workload.HeavyTail(50000, int(d), 3, 0.9, uint64(i+10)) {
			sk.Update(x)
		}
		s, err := sk.Summary()
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, s)
	}
	merged, err := MergeSummaries(sums...)
	if err != nil {
		t.Fatal(err)
	}
	hLap, err := Release(merged, pp, WithMechanism(MechanismLaplace), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	hGauss, err := Release(merged, pp, WithMechanism(MechanismGaussian), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []Histogram{hLap, hGauss} {
		found := 0
		for _, x := range h.TopK(3) {
			if x <= 3 {
				found++
			}
		}
		if found < 2 {
			t.Errorf("merged release missed heavy hitters: top = %v", h.TopK(3))
		}
	}
	if _, err := MergeSummaries(); err == nil {
		t.Error("empty MergeSummaries accepted")
	}
}

func TestMergeReleased(t *testing.T) {
	a := Histogram{1: 10, 2: 4}
	b := Histogram{3: 7}
	m := MergeReleased(a, b, 2)
	if len(m) != 2 || m.Get(1) != 6 || m.Get(3) != 3 {
		t.Errorf("MergeReleased = %v", m)
	}
}

func TestUserSketch(t *testing.T) {
	us := NewUserSketch(64, 4)
	for _, set := range workload.UserSets(20000, 300, 4, 1.2, 5) {
		if err := us.AddUser(set); err != nil {
			t.Fatal(err)
		}
	}
	h, err := Release(us, pp, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(h) == 0 {
		t.Fatal("user-level release empty on heavy stream")
	}
	if err := us.AddUser([]Item{1, 1}); err == nil {
		t.Error("duplicate set accepted")
	}
	if err := us.AddUser([]Item{1, 2, 3, 4, 5}); err == nil {
		t.Error("oversized set accepted")
	}
	if err := us.AddUser(nil); err == nil {
		t.Error("empty set accepted")
	}
}

func TestUserSketchPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewUserSketch(4, 0) },
		func() { NewUserSketch(4, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestStringSketch(t *testing.T) {
	s := NewStringSketch(16, 100)
	queries, dict := workload.QueryLog(50000, 100, 1.3, 6)
	for _, q := range queries {
		if err := s.Update(dict.Name(q)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Estimate("query-0000") == 0 {
		t.Error("head query estimate zero")
	}
	if s.Estimate("never-seen") != 0 {
		t.Error("unknown string non-zero")
	}
	rel, err := s.ReleaseTop(pp, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) == 0 {
		t.Fatal("empty string release")
	}
	// Sorted descending with non-empty names.
	for i := range rel {
		if rel[i].Name == "" {
			t.Error("released empty name")
		}
		if i > 0 && rel[i].Count > rel[i-1].Count {
			t.Error("release not sorted")
		}
	}
}

func TestStringSketchCapacity(t *testing.T) {
	s := NewStringSketch(2, 2)
	if err := s.Update("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Update("b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Update("a"); err != nil {
		t.Fatal("known string rejected")
	}
	if err := s.Update("c"); err == nil {
		t.Error("capacity overflow accepted")
	}
}

func TestStandardSketchFacade(t *testing.T) {
	sk := NewStandardSketch(16)
	for _, x := range workload.HeavyTail(300000, 200, 2, 0.95, 7) {
		sk.Update(x)
	}
	if sk.K() != 16 {
		t.Fatal("K wrong")
	}
	if sk.Estimate(1) == 0 {
		t.Fatal("heavy estimate zero")
	}
	h, err := Release(sk, pp, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h[1]; !ok {
		t.Error("heavy item missing from standard release")
	}
}

// TestSummaryMergerMatchesMergeSummaries pins the steady-state merger to
// the one-shot path (same multi-way rule, reused scratch) and checks that
// the steady state really is allocation-free.
func TestSummaryMergerMatchesMergeSummaries(t *testing.T) {
	var sums []*MergeableSummary
	for i := 0; i < 6; i++ {
		sk := NewSketch(32, 500)
		sk.UpdateBatch(workload.Zipf(40000, 500, 1.1, uint64(50+i)))
		s, err := sk.Summary()
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, s)
	}
	want, err := MergeSummaries(sums...)
	if err != nil {
		t.Fatal(err)
	}
	merger := NewSummaryMerger()
	got, err := merger.MergeAll(sums)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("merger support %d, one-shot %d", got.Len(), want.Len())
	}
	for x := Item(1); x <= 500; x++ {
		if got.Estimate(x) != want.Estimate(x) {
			t.Fatalf("item %d: merger %d, one-shot %d", x, got.Estimate(x), want.Estimate(x))
		}
	}
	// Releases through the borrowed view and the detached summary agree.
	a, err := Release(got, pp, WithMechanism(MechanismLaplace), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Release(want, pp, WithMechanism(MechanismLaplace), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("release support drift: %d vs %d", len(a), len(b))
	}
	for x, v := range b {
		if a[x] != v {
			t.Fatalf("release drift at %d: %v vs %v", x, a[x], v)
		}
	}
	// Steady state allocates nothing (first call grew the scratch above).
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := merger.MergeAll(sums); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state MergeAll allocates %v times per run", allocs)
	}
	if _, err := merger.MergeAll(nil); err == nil {
		t.Error("empty merge accepted")
	}
}

func TestNewMergeableSummarySorted(t *testing.T) {
	s, err := NewMergeableSummarySorted(4, []Item{2, 5, 9}, []int64{3, 1, 7})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.Estimate(5) != 1 || s.Estimate(9) != 7 || s.Estimate(3) != 0 {
		t.Fatalf("sorted summary contents wrong")
	}
	// Must agree with the map constructor observable-for-observable,
	// including release draws.
	viaMap, err := NewMergeableSummary(4, map[Item]int64{2: 3, 5: 1, 9: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Release(s, pp, WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Release(viaMap, pp, WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("release support drift: %d vs %d", len(a), len(b))
	}
	for x, v := range b {
		if a[x] != v {
			t.Fatalf("release drift at %d", x)
		}
	}
	for _, bad := range []struct {
		keys []Item
		vals []int64
	}{
		{[]Item{5, 2}, []int64{1, 1}},    // descending
		{[]Item{2, 2}, []int64{1, 1}},    // duplicate
		{[]Item{2, 5}, []int64{1, 0}},    // non-positive
		{[]Item{1, 2, 3}, []int64{1, 1}}, // ragged
	} {
		if _, err := NewMergeableSummarySorted(4, bad.keys, bad.vals); err == nil {
			t.Errorf("invalid columns %v/%v accepted", bad.keys, bad.vals)
		}
	}
	if _, err := NewMergeableSummarySorted(2, []Item{1, 2, 3}, []int64{1, 1, 1}); err == nil {
		t.Error("overfull summary accepted")
	}
}
