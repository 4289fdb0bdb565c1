package dpmg

// Integration tests exercising full pipelines across modules: sketch →
// release → metrics, distributed merge → release, user-level end-to-end,
// continual monitoring, and cross-implementation consistency. These are the
// "does the whole system hang together" checks on top of the per-module
// unit and property tests.

import (
	"math"
	"testing"

	"dpmg/internal/hist"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

func TestPipelineSketchReleaseRecall(t *testing.T) {
	// On a strongly skewed stream the private release must recover the true
	// top items with high recall despite noise and thresholding.
	const d = 50_000
	str := workload.Zipf(1_000_000, d, 1.3, 77)
	f := hist.Exact(str)
	sk := NewSketch(512, d)
	for _, x := range str {
		sk.Update(x)
	}
	h, err := Release(sk, Params{Eps: 1, Delta: 1e-6}, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if r := hist.RecallAtK(hist.Estimate(h), f, 20); r < 0.9 {
		t.Errorf("top-20 recall %v < 0.9", r)
	}
	// Theorem 14: lower error bounded by noise + threshold + sketch slack.
	bound := float64(len(str))/513 + 60
	for x, v := range h {
		if v > float64(f[x])+60 {
			t.Errorf("item %d overestimated: %v vs %d", x, v, f[x])
		}
		if v < float64(f[x])-bound {
			t.Errorf("item %d underestimated beyond bound: %v vs %d", x, v, f[x])
		}
	}
}

func TestPipelineAllReleasesAgreeOnHeavyHitters(t *testing.T) {
	// Laplace, geometric, pure-DP and standard-sketch releases of the same
	// stream must all surface the same dominant items.
	const d = 2_000
	str := workload.HeavyTail(400_000, d, 4, 0.9, 5)
	p := Params{Eps: 1, Delta: 1e-6}

	sk := NewSketch(64, d)
	std := NewStandardSketch(64)
	for _, x := range str {
		sk.Update(x)
		std.Update(x)
	}
	releases := map[string]Histogram{}
	var err error
	if releases["laplace"], err = Release(sk, p, WithSeed(3)); err != nil {
		t.Fatal(err)
	}
	if releases["geometric"], err = Release(sk, p, WithMechanism(MechanismGeometric), WithSeed(3)); err != nil {
		t.Fatal(err)
	}
	if releases["pure"], err = Release(sk, Params{Eps: 1}, WithMechanism(MechanismPure), WithSeed(3)); err != nil {
		t.Fatal(err)
	}
	if releases["standard"], err = Release(std, p, WithSeed(3)); err != nil {
		t.Fatal(err)
	}
	for name, h := range releases {
		got := map[Item]bool{}
		for _, x := range h.TopK(4) {
			got[x] = true
		}
		for x := Item(1); x <= 4; x++ {
			if !got[x] {
				t.Errorf("%s release missed designated heavy item %d (top=%v)", name, x, h.TopK(4))
			}
		}
	}
}

func TestPipelineDistributedMatchesCentral(t *testing.T) {
	// Merging per-server summaries and privatizing must agree with a single
	// central sketch up to the documented error bounds.
	const d = 10_000
	const parts = 6
	var locals []*MergeableSummary
	central := NewSketch(128, d)
	var all stream.Stream
	for i := 0; i < parts; i++ {
		str := workload.Zipf(100_000, d, 1.2, uint64(40+i))
		all = append(all, str...)
		sk := NewSketch(128, d)
		for _, x := range str {
			sk.Update(x)
			central.Update(x)
		}
		s, err := sk.Summary()
		if err != nil {
			t.Fatal(err)
		}
		locals = append(locals, s)
	}
	merged, err := MergeSummaries(locals...)
	if err != nil {
		t.Fatal(err)
	}
	f := hist.Exact(all)
	slack := float64(len(all))/129 + 1
	// Non-private check: the merged summary obeys the Lemma 29 bound.
	for x, fx := range f {
		est := float64(merged.inner.Estimate(x))
		if est > float64(fx) || est < float64(fx)-slack {
			t.Fatalf("merged summary violates bound at %d: %v vs %d", x, est, fx)
		}
	}
	// Private releases from both paths recover the same top-5.
	hc, err := Release(central, Params{Eps: 1, Delta: 1e-6}, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	hm, err := Release(merged, Params{Eps: 1, Delta: 1e-6}, WithMechanism(MechanismGaussian), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	top := hist.TopK(f, 5)
	for _, x := range top {
		if _, ok := hc[x]; !ok {
			t.Errorf("central release missed top item %d", x)
		}
		if _, ok := hm[x]; !ok {
			t.Errorf("merged release missed top item %d", x)
		}
	}
}

func TestPipelineUserLevelBudgetsComparable(t *testing.T) {
	// The user-level release and the per-element release must both work on
	// the same data interpreted at their own granularity.
	const d = 3_000
	sets := workload.UserSets(30_000, d, 8, 1.1, 6)
	us := NewUserSketch(256, 8)
	for _, set := range sets {
		if err := us.AddUser(set); err != nil {
			t.Fatal(err)
		}
	}
	h, err := Release(us, Params{Eps: 1, Delta: 1e-6}, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	f := hist.ExactSets(sets)
	if r := hist.RecallAtK(hist.Estimate(h), f, 10); r < 0.8 {
		t.Errorf("user-level top-10 recall %v", r)
	}
	for x, v := range h {
		if math.Abs(v-float64(f[x])) > float64(sets.TotalLen())/257+2000 {
			t.Errorf("item %d error too large: %v vs %d", x, v, f[x])
		}
	}
}

func TestPipelineContinualConsistentWithOneShot(t *testing.T) {
	// The final continual snapshot must agree with a one-shot release on
	// the full stream up to the (larger) continual noise.
	const d = 40
	const T = 16
	const perEpoch = 10_000
	data := workload.Zipf(T*perEpoch, d, 1.1, 8)
	p := Params{Eps: 4, Delta: 1e-5}

	m, err := NewContinualMonitor(64, d, T, p, ContinualDyadic, 3)
	if err != nil {
		t.Fatal(err)
	}
	var last Histogram
	for e := 0; e < T; e++ {
		for i := 0; i < perEpoch; i++ {
			m.Update(data[e*perEpoch+i])
		}
		if last, err = m.EndEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	oneShot := NewSketch(64, d)
	for _, x := range data {
		oneShot.Update(x)
	}
	ref, err := Release(oneShot, p, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	// Heavy item estimates agree within the continual noise budget.
	for x := Item(1); x <= 3; x++ {
		if diff := math.Abs(last.Get(x) - ref.Get(x)); diff > 500 {
			t.Errorf("item %d: continual %v vs one-shot %v", x, last.Get(x), ref.Get(x))
		}
	}
}

func TestSeedIsolation(t *testing.T) {
	// Different seeds must give different noise but identical support
	// behavior on heavy items; same seed identical everything. Guards
	// against accidental global-RNG usage.
	const d = 1_000
	sk := NewSketch(32, d)
	for _, x := range workload.Zipf(200_000, d, 1.3, 9) {
		sk.Update(x)
	}
	p := Params{Eps: 1, Delta: 1e-6}
	a1, _ := Release(sk, p, WithSeed(100))
	a2, _ := Release(sk, p, WithSeed(100))
	b, _ := Release(sk, p, WithSeed(101))
	identical := len(a1) == len(a2)
	for x, v := range a1 {
		if a2[x] != v {
			identical = false
		}
	}
	if !identical {
		t.Fatal("same-seed releases differ")
	}
	someDiff := false
	for x, v := range a1 {
		if bv, ok := b[x]; ok && bv != v {
			someDiff = true
		}
	}
	if !someDiff {
		t.Fatal("different-seed releases produced identical noise")
	}
}
