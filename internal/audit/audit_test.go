package audit

import (
	"testing"

	"dpmg/internal/core"
	"dpmg/internal/hist"
	"dpmg/internal/mg"
	"dpmg/internal/noise"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

// laplaceMech is the scalar Laplace mechanism on value v, released as item 1.
func laplaceMech(v, eps float64) Mechanism {
	return func(src noise.Source) hist.Estimate {
		return hist.Estimate{1: v + noise.Laplace(src, 1/eps)}
	}
}

func TestAuditLaplaceSound(t *testing.T) {
	// The sensitivity-1 Laplace mechanism at eps=1 must audit at <= 1.
	eps := 1.0
	events := []Event{}
	for _, thr := range ThresholdGrid(0.5, 3, 9) {
		events = append(events, ValueAtLeast(1, thr))
	}
	res := Run(laplaceMech(0, eps), laplaceMech(1, eps), events, Options{
		Trials: 60000, Delta: 0, Seed: 1,
	})
	if res.EpsLower > eps*1.02 {
		t.Errorf("audited eps %v exceeds true eps %v", res.EpsLower, eps)
	}
	// Detection power: the audit should find a loss reasonably close to eps.
	if res.EpsLower < 0.5 {
		t.Errorf("audit too weak: lower bound %v for true eps %v", res.EpsLower, eps)
	}
}

func TestAuditDetectsOversizedShift(t *testing.T) {
	// A "mechanism" whose inputs differ by 4 but adds sensitivity-1 noise
	// must audit well above eps=1.
	res := Run(laplaceMech(0, 1), laplaceMech(4, 1), []Event{
		ValueAtLeast(1, 2),
	}, Options{Trials: 60000, Delta: 0, Seed: 2})
	if res.EpsLower < 2 {
		t.Errorf("audit missed a 4x sensitivity violation: %v", res.EpsLower)
	}
}

// worstCasePMGPair returns two sketches in the Lemma 8 case-(2) relation
// (all counters differ by one) with counters well above the threshold.
func worstCasePMGPair(k int, reps int) (*mg.Sketch, *mg.Sketch) {
	d := uint64(k + 1)
	var base stream.Stream
	for r := 0; r < reps; r++ {
		for x := 1; x <= k; x++ {
			base = append(base, stream.Item(x))
		}
	}
	withExtra := base.InsertAt(len(base), stream.Item(k+1)) // triggers decrement-all
	a := mg.New(k, d)
	a.Process(withExtra)
	b := mg.New(k, d)
	b.Process(base)
	return a, b
}

func TestAuditPMGWithinBudget(t *testing.T) {
	// Algorithm 2 on the all-counters-shifted worst case must stay within
	// its claimed eps. This is the E9 soundness direction.
	if testing.Short() {
		t.Skip("statistical audit")
	}
	k := 8
	p := core.Params{Eps: 1, Delta: 1e-4}
	skA, skB := worstCasePMGPair(k, 60)
	mA := func(src noise.Source) hist.Estimate {
		rel, _ := core.Release(skA, p, src)
		return rel
	}
	mB := func(src noise.Source) hist.Estimate {
		rel, _ := core.Release(skB, p, src)
		return rel
	}
	var events []Event
	items := make([]stream.Item, k)
	for i := range items {
		items[i] = stream.Item(i + 1)
	}
	for _, thr := range ThresholdGrid(59.5, 3, 7) {
		events = append(events, ValueAtLeast(1, thr))
		events = append(events, AllAtLeast(items, thr))
	}
	res := Run(mA, mB, events, Options{Trials: 60000, Delta: p.Delta, Seed: 3})
	// Allow modest statistical slack above eps.
	if res.EpsLower > p.Eps*1.15 {
		t.Errorf("PMG audited at %v > claimed eps %v (event %s)", res.EpsLower, p.Eps, res.BestEvent)
	}
}

func TestAuditBohlerViolation(t *testing.T) {
	// The paper's critique: Böhler–Kerschbaum as published adds sensitivity-1
	// noise to a sensitivity-k sketch. On the all-shifted pair the joint
	// event exposes a privacy loss far above the claimed eps.
	if testing.Short() {
		t.Skip("statistical audit")
	}
	k := 12
	eps, delta := 1.0, 1e-4
	reps := 60
	var base stream.Stream
	for r := 0; r < reps; r++ {
		for x := 1; x <= k; x++ {
			base = append(base, stream.Item(x))
		}
	}
	withExtra := base.InsertAt(len(base), stream.Item(k+1))
	skA := mg.NewStandard(k)
	skA.Process(withExtra)
	skB := mg.NewStandard(k)
	skB.Process(base)

	// Build mechanisms around baseline.BohlerAsPublished without importing
	// it (avoid the cycle risk): replicate inline — Laplace(1/eps) noise,
	// low threshold.
	release := func(sk *mg.StandardSketch) Mechanism {
		return func(src noise.Source) hist.Estimate {
			out := make(hist.Estimate)
			thresh := 1 + 2*noise.LaplaceQuantile(1/eps, delta)
			for _, x := range sk.SortedKeys() {
				if v := float64(sk.Estimate(x)) + noise.Laplace(src, 1/eps); v >= thresh {
					out[x] = v
				}
			}
			return out
		}
	}
	items := make([]stream.Item, k)
	for i := range items {
		items[i] = stream.Item(i + 1)
	}
	var events []Event
	for _, thr := range ThresholdGrid(float64(reps)-0.5, 1.5, 5) {
		events = append(events, AllAtLeast(items, thr))
	}
	res := Run(release(skA), release(skB), events, Options{Trials: 60000, Delta: delta, Seed: 4})
	if res.EpsLower < 2*eps {
		t.Errorf("audit failed to expose the Böhler violation: lower bound %v for claimed eps %v",
			res.EpsLower, eps)
	}
}

func TestThresholdGrid(t *testing.T) {
	g := ThresholdGrid(10, 2, 5)
	if len(g) != 5 || g[0] != 8 || g[4] != 12 || g[2] != 10 {
		t.Errorf("grid = %v", g)
	}
	if g1 := ThresholdGrid(3, 1, 1); len(g1) != 1 || g1[0] != 3 {
		t.Errorf("degenerate grid = %v", g1)
	}
}

func TestPresentEvent(t *testing.T) {
	e := Present(5)
	if !e.Pred(hist.Estimate{5: 1}) || e.Pred(hist.Estimate{}) {
		t.Error("Present predicate wrong")
	}
}

func TestEventHelpers(t *testing.T) {
	ev := AllAtLeast([]stream.Item{1, 2}, 5)
	if !ev.Pred(hist.Estimate{1: 5, 2: 7}) {
		t.Error("AllAtLeast false negative")
	}
	if ev.Pred(hist.Estimate{1: 5}) {
		t.Error("AllAtLeast missing item accepted")
	}
	if ev.Pred(hist.Estimate{1: 5, 2: 4}) {
		t.Error("AllAtLeast low value accepted")
	}
	v := ValueAtLeast(3, 2)
	if v.Pred(hist.Estimate{3: 1.5}) || !v.Pred(hist.Estimate{3: 2}) {
		t.Error("ValueAtLeast predicate wrong")
	}
}

func TestAuditDefaultOptions(t *testing.T) {
	// Zero-valued options must not crash and must apply defaults; use a tiny
	// mechanism so the default 2e5 trials stay fast.
	fast := func(src noise.Source) hist.Estimate { return hist.Estimate{} }
	res := Run(fast, fast, []Event{Present(1)}, Options{Trials: 100})
	if res.Trials != 100 || res.EpsLower != 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestAuditOnRealWorkloadPairs(t *testing.T) {
	// Smoke audit on an organic (non-worst-case) neighbor pair: the bound
	// must stay below eps.
	if testing.Short() {
		t.Skip("statistical audit")
	}
	p := core.Params{Eps: 1, Delta: 1e-4}
	str := workload.Zipf(2000, 50, 1.1, 9)
	skA := mg.New(8, 50)
	skA.Process(str)
	skB := mg.New(8, 50)
	skB.Process(str.RemoveAt(1000))
	mA := func(src noise.Source) hist.Estimate { rel, _ := core.Release(skA, p, src); return rel }
	mB := func(src noise.Source) hist.Estimate { rel, _ := core.Release(skB, p, src); return rel }
	var events []Event
	for _, x := range skA.SortedKeys() {
		if !skA.IsDummy(x) {
			events = append(events, Present(x))
		}
	}
	res := Run(mA, mB, events, Options{Trials: 30000, Delta: p.Delta, Seed: 5})
	if res.EpsLower > p.Eps*1.15 {
		t.Errorf("organic pair audited at %v > eps", res.EpsLower)
	}
}

// Present is the event "x appears in the release at all".
func Present(x stream.Item) Event {
	return Event{
		Name: "present",
		Pred: func(e hist.Estimate) bool {
			_, ok := e[x]
			return ok
		},
	}
}
