package baseline

import (
	"fmt"
	"math"
	"testing"

	"dpmg/internal/hist"
	"dpmg/internal/mg"
	"dpmg/internal/noise"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

const (
	eps   = 1.0
	delta = 1e-6
)

func stdSketch(k int, str stream.Stream) *mg.StandardSketch {
	sk := mg.NewStandard(k)
	sk.Process(str)
	return sk
}

func TestChanPureRecoversHeavyHitters(t *testing.T) {
	d := uint64(300)
	k := 8
	str := workload.HeavyTail(200000, int(d), 3, 0.9, 1)
	sk := stdSketch(k, str)
	rel, err := ChanPure(sk, eps, d, noise.NewSource(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) != k {
		t.Fatalf("released %d items, want %d", len(rel), k)
	}
	f := hist.Exact(str)
	for _, x := range hist.TopK(f, 3) {
		if _, ok := rel[x]; !ok {
			t.Errorf("heavy item %d missed", x)
		}
	}
}

func TestChanPureNoiseScalesWithK(t *testing.T) {
	// The defining weakness: per-item noise scale is k/eps, so the released
	// error of a fixed heavy item grows linearly in k. Measure the standard
	// deviation of a heavy item's released value across seeds.
	d := uint64(100)
	str := workload.HeavyTail(100000, int(d), 2, 0.95, 3)
	f := hist.Exact(str)
	heavy := hist.TopK(f, 1)[0]
	devAt := func(k int) float64 {
		sk := stdSketch(k, str)
		var vals []float64
		for seed := uint64(0); seed < 120; seed++ {
			rel, err := ChanPure(sk, eps, d, noise.NewSource(seed))
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := rel[heavy]; ok {
				vals = append(vals, v-float64(sk.Estimate(heavy)))
			}
		}
		var mean, sq float64
		for _, v := range vals {
			mean += v
		}
		mean /= float64(len(vals))
		for _, v := range vals {
			sq += (v - mean) * (v - mean)
		}
		return math.Sqrt(sq / float64(len(vals)-1))
	}
	d4, d32 := devAt(4), devAt(32)
	if ratio := d32 / d4; ratio < 4 {
		t.Errorf("noise ratio k=32 vs k=4 is %v, want ~8 (linear in k)", ratio)
	}
}

func TestChanApproxThresholdScalesWithK(t *testing.T) {
	t8 := ChanApproxThreshold(eps, delta, 8)
	t64 := ChanApproxThreshold(eps, delta, 64)
	if t64 < 6*t8/1.2 {
		t.Errorf("threshold should scale ~linearly with k: t8=%v t64=%v", t8, t64)
	}
}

func TestChanApprox(t *testing.T) {
	k := 8
	str := workload.HeavyTail(500000, 200, 2, 0.95, 4)
	sk := stdSketch(k, str)
	rel, err := ChanApprox(sk, eps, delta, noise.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	thresh := ChanApproxThreshold(eps, delta, k)
	for x, v := range rel {
		if v < thresh {
			t.Fatalf("item %d below threshold", x)
		}
		if sk.Estimate(x) == 0 {
			t.Fatalf("item %d not in sketch", x)
		}
	}
	f := hist.Exact(str)
	for _, x := range hist.TopK(f, 2) {
		if _, ok := rel[x]; !ok {
			t.Errorf("very heavy item %d missed (threshold %v)", x, thresh)
		}
	}
}

func TestBohlerAsPublishedRuns(t *testing.T) {
	// Functional test only — the mechanism is known-unsound (E9 audits it).
	sk := stdSketch(8, workload.Zipf(50000, 200, 1.3, 6))
	rel, err := BohlerAsPublished(sk, eps, delta, noise.NewSource(7))
	if err != nil {
		t.Fatal(err)
	}
	for x := range rel {
		if sk.Estimate(x) == 0 {
			t.Fatalf("item %d not in sketch", x)
		}
	}
}

func TestBohlerNoiseSmallerThanChan(t *testing.T) {
	// Its (invalid) advantage: threshold much lower than the corrected one.
	bohler := 1 + 2*noise.LaplaceQuantile(1/eps, delta)
	chan8 := ChanApproxThreshold(eps, delta, 8)
	if bohler >= chan8 {
		t.Errorf("expected Böhler threshold %v < corrected %v", bohler, chan8)
	}
}

func TestKorolova(t *testing.T) {
	str := workload.Zipf(100000, 500, 1.2, 8)
	f := hist.Exact(str)
	rel, err := Korolova(f, eps, delta, noise.NewSource(9))
	if err != nil {
		t.Fatal(err)
	}
	thresh := 1 + math.Log(1/(2*delta))/eps
	for x, v := range rel {
		if v < thresh {
			t.Fatalf("item %d below threshold", x)
		}
		if f[x] == 0 {
			t.Fatalf("item %d has zero true count", x)
		}
		if math.Abs(v-float64(f[x])) > 40 { // |Lap(1)| > 40 is impossible in practice
			t.Fatalf("item %d error %v too large for sensitivity-1 noise", x, v-float64(f[x]))
		}
	}
	for _, x := range hist.TopK(f, 10) {
		if _, ok := rel[x]; !ok {
			t.Errorf("top item %d missed by non-streaming baseline", x)
		}
	}
}

func TestKorolovaValidation(t *testing.T) {
	if _, err := Korolova(nil, 0, 0.1, noise.NewSource(1)); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := Korolova(nil, 1, 0.5, noise.NewSource(1)); err == nil {
		t.Error("delta=0.5 accepted")
	}
}

func TestFrequencyOracle(t *testing.T) {
	d := uint64(1024)
	str := workload.HeavyTail(300000, int(d), 4, 0.9, 10)
	o, err := NewFrequencyOracle(d, 0.01, eps, 11)
	if err != nil {
		t.Fatal(err)
	}
	o.Process(str)
	rel := o.Release(8, d, noise.NewSource(12))
	if len(rel) != 8 {
		t.Fatalf("released %d items", len(rel))
	}
	f := hist.Exact(str)
	for _, x := range hist.TopK(f, 4) {
		if _, ok := rel[x]; !ok {
			t.Errorf("heavy item %d missed by frequency oracle", x)
		}
	}
}

func TestFrequencyOracleDepthGrowsWithUniverse(t *testing.T) {
	a, _ := NewFrequencyOracle(1<<8, 0.01, eps, 1)
	b, _ := NewFrequencyOracle(1<<20, 0.01, eps, 1)
	if b.sketch.Depth() <= a.sketch.Depth() {
		t.Errorf("depth should grow with log d: %d vs %d", a.sketch.Depth(), b.sketch.Depth())
	}
}

func TestValidationErrors(t *testing.T) {
	sk := stdSketch(4, stream.Stream{1})
	if _, err := ChanPure(sk, 0, 10, noise.NewSource(1)); err == nil {
		t.Error("ChanPure eps=0 accepted")
	}
	if _, err := ChanPure(sk, 1, 0, noise.NewSource(1)); err == nil {
		t.Error("ChanPure d=0 accepted")
	}
	if _, err := ChanApprox(sk, -1, 0.1, noise.NewSource(1)); err == nil {
		t.Error("ChanApprox eps<0 accepted")
	}
	if _, err := ChanApprox(sk, 1, 2, noise.NewSource(1)); err == nil {
		t.Error("ChanApprox delta=2 accepted")
	}
	if _, err := BohlerAsPublished(sk, 0, 0.1, noise.NewSource(1)); err == nil {
		t.Error("Bohler eps=0 accepted")
	}
	if _, err := NewFrequencyOracle(0, 0.1, 1, 1); err == nil {
		t.Error("oracle d=0 accepted")
	}
	if _, err := NewFrequencyOracle(10, 0.1, 0, 1); err == nil {
		t.Error("oracle eps=0 accepted")
	}
}

// BohlerAsPublished is the Böhler–Kerschbaum heavy-hitters release exactly
// as published: Laplace(1/eps) noise on each stored Misra-Gries counter and
// a threshold hiding single differing keys. The paper (Section 1, "Relation
// to Böhler and Kerschbaum") shows the true sensitivity of the sketch is k,
// so this DOES NOT satisfy (eps, delta)-DP for k > 1. Kept for the E9 audit
// which demonstrates the violation empirically.
func BohlerAsPublished(sk *mg.StandardSketch, eps, delta float64, src noise.Source) (hist.Estimate, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("baseline: eps must be positive, got %v", eps)
	}
	if delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("baseline: delta must be in (0,1), got %v", delta)
	}
	thresh := 1 + 2*noise.LaplaceQuantile(1/eps, delta)
	out := make(hist.Estimate)
	for _, x := range sk.SortedKeys() {
		if v := float64(sk.Estimate(x)) + noise.Laplace(src, 1/eps); v >= thresh {
			out[x] = v
		}
	}
	return out, nil
}
