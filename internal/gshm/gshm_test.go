package gshm

import (
	"math"
	"slices"
	"testing"

	"dpmg/internal/hist"
	"dpmg/internal/noise"
	"dpmg/internal/pamg"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

func TestDeltaForMonotoneInTau(t *testing.T) {
	// More threshold can only help privacy.
	for _, sigma := range []float64{1, 5, 20} {
		prev := math.Inf(1)
		for tau := 0.0; tau <= 200; tau += 10 {
			d := DeltaFor(1.0, Config{Sigma: sigma, Tau: tau, L: 8})
			if d > prev+1e-12 {
				t.Fatalf("sigma=%v: delta increased with tau at %v", sigma, tau)
			}
			prev = d
		}
	}
}

func TestDeltaForMonotoneInSigma(t *testing.T) {
	// At a fixed large threshold, more noise helps privacy.
	prev := math.Inf(1)
	for sigma := 1.0; sigma <= 64; sigma *= 2 {
		d := DeltaFor(1.0, Config{Sigma: sigma, Tau: 40 * sigma, L: 8})
		if d > prev+1e-12 {
			t.Fatalf("delta increased with sigma at %v", sigma)
		}
		prev = d
	}
}

func TestDeltaForGrowsWithL(t *testing.T) {
	c := Config{Sigma: 10, Tau: 50}
	d4 := DeltaFor(1, Config{Sigma: c.Sigma, Tau: c.Tau, L: 4})
	d64 := DeltaFor(1, Config{Sigma: c.Sigma, Tau: c.Tau, L: 64})
	if d64 <= d4 {
		t.Errorf("delta should grow with l: l=4 %v, l=64 %v", d4, d64)
	}
}

func TestSimpleParamsSatisfyExactCondition(t *testing.T) {
	// Lemma 24 is a valid (loose) sufficient condition, so its parameters
	// must pass the exact Theorem 23 test.
	for _, l := range []int{1, 4, 32, 256} {
		for _, eps := range []float64{0.3, 0.9} {
			delta := 1e-6
			c := SimpleParams(eps, delta, l)
			if got := DeltaFor(eps, c); got > delta {
				t.Errorf("l=%d eps=%v: simple params give delta %v > %v", l, eps, got, delta)
			}
		}
	}
}

func TestCalibrateBeatsSimple(t *testing.T) {
	eps, delta := 0.9, 1e-6
	for _, l := range []int{4, 64} {
		simple := SimpleParams(eps, delta, l)
		exact, err := Calibrate(eps, delta, l)
		if err != nil {
			t.Fatal(err)
		}
		if got := DeltaFor(eps, exact); got > delta*(1+1e-9) {
			t.Fatalf("l=%d: calibrated params infeasible: delta %v", l, got)
		}
		if exact.Tau+2*exact.Sigma > simple.Tau+2*simple.Sigma {
			t.Errorf("l=%d: calibration worse than Lemma 24 (%v vs %v)",
				l, exact.Tau+2*exact.Sigma, simple.Tau+2*simple.Sigma)
		}
	}
}

func TestCalibrateLargeEps(t *testing.T) {
	// Lemma 24 only covers eps < 1, but Calibrate must handle eps >= 1 via
	// the exact condition.
	c, err := Calibrate(2.0, 1e-6, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := DeltaFor(2.0, c); got > 1e-6*(1+1e-9) {
		t.Fatalf("infeasible: %v", got)
	}
}

func TestCalibrateValidation(t *testing.T) {
	if _, err := Calibrate(0, 1e-6, 4); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := Calibrate(1, 0, 4); err == nil {
		t.Error("delta=0 accepted")
	}
	if _, err := Calibrate(1, 1e-6, 0); err == nil {
		t.Error("l=0 accepted")
	}
}

func TestSigmaScalesWithSqrtL(t *testing.T) {
	// Theorem 2: noise magnitude sqrt(k), so quadrupling l should roughly
	// double sigma for both parameterizations.
	eps, delta := 0.9, 1e-6
	s1 := SimpleParams(eps, delta, 16).Sigma
	s4 := SimpleParams(eps, delta, 64).Sigma
	if r := s4 / s1; r < 1.9 || r > 2.2 {
		t.Errorf("simple sigma ratio %v, want ~2", r)
	}
	c1, _ := Calibrate(eps, delta, 16)
	c4, _ := Calibrate(eps, delta, 64)
	if r := c4.Sigma / c1.Sigma; r < 1.5 || r > 2.6 {
		t.Errorf("calibrated sigma ratio %v, want ~2", r)
	}
}

// flatten returns a counter table as ascending parallel columns.
func flatten(counts map[stream.Item]int64) ([]stream.Item, []int64) {
	keys := make([]stream.Item, 0, len(counts))
	for x := range counts {
		keys = append(keys, x)
	}
	slices.Sort(keys)
	vals := make([]int64, len(keys))
	for i, x := range keys {
		vals[i] = counts[x]
	}
	return keys, vals
}

// releaseSortedRef is the map-based loop ReleaseFlat replaced, kept as the
// test reference: it walks the ascending keys and looks each counter up in
// the table.
func releaseSortedRef(counts map[stream.Item]int64, keys []stream.Item, c Config, src noise.Source) hist.Estimate {
	out := make(hist.Estimate)
	for _, x := range keys {
		v := counts[x]
		if v <= 0 {
			continue
		}
		if noisy := float64(v) + noise.Gaussian(src, c.Sigma); noisy >= 1+c.Tau {
			out[x] = noisy
		}
	}
	return out
}

func TestReleaseThresholdAndSupport(t *testing.T) {
	counts := map[stream.Item]int64{1: 1000, 2: 3, 3: 0, 4: -1}
	keys, vals := flatten(counts)
	c := Config{Sigma: 5, Tau: 30, L: 4}
	for seed := uint64(0); seed < 100; seed++ {
		rel := ReleaseFlat(keys, vals, c, noise.NewSource(seed))
		for x, v := range rel {
			if v < 1+c.Tau {
				t.Fatalf("released %d below threshold: %v", x, v)
			}
			if counts[x] <= 0 {
				t.Fatalf("non-positive counter %d released", x)
			}
		}
		if _, ok := rel[1]; !ok {
			t.Fatal("heavy counter suppressed (1000 >> tau)")
		}
	}
}

func TestReleaseDeterministicUnderSeed(t *testing.T) {
	keys, vals := []stream.Item{1, 2, 3}, []int64{100, 200, 300}
	c := Config{Sigma: 3, Tau: 10, L: 3}
	a := ReleaseFlat(keys, vals, c, noise.NewSource(5))
	b := ReleaseFlat(keys, vals, c, noise.NewSource(5))
	if len(a) != len(b) {
		t.Fatal("support differs under same seed")
	}
	for x, v := range a {
		if b[x] != v {
			t.Fatal("values differ under same seed")
		}
	}
}

func TestErrorBoundHolds(t *testing.T) {
	// Statistical check of the Theorem 30 error statement on a PAMG sketch.
	ss := workload.UserSets(5000, 500, 4, 1.2, 9)
	sk := pamg.New(64)
	sk.Process(ss)
	counts := sk.Counters()
	keys, vals := sk.AppendAll(nil, nil)
	cfg, err := Calibrate(1.0, 1e-6, 64)
	if err != nil {
		t.Fatal(err)
	}
	down, up := ErrorBound(cfg)
	fails := 0
	for seed := uint64(0); seed < 100; seed++ {
		rel := ReleaseFlat(keys, vals, cfg, noise.NewSource(seed))
		for x, v := range counts {
			rv, ok := rel[x]
			if !ok {
				if float64(v) > down {
					fails++
				}
				continue
			}
			if rv > float64(v)+up || rv < float64(v)-down {
				fails++
			}
		}
	}
	// Failure probability is ~2*delta per run; with delta=1e-6 any failure
	// at all indicates a bug.
	if fails > 0 {
		t.Errorf("error bound violated %d times", fails)
	}
}

func TestEmpiricalPrivacySingleCounter(t *testing.T) {
	// Black-box check of the exact condition in the simplest case l=1: the
	// mechanism on counters v and v+1 must satisfy the (eps,delta) ratio for
	// the event "released value >= t" across thresholds t.
	eps := 1.0
	delta := 1e-3 // large delta so the effect is measurable with few samples
	cfg, err := Calibrate(eps, delta, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Analytic check: P[v + N >= 1+tau] vs P[v+1 + N >= 1+tau] for the worst
	// v. The exact condition guarantees P0 <= e^eps P1 + delta and
	// P1 <= e^eps P0 + delta for all events; verify for tail events on a
	// grid of v and t.
	for v := 0.0; v <= 3*cfg.Tau; v += cfg.Tau / 8 {
		for tshift := -2 * cfg.Sigma; tshift <= 2*cfg.Sigma; tshift += cfg.Sigma / 2 {
			thr := 1 + cfg.Tau + tshift
			p0 := noise.GaussianTail(cfg.Sigma, thr-v)
			p1 := noise.GaussianTail(cfg.Sigma, thr-(v+1))
			if thr < 1+cfg.Tau { // released only if also above real threshold
				p0 = noise.GaussianTail(cfg.Sigma, 1+cfg.Tau-v)
				p1 = noise.GaussianTail(cfg.Sigma, 1+cfg.Tau-(v+1))
			}
			if p0 > math.Exp(eps)*p1+delta*(1+1e-6) {
				t.Fatalf("v=%v thr=%v: P0=%v exceeds e^eps*P1+delta", v, thr, p0)
			}
			if p1 > math.Exp(eps)*p0+delta*(1+1e-6) {
				t.Fatalf("v=%v thr=%v: P1=%v exceeds e^eps*P0+delta", v, thr, p1)
			}
		}
	}
}

func TestReleaseFlatMatchesSorted(t *testing.T) {
	// Same counters, same seed: the flat column release and the map
	// reference must be byte-identical — both visit ascending keys and draw one
	// Gaussian per strictly positive counter.
	counts := map[stream.Item]int64{3: 40, 7: 0, 11: 55, 19: -2, 23: 61, 40: 1}
	keys := []stream.Item{3, 7, 11, 19, 23, 40}
	vals := []int64{40, 0, 55, -2, 61, 1}
	cfg, err := Calibrate(1, 1e-6, 4)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 20; seed++ {
		viaMap := releaseSortedRef(counts, keys, cfg, noise.NewSource(seed))
		flat := ReleaseFlat(keys, vals, cfg, noise.NewSource(seed))
		if len(flat) != len(viaMap) {
			t.Fatalf("seed %d: support drift: flat %d, map %d", seed, len(flat), len(viaMap))
		}
		for x, v := range viaMap {
			if flat[x] != v {
				t.Fatalf("seed %d: value drift at %d: flat %v, map %v", seed, x, flat[x], v)
			}
		}
	}
}
