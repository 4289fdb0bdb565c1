package core

import (
	"math"
	"testing"

	"dpmg/internal/hist"
	"dpmg/internal/mg"
	"dpmg/internal/noise"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

var p1 = Params{Eps: 1, Delta: 1e-6}

func buildSketch(k int, d uint64, str stream.Stream) *mg.Sketch {
	sk := mg.New(k, d)
	sk.Process(str)
	return sk
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Eps: 0, Delta: 0.1},
		{Eps: -1, Delta: 0.1},
		{Eps: 1, Delta: 0},
		{Eps: 1, Delta: 1},
		{Eps: 1, Delta: -0.1},
		{Eps: math.NaN(), Delta: 0.1},
		{Eps: math.Inf(1), Delta: 0.1},
		{Eps: 1, Delta: math.NaN()},
		{Eps: 1, Delta: math.Inf(1)},
		{Eps: 1, Delta: math.Inf(-1)},
	}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
	if p1.Validate() != nil {
		t.Error("good params rejected")
	}
}

func TestReleaseNeverOutputsDummiesOrUnseen(t *testing.T) {
	d := uint64(100)
	sk := buildSketch(8, d, workload.Zipf(1000, int(d), 1.1, 1))
	for seed := uint64(0); seed < 200; seed++ {
		rel, err := Release(sk, p1, noise.NewSource(seed))
		if err != nil {
			t.Fatal(err)
		}
		for x := range rel {
			if uint64(x) > d {
				t.Fatalf("seed %d: dummy key %d released", seed, x)
			}
			if sk.Estimate(x) == 0 {
				t.Fatalf("seed %d: zero-count key %d released", seed, x)
			}
		}
	}
}

func TestReleaseAppliesThreshold(t *testing.T) {
	sk := buildSketch(4, 100, stream.Stream{1, 2})
	for seed := uint64(0); seed < 100; seed++ {
		rel, _ := Release(sk, p1, noise.NewSource(seed))
		for x, v := range rel {
			if v < p1.Threshold() {
				t.Fatalf("seed %d: released %d with value %v below threshold %v",
					seed, x, v, p1.Threshold())
			}
		}
	}
}

func TestReleaseDeterministicUnderSeed(t *testing.T) {
	sk := buildSketch(8, 1000, workload.Zipf(5000, 1000, 1.1, 2))
	a, _ := Release(sk, p1, noise.NewSource(7))
	b, _ := Release(sk, p1, noise.NewSource(7))
	if len(a) != len(b) {
		t.Fatal("different support under same seed")
	}
	for x, v := range a {
		if b[x] != v {
			t.Fatal("different values under same seed")
		}
	}
}

func TestLemma13ErrorBound(t *testing.T) {
	// With probability >= 1-beta all released counters are within the
	// Lemma 13 interval of the sketch values. Check the failure rate over
	// many seeds stays near beta.
	k := 32
	sk := buildSketch(k, 10000, workload.Zipf(100000, 10000, 1.2, 3))
	counts := sk.Counters()
	beta := 0.1
	down, up := NoiseErrorBound(p1, k, beta)
	fails := 0
	trials := 2000
	for seed := uint64(0); seed < uint64(trials); seed++ {
		rel, _ := Release(sk, p1, noise.NewSource(seed))
		ok := true
		for _, x := range sk.SortedKeys() {
			c := float64(counts[x])
			v, present := rel[x]
			if !present {
				// Removed by threshold: error is c itself, bounded by down.
				if c > down {
					ok = false
				}
				continue
			}
			if v > c+up || v < c-down {
				ok = false
			}
		}
		if !ok {
			fails++
		}
	}
	rate := float64(fails) / float64(trials)
	if rate > beta {
		t.Errorf("Lemma 13 failure rate %v > beta %v", rate, beta)
	}
}

func TestTheorem14EndToEnd(t *testing.T) {
	// Full pipeline bound: |f̂(x) - f(x)| <= TotalErrorBound for all x, with
	// failure rate <= beta over seeds.
	k := 64
	n := 200000
	str := workload.Zipf(n, 5000, 1.3, 4)
	sk := buildSketch(k, 5000, str)
	f := hist.Exact(str)
	beta := 0.05
	bound := TotalErrorBound(p1, k, int64(n), beta)
	fails := 0
	trials := 400
	for seed := uint64(0); seed < uint64(trials); seed++ {
		rel, _ := Release(sk, p1, noise.NewSource(seed))
		worst := hist.MaxError(rel, f)
		if worst > bound {
			fails++
		}
	}
	if rate := float64(fails) / float64(trials); rate > beta {
		t.Errorf("Theorem 14 failure rate %v > beta %v (bound %v)", rate, beta, bound)
	}
}

func TestMSEWithinBound(t *testing.T) {
	// Theorem 14: per-element MSE <= 3(1 + (2+2ln(3/δ))/ε + n/(k+1))².
	k := 32
	n := 50000
	str := workload.Zipf(n, 2000, 1.2, 5)
	sk := buildSketch(k, 2000, str)
	f := hist.Exact(str)
	bound := MSEBound(p1, k, int64(n))
	// Average squared error of a fixed heavy element over many releases.
	x := hist.TopK(f, 1)[0]
	var sum float64
	trials := 3000
	for seed := uint64(0); seed < uint64(trials); seed++ {
		rel, _ := Release(sk, p1, noise.NewSource(seed))
		d := rel[x] - float64(f[x])
		sum += d * d
	}
	mse := sum / float64(trials)
	if mse > bound {
		t.Errorf("measured MSE %v exceeds bound %v", mse, bound)
	}
}

func TestReleaseStandard(t *testing.T) {
	k := 16
	std := mg.NewStandard(k)
	std.Process(workload.Zipf(20000, 1000, 1.2, 6))
	rel, err := ReleaseStandard(std, p1, noise.NewSource(1))
	if err != nil {
		t.Fatal(err)
	}
	thr := noise.StandardMGThreshold(p1.Eps, p1.Delta, k)
	for _, v := range rel {
		if v < thr {
			t.Fatalf("value %v below standard threshold %v", v, thr)
		}
	}
	// The standard threshold is higher, so the standard release can only
	// keep items the paper-variant release keeps (statistically); at least
	// assert the threshold ordering that drives it.
	if thr <= p1.Threshold() {
		t.Fatalf("standard threshold %v not above PMG threshold %v", thr, p1.Threshold())
	}
}

func TestReleaseGeometricIntegerValues(t *testing.T) {
	sk := buildSketch(8, 500, workload.Zipf(10000, 500, 1.2, 7))
	rel, err := ReleaseGeometric(sk, p1, noise.NewSource(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) == 0 {
		t.Fatal("geometric release empty on a heavy stream")
	}
	for x, v := range rel {
		if v != math.Trunc(v) {
			t.Fatalf("item %d: non-integer release %v", x, v)
		}
		if uint64(x) > 500 {
			t.Fatalf("dummy key %d released", x)
		}
		if float64(v) < noise.GeometricThreshold(p1.Eps, p1.Delta) {
			t.Fatalf("item %d below geometric threshold", x)
		}
	}
}

func TestUserLevelParams(t *testing.T) {
	got, err := UserLevelParams(Params{Eps: 2, Delta: 1e-6}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Eps-0.5) > 1e-12 {
		t.Errorf("eps = %v want 0.5", got.Eps)
	}
	want := 1e-6 / (4 * math.Exp(2))
	if math.Abs(got.Delta-want)/want > 1e-9 {
		t.Errorf("delta = %v want %v", got.Delta, want)
	}
	if _, err := UserLevelParams(Params{Eps: 1, Delta: 1e-6}, 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := UserLevelParams(Params{Eps: 0, Delta: 1e-6}, 2); err == nil {
		t.Error("bad target accepted")
	}
}

func TestReleaseUserLevel(t *testing.T) {
	ss := workload.UserSets(2000, 300, 3, 1.1, 8)
	rel, err := ReleaseUserLevel(ss, 64, 300, 3, Params{Eps: 2, Delta: 1e-6}, noise.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	f := hist.ExactSets(ss)
	for x := range rel {
		if f[x] == 0 {
			t.Fatalf("released item %d never appeared", x)
		}
	}
	// Oversized sets must be rejected.
	bad := stream.SetStream{{1, 2, 3, 4}}
	if _, err := ReleaseUserLevel(bad, 8, 10, 3, Params{Eps: 1, Delta: 1e-6}, noise.NewSource(1)); err == nil {
		t.Error("m violation accepted")
	}
}

func TestReleaseRejectsBadParams(t *testing.T) {
	sk := buildSketch(4, 10, stream.Stream{1})
	if _, err := Release(sk, Params{Eps: 0, Delta: 0.1}, noise.NewSource(1)); err == nil {
		t.Error("Release accepted eps=0")
	}
	if _, err := ReleaseStandard(mg.NewStandard(4), Params{Eps: 1, Delta: 0}, noise.NewSource(1)); err == nil {
		t.Error("ReleaseStandard accepted delta=0")
	}
	if _, err := ReleaseGeometric(sk, Params{Eps: -1, Delta: 0.1}, noise.NewSource(1)); err == nil {
		t.Error("ReleaseGeometric accepted eps<0")
	}
}

func TestBoundsMonotone(t *testing.T) {
	if TotalErrorBound(p1, 8, 1000, 0.05) <= TotalErrorBound(p1, 80, 1000, 0.05)-1000.0/9 {
		t.Log("sanity only") // larger k shrinks sketch error term
	}
	b1 := TotalErrorBound(p1, 8, 1000, 0.05)
	b2 := TotalErrorBound(p1, 8, 100000, 0.05)
	if b2 <= b1 {
		t.Error("bound must grow with n at fixed k")
	}
	m1 := MSEBound(p1, 8, 1000)
	m2 := MSEBound(Params{Eps: 0.5, Delta: 1e-6}, 8, 1000)
	if m2 <= m1 {
		t.Error("MSE bound must grow as eps shrinks")
	}
}
