package noise

import (
	"math"
	"testing"
)

const sampleCount = 200000

func moments(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs) - 1)
	return mean, variance
}

func TestLaplaceMoments(t *testing.T) {
	src := NewSource(1)
	for _, b := range []float64{0.25, 1, 4} {
		xs := make([]float64, sampleCount)
		LaplaceVec(src, b, xs)
		mean, variance := moments(xs)
		if math.Abs(mean) > 6*b/math.Sqrt(sampleCount)*math.Sqrt2 {
			t.Errorf("b=%v: mean %v too far from 0", b, mean)
		}
		want := 2 * b * b
		if math.Abs(variance-want)/want > 0.05 {
			t.Errorf("b=%v: variance %v, want ~%v", b, variance, want)
		}
	}
}

func TestLaplaceEmpiricalCDF(t *testing.T) {
	src := NewSource(2)
	b := 1.5
	// Check the CDF at a few points against the closed form.
	points := []float64{-3, -1, -0.2, 0, 0.5, 2, 4}
	counts := make([]int, len(points))
	for i := 0; i < sampleCount; i++ {
		x := Laplace(src, b)
		for j, p := range points {
			if x <= p {
				counts[j]++
			}
		}
	}
	for j, p := range points {
		got := float64(counts[j]) / sampleCount
		var want float64
		if p < 0 {
			want = 0.5 * math.Exp(p/b)
		} else {
			want = 1 - 0.5*math.Exp(-p/b)
		}
		if math.Abs(got-want) > 0.01 {
			t.Errorf("CDF(%v): got %v want %v", p, got, want)
		}
	}
}

func TestLaplaceSymmetry(t *testing.T) {
	src := NewSource(3)
	pos := 0
	for i := 0; i < sampleCount; i++ {
		if Laplace(src, 1) > 0 {
			pos++
		}
	}
	frac := float64(pos) / sampleCount
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("positive fraction %v, want ~0.5", frac)
	}
}

func TestLaplacePanicsOnBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for b<=0")
		}
	}()
	Laplace(NewSource(4), 0)
}

func TestGaussianMoments(t *testing.T) {
	src := NewSource(5)
	for _, sigma := range []float64{0.5, 2} {
		xs := make([]float64, sampleCount)
		for i := range xs {
			xs[i] = Gaussian(src, sigma)
		}
		mean, variance := moments(xs)
		if math.Abs(mean) > 0.02*sigma {
			t.Errorf("sigma=%v: mean %v too far from 0", sigma, mean)
		}
		want := sigma * sigma
		if math.Abs(variance-want)/want > 0.05 {
			t.Errorf("sigma=%v: variance %v, want ~%v", sigma, variance, want)
		}
	}
}

func TestTwoSidedGeometricPMF(t *testing.T) {
	src := NewSource(6)
	alpha := GeometricAlpha(1.0, 1.0) // eps=1, sensitivity 1
	counts := map[int64]int{}
	for i := 0; i < sampleCount; i++ {
		counts[TwoSidedGeometric(src, alpha)]++
	}
	norm := (1 - alpha) / (1 + alpha)
	for _, z := range []int64{-3, -2, -1, 0, 1, 2, 3} {
		got := float64(counts[z]) / sampleCount
		want := norm * math.Pow(alpha, math.Abs(float64(z)))
		if math.Abs(got-want) > 0.01 {
			t.Errorf("PMF(%d): got %v want %v", z, got, want)
		}
	}
}

func TestTwoSidedGeometricSymmetry(t *testing.T) {
	src := NewSource(7)
	var sum int64
	for i := 0; i < sampleCount; i++ {
		sum += TwoSidedGeometric(src, 0.5)
	}
	mean := float64(sum) / sampleCount
	if math.Abs(mean) > 0.05 {
		t.Errorf("mean %v, want ~0", mean)
	}
}

func TestTwoSidedGeometricPanics(t *testing.T) {
	for _, alpha := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for alpha=%v", alpha)
				}
			}()
			TwoSidedGeometric(NewSource(8), alpha)
		}()
	}
}

func TestGeometricDPRatio(t *testing.T) {
	// The geometric mechanism on neighboring values x and x+1 must satisfy
	// Pr[out=z | x] <= e^eps * Pr[out=z | x+1] pointwise. Verify empirically.
	eps := 0.8
	alpha := GeometricAlpha(eps, 1)
	src := NewSource(9)
	c0 := map[int64]int{}
	c1 := map[int64]int{}
	for i := 0; i < sampleCount; i++ {
		c0[0+TwoSidedGeometric(src, alpha)]++
		c1[1+TwoSidedGeometric(src, alpha)]++
	}
	for z := int64(-2); z <= 3; z++ {
		p0 := float64(c0[z]) / sampleCount
		p1 := float64(c1[z]) / sampleCount
		if p0 < 0.01 || p1 < 0.01 {
			continue // skip noisy low-probability bins
		}
		ratio := p0 / p1
		if ratio > math.Exp(eps)*1.1 || ratio < math.Exp(-eps)/1.1 {
			t.Errorf("z=%d: ratio %v outside [e^-eps, e^eps]", z, ratio)
		}
	}
}

func TestPhi(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.6448536269514722, 0.95},
		{-1.6448536269514722, 0.05},
		{2.5758293035489004, 0.995},
	}
	for _, c := range cases {
		if got := Phi(c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Phi(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestLaplaceTailMatchesQuantile(t *testing.T) {
	b := 2.0
	for _, p := range []float64{0.1, 0.01, 1e-6} {
		tq := LaplaceQuantile(b, p)
		// Pr[|X| >= tq] = 2 * upper tail = p.
		if got := 2 * LaplaceTail(b, tq); math.Abs(got-p)/p > 1e-9 {
			t.Errorf("p=%v: two-sided tail at quantile = %v", p, got)
		}
	}
}

func TestLaplaceTailNegative(t *testing.T) {
	if got := LaplaceTail(1, -1); math.Abs(got-(1-0.5*math.Exp(-1))) > 1e-12 {
		t.Errorf("LaplaceTail(1,-1) = %v", got)
	}
}

func TestThresholds(t *testing.T) {
	eps, delta := 1.0, 1e-6
	if got, want := PMGThreshold(eps, delta), 1+2*math.Log(3/delta); math.Abs(got-want) > 1e-12 {
		t.Errorf("PMGThreshold = %v want %v", got, want)
	}
	// The standard-MG threshold matches its formula and dominates the PMG
	// threshold once (k+1)/2 >= 3, i.e. k >= 5 (it must hide up to k
	// differing keys instead of at most 4).
	for _, k := range []int{1, 8, 1024} {
		want := 1 + 2*math.Log(float64(k+1)/(2*delta))/eps
		if got := StandardMGThreshold(eps, delta, k); math.Abs(got-want) > 1e-9 {
			t.Errorf("k=%d: StandardMGThreshold = %v want %v", k, got, want)
		}
	}
	if StandardMGThreshold(eps, delta, 5) < PMGThreshold(eps, delta)-1e-9 {
		t.Error("standard threshold should dominate PMG threshold for k>=5")
	}
	if StandardMGThreshold(eps, delta, 1024) <= StandardMGThreshold(eps, delta, 8) {
		t.Error("standard threshold must grow with k")
	}
	// Geometric threshold must be at least the continuous one minus the
	// ceiling slack, and integral-stepped.
	g := GeometricThreshold(eps, delta)
	if g < PMGThreshold(eps, delta)-2 {
		t.Errorf("geometric threshold %v too small vs %v", g, PMGThreshold(eps, delta))
	}
}

func TestThresholdMonotonicity(t *testing.T) {
	// Smaller delta must mean a larger threshold; larger eps a smaller one.
	if PMGThreshold(1, 1e-9) <= PMGThreshold(1, 1e-6) {
		t.Error("threshold not decreasing in delta")
	}
	if PMGThreshold(2, 1e-6) >= PMGThreshold(1, 1e-6) {
		t.Error("threshold not decreasing in eps")
	}
}

func TestNewSourceDeterminism(t *testing.T) {
	a, b := NewSource(42), NewSource(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	if NewSource(42).Uint64() == NewSource(43).Uint64() {
		t.Error("different seeds produced identical first values")
	}
}

// LaplaceVec fills out with independent Laplace(b) samples.
func LaplaceVec(src Source, b float64, out []float64) {
	for i := range out {
		out[i] = Laplace(src, b)
	}
}

// LaplaceTail returns Pr[Laplace(b) >= t] for t >= 0, i.e. the upper tail
// mass (1/2)·exp(-t/b). For t < 0 it returns the complementary value.
func LaplaceTail(b, t float64) float64 {
	if t >= 0 {
		return 0.5 * math.Exp(-t/b)
	}
	return 1 - 0.5*math.Exp(t/b)
}
