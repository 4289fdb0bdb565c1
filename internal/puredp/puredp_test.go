package puredp

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"dpmg/internal/hist"
	"dpmg/internal/mg"
	"dpmg/internal/noise"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

func sketchOf(k int, d uint64, str stream.Stream) *mg.Sketch {
	sk := mg.New(k, d)
	sk.Process(str)
	return sk
}

func TestLemma15ErrorBound(t *testing.T) {
	// Reduced estimates stay within [f(x) - n/(k+1), f(x)].
	cases := []struct {
		k   int
		d   uint64
		str stream.Stream
	}{
		{16, 1000, workload.Zipf(20000, 1000, 1.1, 1)},
		{4, 10, workload.Adversarial(1000, 4)},
		{8, 50, workload.Uniform(5000, 50, 2)},
	}
	for _, c := range cases {
		r := Reduce(sketchOf(c.k, c.d, c.str))
		f := hist.Exact(c.str)
		slack := float64(len(c.str)) / float64(c.k+1)
		for x := stream.Item(1); uint64(x) <= c.d; x++ {
			est := r.Estimate(x)
			if est > float64(f[x])+1e-9 {
				t.Fatalf("item %d: reduced estimate %v > true %d", x, est, f[x])
			}
			if est < float64(f[x])-slack-1e-9 {
				t.Fatalf("item %d: reduced estimate %v < %d - %v", x, est, f[x], slack)
			}
		}
	}
}

func TestGammaFormula(t *testing.T) {
	// Lemma 15's proof: gamma = n/(k+1) - alpha where alpha is the number of
	// decrement steps.
	k := 8
	str := workload.Zipf(5000, 100, 1.0, 3)
	sk := sketchOf(k, 100, str)
	r := Reduce(sk)
	want := float64(len(str))/float64(k+1) - float64(sk.Decrements())
	if math.Abs(r.Gamma-want) > 1e-9 {
		t.Errorf("gamma = %v want %v", r.Gamma, want)
	}
}

func TestReducePositiveCountsOnly(t *testing.T) {
	r := Reduce(sketchOf(8, 100, workload.Uniform(500, 100, 4)))
	for x, v := range r.Counts {
		if v <= 0 {
			t.Fatalf("item %d: non-positive reduced count %v", x, v)
		}
		if uint64(x) > 100 {
			t.Fatalf("dummy key %d survived reduction", x)
		}
	}
}

func TestLemma16SensitivityBelowTwo(t *testing.T) {
	// The headline claim of Section 6: ||ĉ - ĉ'||_1 < 2 for neighbors.
	rng := rand.New(rand.NewPCG(11, 12))
	trials := 2000
	if testing.Short() {
		trials = 200
	}
	worst := 0.0
	for trial := 0; trial < trials; trial++ {
		k := 1 + rng.IntN(6)
		d := uint64(2 + rng.IntN(8))
		n := 1 + rng.IntN(80)
		str := make(stream.Stream, n)
		for i := range str {
			str[i] = stream.Item(rng.IntN(int(d)) + 1)
		}
		a := Reduce(sketchOf(k, d, str))
		b := Reduce(sketchOf(k, d, str.RemoveAt(rng.IntN(n))))
		l1 := L1Sensitivity(a, b)
		if l1 >= 2 {
			t.Fatalf("trial %d: reduced l1 sensitivity %v >= 2 (k=%d)\nstream=%v", trial, l1, k, str)
		}
		if l1 > worst {
			worst = l1
		}
	}
	if worst == 0 {
		t.Error("sensitivity never exercised")
	}
	t.Logf("worst observed reduced sensitivity: %v", worst)
}

func TestReleasePureTopK(t *testing.T) {
	k := 8
	d := uint64(200)
	str := workload.HeavyTail(50000, int(d), 4, 0.8, 5)
	r := Reduce(sketchOf(k, d, str))
	rel, err := ReleasePure(r, 1.0, d, noise.NewSource(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) != k {
		t.Fatalf("released %d items, want k=%d", len(rel), k)
	}
	// The four designated heavy items must be recovered (their counts are
	// ~10000 vs noise scale 2).
	f := hist.Exact(str)
	for _, x := range hist.TopK(f, 4) {
		if _, ok := rel[x]; !ok {
			t.Errorf("heavy item %d missed by pure-DP release", x)
		}
	}
}

func TestReleasePureErrorBound(t *testing.T) {
	// Total error should be within n/(k+1) + c·log(d)/eps for a modest c,
	// with high probability. Use c = 6 (2/eps scale, log d quantile, both
	// tails, slack).
	k := 32
	d := uint64(2000)
	n := 100000
	str := workload.Zipf(n, int(d), 1.2, 6)
	r := Reduce(sketchOf(k, d, str))
	f := hist.Exact(str)
	eps := 1.0
	bound := float64(n)/float64(k+1) + 6*math.Log(float64(d))/eps
	fails := 0
	for seed := uint64(0); seed < 50; seed++ {
		rel, err := ReleasePure(r, eps, d, noise.NewSource(seed))
		if err != nil {
			t.Fatal(err)
		}
		if hist.MaxError(rel, f) > bound {
			fails++
		}
	}
	if fails > 5 {
		t.Errorf("pure-DP error bound violated in %d/50 runs (bound %v)", fails, bound)
	}
}

func TestReleasePureValidation(t *testing.T) {
	r := Reduce(sketchOf(2, 10, stream.Stream{1, 2}))
	if _, err := ReleasePure(r, 0, 10, noise.NewSource(1)); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := ReleasePure(r, 1, 0, noise.NewSource(1)); err == nil {
		t.Error("d=0 accepted")
	}
}

func TestReleaseApprox(t *testing.T) {
	k := 16
	d := uint64(500)
	str := workload.HeavyTail(50000, int(d), 3, 0.8, 7)
	r := Reduce(sketchOf(k, d, str))
	eps, delta := 1.0, 1e-6
	rel, err := ReleaseApprox(r, eps, delta, noise.NewSource(2))
	if err != nil {
		t.Fatal(err)
	}
	thresh := ApproxThreshold(eps, delta)
	for x, v := range rel {
		if v < thresh {
			t.Fatalf("item %d below threshold: %v < %v", x, v, thresh)
		}
		if _, ok := r.Counts[x]; !ok {
			t.Fatalf("item %d not in reduced support", x)
		}
	}
	f := hist.Exact(str)
	for _, x := range hist.TopK(f, 3) {
		if _, ok := rel[x]; !ok {
			t.Errorf("heavy item %d missed", x)
		}
	}
}

func TestReleaseApproxSmallCountsRounding(t *testing.T) {
	// A reduced counter v < 2 must survive with probability about
	// v/2 * Pr[2 + Lap >= thresh], in particular sometimes 0 and never with
	// released value drawn from the unrounded v.
	r := &Reduced{K: 4, Counts: map[stream.Item]float64{1: 0.5}}
	eps, delta := 2.0, 0.2 // low threshold so survivors are observable
	kept := 0
	for seed := uint64(0); seed < 4000; seed++ {
		rel, err := ReleaseApprox(r, eps, delta, noise.NewSource(seed))
		if err != nil {
			t.Fatal(err)
		}
		if len(rel) > 0 {
			kept++
		}
	}
	// Survival prob = 0.25 * Pr[2+Lap(1) >= 4+ln(5)] ≈ 0.25 * small.
	frac := float64(kept) / 4000
	if frac > 0.25 {
		t.Errorf("small count survived too often: %v", frac)
	}
}

func TestReleaseApproxValidation(t *testing.T) {
	r := &Reduced{K: 2, Counts: map[stream.Item]float64{}}
	if _, err := ReleaseApprox(r, 0, 0.1, noise.NewSource(1)); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := ReleaseApprox(r, 1, 0, noise.NewSource(1)); err == nil {
		t.Error("delta=0 accepted")
	}
	if _, err := ReleaseApprox(r, 1, 1, noise.NewSource(1)); err == nil {
		t.Error("delta=1 accepted")
	}
}

func TestToEstimate(t *testing.T) {
	r := &Reduced{K: 2, Counts: map[stream.Item]float64{3: 1.5}}
	e := r.ToEstimate()
	if e[3] != 1.5 || len(e) != 1 {
		t.Fatalf("ToEstimate = %v", e)
	}
}

// reduceMapRef is the map-fed Algorithm 3 loop ReduceColumns replaced, kept
// as the test reference.
func reduceMapRef(counts map[stream.Item]int64, k int) *Reduced {
	var sum int64
	for _, c := range counts {
		sum += c
	}
	gamma := float64(sum) / float64(k+1)
	out := make(map[stream.Item]float64)
	for x, c := range counts {
		if v := float64(c) - gamma; v > 0 {
			out[x] = v
		}
	}
	return &Reduced{K: k, Gamma: gamma, Counts: out}
}

func TestReduceColumnsMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		sk := sketchOf(16, 400, workload.Zipf(20000, 400, 1.1, seed))
		keys, vals := sk.AppendAll(nil, nil)
		if got, want := ReduceColumns(keys, vals, sk.K()), reduceMapRef(sk.Counters(), sk.K()); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: column reduction %+v, map reduction %+v", seed, got, want)
		}
	}
}

// ReleaseApprox releases the reduced sketch under (eps, delta)-DP without
// touching the whole universe, using the technique of [3, Algorithm 9] the
// paper cites: counters smaller than the l1-sensitivity (2) are
// probabilistically rounded — value v < 2 becomes 2 with probability v/2 and
// 0 otherwise — then Laplace(2/eps) noise is added to each surviving counter
// and noisy counts below 4 + 2·ln(1/δ)/ε are removed. Compared to Algorithm
// 2 this costs an extra n/(k+1) error (the reduction's offset), which is why
// the paper prefers Algorithm 2 under approximate DP.
func ReleaseApprox(r *Reduced, eps, delta float64, src noise.Source) (hist.Estimate, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("puredp: eps must be positive, got %v", eps)
	}
	if delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("puredp: delta must be in (0,1), got %v", delta)
	}
	thresh := ApproxThreshold(eps, delta)
	scale := 2 / eps
	out := make(hist.Estimate)
	keys := make([]stream.Item, 0, len(r.Counts))
	for x := range r.Counts {
		keys = append(keys, x)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, x := range keys {
		v := r.Counts[x]
		if v < 2 {
			if src.Float64() < v/2 {
				v = 2
			} else {
				continue
			}
		}
		if noisy := v + noise.Laplace(src, scale); noisy >= thresh {
			out[x] = noisy
		}
	}
	return out, nil
}

// ApproxThreshold is the Section 6 threshold 4 + 2·ln(1/δ)/ε used by
// ReleaseApprox.
func ApproxThreshold(eps, delta float64) float64 {
	return 4 + 2*noise.LaplaceQuantile(1/eps, delta)
}
