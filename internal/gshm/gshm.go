// Package gshm implements the Gaussian Sparse Histogram Mechanism of
// Wilkins, Kifer, Zhang and Karrer as restated in Theorem 23 of the paper:
// Gaussian noise N(0, sigma^2) is added to every non-zero counter and noisy
// counts below 1 + tau are removed. It applies to counter tables where
// neighboring inputs differ by exactly +1 (or exactly -1) on at most l
// counts — the structure Lemma 27 and Corollary 28 prove for the PAMG
// sketch and for merged Misra-Gries summaries.
//
// The package provides both the loose closed-form parameters of Lemma 24
// and a calibrator that numerically minimizes the threshold subject to the
// exact (eps, delta) condition of Theorem 23, which is what any deployment
// should use (the paper: "any deployment of the GSHM should preferably set
// parameters using the exact analysis").
package gshm

import (
	"fmt"
	"math"
	"sync"

	"dpmg/internal/accountant"
	"dpmg/internal/hist"
	"dpmg/internal/noise"
	"dpmg/internal/stream"
)

// Config holds the mechanism parameters: per-counter noise sigma, removal
// threshold offset tau (counts below 1+tau are dropped), and the sensitivity
// bound l (the maximum number of counters that can differ between
// neighboring inputs).
type Config struct {
	Sigma float64
	Tau   float64
	L     int
}

// DeltaFor evaluates the exact Theorem 23 expression: the smallest delta for
// which GSHM with these parameters satisfies (eps, delta)-DP.
func DeltaFor(eps float64, c Config) float64 {
	phiT := noise.Phi(c.Tau / c.Sigma)
	l := c.L
	// Branch 1: all l differing counters must stay hidden below threshold.
	worst := 1 - math.Pow(phiT, float64(l))
	// Branches 2 and 3: for each number j of counters that exceed the
	// threshold, a Gaussian-mechanism term with the privacy budget shifted
	// by gamma = (l-j)·log Phi(tau/sigma).
	for j := 1; j <= l; j++ {
		gamma := float64(l-j) * math.Log(phiT)
		pj := math.Pow(phiT, float64(l-j))
		b2 := (1 - pj) + pj*gaussTerm(c.Sigma, float64(j), eps-gamma)
		if b2 > worst {
			worst = b2
		}
		if b3 := gaussTerm(c.Sigma, float64(j), eps+gamma); b3 > worst {
			worst = b3
		}
	}
	return worst
}

// gaussTerm is the analytic Gaussian mechanism delta for l2 shift sqrt(j)
// and budget epsHat: Phi(sqrt(j)/(2σ) - epsHat·σ/sqrt(j)) -
// e^epsHat · Phi(-sqrt(j)/(2σ) - epsHat·σ/sqrt(j)).
func gaussTerm(sigma, j, epsHat float64) float64 {
	s := math.Sqrt(j)
	a := s/(2*sigma) - epsHat*sigma/s
	b := -s/(2*sigma) - epsHat*sigma/s
	return noise.Phi(a) - math.Exp(epsHat)*noise.Phi(b)
}

// SimpleParams returns the loose closed-form parameters of Lemma 24 for
// eps < 1: sigma = sqrt(l·2·ln(2.5/delta))/eps, tau = sqrt(2·ln(2l/delta))·sigma.
func SimpleParams(eps, delta float64, l int) Config {
	sigma := math.Sqrt(float64(l)*2*math.Log(2.5/delta)) / eps
	tau := math.Sqrt(2*math.Log(2*float64(l)/delta)) * sigma
	return Config{Sigma: sigma, Tau: tau, L: l}
}

// calibKey identifies one calibration problem; the search result is a pure
// function of it.
type calibKey struct {
	eps, delta float64
	l          int
}

// calibCache memoizes Calibrate results. The grid-plus-bisection search
// costs tens of milliseconds (hundreds of thousands of Phi evaluations for
// l in the hundreds), and a deployment releases under a handful of
// (eps, delta, l) triples over and over — so steady-state releases must
// pay the search once, not per release. Bounded so a caller sweeping
// adversarial parameter grids cannot grow it without limit.
var calibCache struct {
	sync.RWMutex
	m map[calibKey]Config
}

// maxCalibCache bounds the memo; far above any real deployment's distinct
// release-parameter count. On overflow the memo resets (correctness is
// unaffected — entries are pure recomputable functions).
const maxCalibCache = 4096

// Calibrate returns parameters satisfying the exact Theorem 23 condition
// while (approximately) minimizing the error proxy tau + 2·sigma, starting
// from the Lemma 24 parameters and shrinking. It errors on invalid inputs
// or if no feasible configuration is found (which cannot happen for the
// searched range since the Lemma 24 point is feasible).
//
// The search result is memoized per (eps, delta, l): the first release
// under a parameter triple pays the numeric search, repeat releases get
// the cached parameters back in nanoseconds.
func Calibrate(eps, delta float64, l int) (Config, error) {
	key := calibKey{eps: eps, delta: delta, l: l}
	calibCache.RLock()
	cfg, ok := calibCache.m[key]
	calibCache.RUnlock()
	if ok {
		return cfg, nil
	}
	cfg, err := calibrate(eps, delta, l)
	if err != nil {
		return Config{}, err
	}
	calibCache.Lock()
	if calibCache.m == nil || len(calibCache.m) >= maxCalibCache {
		calibCache.m = make(map[calibKey]Config)
	}
	calibCache.m[key] = cfg
	calibCache.Unlock()
	return cfg, nil
}

// calibrate runs the actual search (see Calibrate).
func calibrate(eps, delta float64, l int) (Config, error) {
	if !accountant.ValidEps(eps) {
		return Config{}, fmt.Errorf("gshm: eps must be finite and positive, got %v", eps)
	}
	if !accountant.ValidDelta(delta, false) {
		return Config{}, fmt.Errorf("gshm: delta must be in (0,1), got %v", delta)
	}
	if l <= 0 {
		return Config{}, fmt.Errorf("gshm: l must be positive, got %d", l)
	}
	start := SimpleParams(math.Min(eps, 0.999), delta, l) // Lemma 24 needs eps<1
	best := Config{}
	found := false
	// Grid over sigma below the loose value; for each sigma the minimal
	// feasible tau is found by bisection (DeltaFor is decreasing in tau).
	for i := 0; i <= 60; i++ {
		sigma := start.Sigma * math.Pow(0.94, float64(i))
		tau, ok := minFeasibleTau(eps, delta, sigma, l, start.Tau*2)
		if !ok {
			continue
		}
		cand := Config{Sigma: sigma, Tau: tau, L: l}
		if !found || cand.Tau+2*cand.Sigma < best.Tau+2*best.Sigma {
			best, found = cand, true
		}
	}
	if !found {
		return Config{}, fmt.Errorf("gshm: no feasible parameters for eps=%v delta=%v l=%d", eps, delta, l)
	}
	return best, nil
}

// minFeasibleTau bisects for the smallest tau in [0, hi] with
// DeltaFor <= delta, reporting ok=false when even hi is infeasible.
func minFeasibleTau(eps, delta, sigma float64, l int, hi float64) (float64, bool) {
	if DeltaFor(eps, Config{Sigma: sigma, Tau: hi, L: l}) > delta {
		return 0, false
	}
	lo := 0.0
	for iter := 0; iter < 80; iter++ {
		mid := (lo + hi) / 2
		if DeltaFor(eps, Config{Sigma: sigma, Tau: mid, L: l}) <= delta {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// ReleaseFlat applies the mechanism to flat parallel counter columns:
// N(0, sigma^2) noise on every strictly positive counter, noisy values below
// 1 + tau dropped. keys must be ascending — the input-independent order
// Section 5.2 requires — and one Gaussian sample is drawn per strictly
// positive counter in that order.
func ReleaseFlat(keys []stream.Item, counts []int64, c Config, src noise.Source) hist.Estimate {
	out := make(hist.Estimate)
	for i, x := range keys {
		v := counts[i]
		if v <= 0 {
			continue
		}
		if noisy := float64(v) + noise.Gaussian(src, c.Sigma); noisy >= 1+c.Tau {
			out[x] = noisy
		}
	}
	return out
}

// ErrorBound returns the Theorem 30 style error decomposition: with
// probability at least 1-2·delta all noise samples have magnitude at most
// tau, and thresholding adds at most 1 + tau, so released estimates are
// within [-(2·tau+1), +tau] of the input counters.
func ErrorBound(c Config) (down, up float64) {
	return 2*c.Tau + 1, c.Tau
}
