// Package audit estimates the empirical privacy loss of a release mechanism
// on a fixed pair of neighboring inputs. It runs the mechanism many times on
// both inputs, estimates the probability of a family of output events, and
// converts confidence bounds on those probabilities into a statistically
// sound lower bound on the privacy parameter eps the mechanism actually
// achieves at the given delta:
//
//	eps_true >= ln((Pr_A[E] - delta) / Pr_B[E])   for every event E.
//
// The experiments use this in two directions: to confirm that the paper's
// Algorithm 2 stays within its claimed eps on the Lemma 8 worst-case pairs
// (E9), and to demonstrate that the Böhler–Kerschbaum mechanism as published
// exceeds its claimed eps by a factor scaling with k, which is precisely the
// paper's critique.
package audit

import (
	"math"

	"dpmg/internal/hist"
	"dpmg/internal/noise"
	"dpmg/internal/stream"
)

// Mechanism produces one release from a fixed input using the given
// randomness. The audited input is captured in the closure.
type Mechanism func(src noise.Source) hist.Estimate

// Event is a measurable predicate on a release.
type Event struct {
	Name string
	Pred func(hist.Estimate) bool
}

// ValueAtLeast is the event "x is released with value >= t".
func ValueAtLeast(x stream.Item, t float64) Event {
	return Event{
		Name: "value",
		Pred: func(e hist.Estimate) bool {
			v, ok := e[x]
			return ok && v >= t
		},
	}
}

// AllAtLeast is the joint event "every item in xs is released with value
// >= t". Joint events are what expose privacy violations whose per-counter
// loss composes across k counters (the Böhler failure mode).
func AllAtLeast(xs []stream.Item, t float64) Event {
	return Event{
		Name: "all-values",
		Pred: func(e hist.Estimate) bool {
			for _, x := range xs {
				v, ok := e[x]
				if !ok || v < t {
					return false
				}
			}
			return true
		},
	}
}

// Result is the outcome of an audit.
type Result struct {
	// EpsLower is a high-confidence lower bound on the privacy loss the
	// mechanism exhibits at the audited delta: the max over all events and
	// both directions. A sound (eps, delta)-DP mechanism satisfies
	// EpsLower <= eps (up to the confidence level).
	EpsLower float64
	// BestEvent is the name of the event attaining EpsLower.
	BestEvent string
	// Trials is the per-input number of mechanism executions.
	Trials int
}

// Options configure an audit.
type Options struct {
	Trials float64 // number of runs per input (default 2e5)
	Delta  float64 // the delta at which to audit
	Alpha  float64 // per-event confidence level (default 1e-3)
	Seed   uint64  // base seed; input A uses Seed..,B uses Seed+Trials..
}

// Run audits mechanisms mA and mB (the same mechanism on two neighboring
// inputs) against the event family.
func Run(mA, mB Mechanism, events []Event, opt Options) Result {
	trials := int(opt.Trials)
	if trials <= 0 {
		trials = 200000
	}
	alpha := opt.Alpha
	if alpha <= 0 {
		alpha = 1e-3
	}
	hitsA := make([]int, len(events))
	hitsB := make([]int, len(events))
	for i := 0; i < trials; i++ {
		relA := mA(noise.NewSource(opt.Seed + uint64(i)))
		relB := mB(noise.NewSource(opt.Seed + uint64(trials+i)))
		for j, ev := range events {
			if ev.Pred(relA) {
				hitsA[j]++
			}
			if ev.Pred(relB) {
				hitsB[j]++
			}
		}
	}
	res := Result{EpsLower: 0, BestEvent: "", Trials: trials}
	for j, ev := range events {
		for _, dir := range [2][2]int{{hitsA[j], hitsB[j]}, {hitsB[j], hitsA[j]}} {
			pLo := binomLower(dir[0], trials, alpha)
			pHi := binomUpper(dir[1], trials, alpha)
			num := pLo - opt.Delta
			if num <= 0 || pHi <= 0 {
				continue
			}
			if eps := math.Log(num / pHi); eps > res.EpsLower {
				res.EpsLower = eps
				res.BestEvent = ev.Name
			}
		}
	}
	return res
}

// binomLower returns a conservative lower confidence bound on a binomial
// proportion with x successes out of n, using an empirical-Bernstein style
// correction.
func binomLower(x, n int, alpha float64) float64 {
	p := float64(x) / float64(n)
	l := math.Log(2 / alpha)
	lo := p - math.Sqrt(3*p*l/float64(n)) - 3*l/float64(n)
	if lo < 0 {
		return 0
	}
	return lo
}

// binomUpper returns a conservative upper confidence bound, which stays
// strictly positive even at x = 0 (rule-of-three style) so the log ratio is
// always defined.
func binomUpper(x, n int, alpha float64) float64 {
	p := float64(x) / float64(n)
	l := math.Log(2 / alpha)
	hi := p + math.Sqrt(3*p*l/float64(n)) + 3*l/float64(n)
	if hi > 1 {
		return 1
	}
	return hi
}

// ThresholdGrid returns evenly spaced event thresholds spanning
// [center-span, center+span], a convenient grid for ValueAtLeast events.
func ThresholdGrid(center, span float64, steps int) []float64 {
	if steps < 2 {
		return []float64{center}
	}
	out := make([]float64, steps)
	for i := range out {
		out[i] = center - span + 2*span*float64(i)/float64(steps-1)
	}
	return out
}
