package dpmg

import (
	"fmt"

	"dpmg/internal/accountant"
	"dpmg/internal/hist"
	"dpmg/internal/noise"
)

// ErrBudgetExhausted is wrapped by release errors that were refused because
// the Accountant's remaining budget cannot cover them; test with errors.Is.
// Calibration and input errors never wrap it — and never spend budget.
var ErrBudgetExhausted = accountant.ErrExhausted

// ReleaseOption configures one Release call.
type ReleaseOption func(*releaseConfig)

type releaseConfig struct {
	mechanism string
	seed      uint64
	seeded    bool
	acct      *Accountant
	topK      int
	topKSet   bool
}

// WithMechanism selects the release mechanism by registry name ("laplace",
// "geometric", "pure", "gaussian", or anything added with
// RegisterMechanism). Without it, Release uses DefaultMechanism for the
// sketch's sensitivity class.
func WithMechanism(name string) ReleaseOption {
	return func(c *releaseConfig) { c.mechanism = name }
}

// WithSeed fixes the noise seed, making the release deterministic: the same
// sketch state, parameters, and seed always produce the same histogram.
// Without it, Release draws an unpredictable seed from the operating
// system's CSPRNG — the right default for anything leaving the trust
// boundary, since an adversary who can guess the seed can subtract the
// noise. Never release the same data twice under different seeds unless an
// Accountant (or your own composition argument) covers both.
func WithSeed(seed uint64) ReleaseOption {
	return func(c *releaseConfig) { c.seed, c.seeded = seed, true }
}

// WithAccountant meters the release against a's budget: (p.Eps, p.Delta) is
// charged atomically after calibration succeeds and before any noise is
// drawn, so calibration errors never burn budget and over-budget requests
// release nothing.
func WithAccountant(a *Accountant) ReleaseOption {
	return func(c *releaseConfig) { c.acct = a }
}

// WithTopK post-processes the release down to the k items with the largest
// estimates (ties broken by smaller item); k = 0 releases nothing.
// Post-processing is free under differential privacy, so the cut costs no
// extra budget.
func WithTopK(k int) ReleaseOption {
	return func(c *releaseConfig) { c.topK, c.topKSet = k, true }
}

// ReleaseResult is the outcome of one unified release: the histogram plus
// the mechanism name and calibration metadata (noise scales, thresholds)
// an application can publish alongside it — metadata depends only on
// parameters, never on the data, so exposing it is safe.
type ReleaseResult struct {
	Histogram Histogram
	Mechanism string
	Meta      map[string]float64
}

// Release privatizes any sketch front-end through the mechanism registry:
//
//	h, err := dpmg.Release(sk, dpmg.Params{Eps: 1, Delta: 1e-6},
//		dpmg.WithMechanism("geometric"), dpmg.WithSeed(seed))
//
// The pipeline is: snapshot the sketch's ReleaseView and validate its
// layout (parallel columns, strictly ascending keys), calibrate the chosen
// mechanism for the sketch's sensitivity class (every failure mode
// surfaces by here), charge the Accountant if one was attached, then draw
// noise and release. The ordering is load-bearing: a refused view or a
// calibration error can never spend budget, and a spent budget always
// yields a histogram.
func Release(sk Releasable, p Params, opts ...ReleaseOption) (Histogram, error) {
	res, err := ReleaseDetailed(sk, p, opts...)
	if err != nil {
		return nil, err
	}
	return res.Histogram, nil
}

// ReleaseDetailed is Release returning the mechanism name and calibration
// metadata alongside the histogram (the dpmg-server surfaces them in its
// JSON response).
func ReleaseDetailed(sk Releasable, p Params, opts ...ReleaseOption) (*ReleaseResult, error) {
	var cfg releaseConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.topK < 0 {
		return nil, fmt.Errorf("dpmg: WithTopK(%d): k must be non-negative", cfg.topK)
	}
	view, err := sk.ReleaseView()
	if err != nil {
		return nil, err
	}
	if err := view.validate(); err != nil {
		return nil, err
	}
	name := cfg.mechanism
	if name == "" {
		name = DefaultMechanism(view.Sens)
	}
	mech, ok := MechanismByName(name)
	if !ok {
		return nil, fmt.Errorf("dpmg: unknown mechanism %q (registered: %v)", name, Mechanisms())
	}
	cal, err := mech.Calibrate(p, view.Sens)
	if err != nil {
		return nil, err
	}
	if cfg.acct != nil {
		if err := cfg.acct.inner.Spend(p.Eps, p.Delta); err != nil {
			return nil, err
		}
	}
	seed := cfg.seed
	if !cfg.seeded {
		seed = noise.CryptoSeed()
	}
	h := mech.Release(view, cal, seed)
	if cfg.topKSet {
		h = h.cutTopK(cfg.topK)
	}
	return &ReleaseResult{Histogram: h, Mechanism: name, Meta: cal.Meta()}, nil
}

// cutTopK restricts the histogram to the k largest estimates.
func (h Histogram) cutTopK(k int) Histogram {
	if len(h) <= k {
		return h
	}
	out := make(Histogram, k)
	for _, x := range hist.TopKEstimate(hist.Estimate(h), k) {
		out[x] = h[x]
	}
	return out
}
