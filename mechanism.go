package dpmg

import (
	"fmt"
	"sort"
	"sync"

	"dpmg/internal/accountant"
	"dpmg/internal/core"
	"dpmg/internal/gshm"
	"dpmg/internal/hist"
	"dpmg/internal/merge"
	"dpmg/internal/noise"
	"dpmg/internal/puredp"
)

// SensitivityClass identifies which of the paper's sensitivity analyses
// applies to a sketch, and therefore which mechanisms may release it and
// how they must be calibrated.
type SensitivityClass int

const (
	// SensitivitySingleStream is a paper-variant Algorithm 1 sketch fed a
	// single element stream: neighboring sketches obey the Lemma 8
	// structure, so the two-layer O(1/eps) releases apply.
	SensitivitySingleStream SensitivityClass = iota
	// SensitivityMerged is a (possibly) merged Misra-Gries summary: up to k
	// counters can differ between neighbors, each by one (Corollary 18), so
	// releases pay k-scaled (Laplace) or sqrt(k)-scaled (Gaussian) noise.
	SensitivityMerged
	// SensitivityUserLevel is a Privacy-Aware Misra-Gries counter table
	// under user-level neighbors (Theorem 30): per-counter difference at
	// most one on up to k counters, released with the Gaussian Sparse
	// Histogram Mechanism.
	SensitivityUserLevel
)

// String names the class after the paper result that defines it.
func (c SensitivityClass) String() string {
	switch c {
	case SensitivitySingleStream:
		return "single-stream (Lemma 8)"
	case SensitivityMerged:
		return "merged (Corollary 18)"
	case SensitivityUserLevel:
		return "user-level (Theorem 30)"
	}
	return fmt.Sprintf("SensitivityClass(%d)", int(c))
}

// Sensitivity describes the sketch a mechanism is asked to calibrate for:
// the class plus the structural parameters calibration needs. Calibration
// uses only this — never the counters — so a calibration failure cannot
// depend on (or leak) the data, and happens before any budget is spent.
type Sensitivity struct {
	Class    SensitivityClass
	K        int    // sketch size parameter
	Universe uint64 // d; 0 when the sketch has no universe bound
	// Standard marks a textbook Misra-Gries sketch (zero counters removed
	// immediately). Only meaningful for SensitivitySingleStream: the
	// Laplace release must use the raised Section 5.1 threshold.
	Standard bool
}

// ReleaseView is the snapshot of sketch state that a Mechanism privatizes.
// It has one layout: Keys strictly ascending — the sorted, input-independent
// order Section 5.2 requires noise to be drawn in — with the counters in
// Vals, parallel to Keys. Every front-end in this package builds it by a
// sorted flat extraction, and there is no associative form: nothing between
// Release and a noise draw holds a map. Mechanisms treat it as read-only.
//
// What the columns hold depends on Sens.Class. A single-stream view carries
// the sketch's whole counter table: for the paper variant all k counters,
// zero-count and dummy keys included (every key draws noise, Lemma 8), with
// the dummy keys being exactly those above Sens.Universe, which no mechanism
// ever releases; for a Standard sketch the stored positive counters. Merged
// and user-level views carry the positive counters only.
type ReleaseView struct {
	Keys []Item  // strictly ascending; the Section 5.2 release order
	Vals []int64 // parallel to Keys
	Sens Sensitivity
}

// validate checks what every mechanism's loop relies on. ReleaseDetailed
// calls it on the view a Releasable returned before calibrating and before
// charging the accountant, so a half-populated or mis-ordered view — from a
// front-end here or a third-party Releasable — costs no budget and reaches
// no noise draw.
func (v *ReleaseView) validate() error {
	if v == nil {
		return fmt.Errorf("dpmg: release view is nil")
	}
	if len(v.Vals) != len(v.Keys) {
		return fmt.Errorf("dpmg: release view has %d keys but %d counters", len(v.Keys), len(v.Vals))
	}
	for i := 1; i < len(v.Keys); i++ {
		if v.Keys[i-1] >= v.Keys[i] {
			return fmt.Errorf("dpmg: release view keys are not strictly ascending at index %d (%d then %d)",
				i, v.Keys[i-1], v.Keys[i])
		}
	}
	if v.Sens.Class == SensitivitySingleStream && !v.Sens.Standard && v.Sens.Universe == 0 {
		return fmt.Errorf("dpmg: a paper-variant single-stream view needs a universe bound (its dummy keys are the keys above it)")
	}
	return nil
}

// Releasable is implemented by every sketch front-end in this package:
// anything that can expose its counters and sensitivity class can be
// released through Release and metered by an Accountant. A third-party
// implementation must return a view in the layout ReleaseView documents —
// parallel columns, keys strictly ascending, Sens describing the sketch the
// counters came from; Release refuses any other view with an error.
type Releasable interface {
	// ReleaseView snapshots the sketch state for one private release.
	ReleaseView() (*ReleaseView, error)
}

// Calibration is the output of Mechanism.Calibrate: everything a release
// needs, computed and validated up front. The split exists so that every
// failure mode (bad parameters, unsupported sensitivity class, infeasible
// noise search) surfaces before any privacy budget is spent.
type Calibration struct {
	meta map[string]float64
	impl any
}

// NewCalibration builds a Calibration from mechanism-specific metadata
// (noise scales, thresholds — surfaced verbatim in ReleaseResult.Meta and
// the dpmg-server JSON response) and an opaque implementation payload the
// mechanism's Release retrieves with Impl.
func NewCalibration(meta map[string]float64, impl any) *Calibration {
	return &Calibration{meta: meta, impl: impl}
}

// Meta returns a copy of the calibration metadata.
func (c *Calibration) Meta() map[string]float64 {
	out := make(map[string]float64, len(c.meta))
	for k, v := range c.meta {
		out[k] = v
	}
	return out
}

// Impl returns the mechanism-private calibrated state.
func (c *Calibration) Impl() any { return c.impl }

// Mechanism is one private release algorithm, calibrated in two phases:
// Calibrate turns (Params, Sensitivity) into a Calibration — or an error,
// before any budget is spent — and Release applies the calibrated mechanism
// to a counter view with noise seeded by seed. Release must not fail; all
// failure modes belong in Calibrate. The view a mechanism receives from
// Release has already been validated (parallel columns, strictly ascending
// keys): a release is one loop over (Keys[i], Vals[i]) in index order,
// drawing noise in that order.
type Mechanism interface {
	// Name is the registry key ("laplace", "geometric", "pure", "gaussian").
	Name() string
	// Calibrate validates p against the sensitivity class and precomputes
	// the mechanism parameters.
	Calibrate(p Params, s Sensitivity) (*Calibration, error)
	// Release privatizes the view under the calibration. The same seed
	// yields the same release.
	Release(view *ReleaseView, cal *Calibration, seed uint64) Histogram
}

// The mechanism registry. Adding a Mechanism here makes it reachable from
// every sketch front-end via WithMechanism and from the dpmg-server's
// /v1/streams/{s}/release mech= parameter — no per-type Release method needed.
var (
	registryMu   sync.RWMutex
	mechRegistry = make(map[string]Mechanism)
)

// RegisterMechanism adds m under its name. It errors on an empty name or a
// duplicate registration.
func RegisterMechanism(m Mechanism) error {
	name := m.Name()
	if name == "" {
		return fmt.Errorf("dpmg: mechanism has empty name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := mechRegistry[name]; dup {
		return fmt.Errorf("dpmg: mechanism %q already registered", name)
	}
	mechRegistry[name] = m
	return nil
}

// MechanismByName looks a mechanism up in the registry.
func MechanismByName(name string) (Mechanism, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	m, ok := mechRegistry[name]
	return m, ok
}

// Mechanisms returns the registered mechanism names in sorted order.
func Mechanisms() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(mechRegistry))
	for name := range mechRegistry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DefaultMechanism returns the mechanism name Release uses when
// WithMechanism is not given: the paper's recommendation for the class —
// the O(1/eps) two-layer Laplace release for single-stream sketches, the
// sqrt(k)-noise Gaussian Sparse Histogram Mechanism for merged and
// user-level ones.
func DefaultMechanism(s Sensitivity) string {
	if s.Class == SensitivitySingleStream {
		return MechanismLaplace
	}
	return MechanismGaussian
}

// Registry names of the built-in mechanisms.
const (
	MechanismLaplace   = "laplace"
	MechanismGeometric = "geometric"
	MechanismPure      = "pure"
	MechanismGaussian  = "gaussian"
)

func init() {
	for _, m := range []Mechanism{
		laplaceMechanism{}, geometricMechanism{}, pureMechanism{}, gaussianMechanism{},
	} {
		if err := RegisterMechanism(m); err != nil {
			panic(err)
		}
	}
}

// mustEstimate converts an (Estimate, error) pair from a pre-validated
// internal release into a Histogram. The calibrate/release split guarantees
// the error is impossible; seeing one means a mechanism validated something
// in Release it should have validated in Calibrate.
func mustEstimate(rel hist.Estimate, err error) Histogram {
	if err != nil {
		panic("dpmg: internal: calibrated release failed: " + err.Error())
	}
	return Histogram(rel)
}

// laplaceMechanism is the paper's primary release. Single-stream: the
// Algorithm 2 two-layer Laplace(1/eps) mechanism (raised Section 5.1
// threshold for standard sketches). Merged: the Corollary 18 release with
// Laplace(k/eps) per counter and a k-scaled threshold.
type laplaceMechanism struct{}

func (laplaceMechanism) Name() string { return MechanismLaplace }

func (laplaceMechanism) Calibrate(p Params, s Sensitivity) (*Calibration, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	switch s.Class {
	case SensitivitySingleStream:
		thresh := p.Threshold()
		if s.Standard {
			thresh = noise.StandardMGThreshold(p.Eps, p.Delta, s.K)
		}
		return NewCalibration(map[string]float64{
			"noise_scale": 1 / p.Eps,
			"threshold":   thresh,
		}, p), nil
	case SensitivityMerged:
		if s.Standard {
			return nil, fmt.Errorf("dpmg: laplace: merged standard sketches are not supported")
		}
		return NewCalibration(map[string]float64{
			"noise_scale": merge.BoundedScale(p.Eps, s.K),
			"threshold":   merge.BoundedThreshold(p.Eps, p.Delta, s.K),
		}, p), nil
	default:
		return nil, fmt.Errorf("dpmg: laplace is not calibrated for %v sensitivity; use %s", s.Class, MechanismGaussian)
	}
}

func (laplaceMechanism) Release(view *ReleaseView, cal *Calibration, seed uint64) Histogram {
	p := cal.Impl().(Params)
	src := noise.NewSource(seed)
	switch {
	case view.Sens.Class == SensitivityMerged:
		return Histogram(merge.ReleaseBoundedColumns(view.Keys, view.Vals, view.Sens.K, p.Eps, p.Delta, src))
	case view.Sens.Standard:
		return mustEstimate(core.ReleaseStandardColumns(view.Keys, view.Vals, view.Sens.K, p, src))
	default:
		return mustEstimate(core.ReleaseColumns(view.Keys, view.Vals, view.Sens.Universe, p, src))
	}
}

// geometricMechanism is the Section 5.2 discrete release: two-sided
// geometric noise, integral outputs, no floating-point side channels. It
// only applies to paper-variant single-stream sketches.
type geometricMechanism struct{}

func (geometricMechanism) Name() string { return MechanismGeometric }

func (geometricMechanism) Calibrate(p Params, s Sensitivity) (*Calibration, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if s.Class != SensitivitySingleStream || s.Standard {
		return nil, fmt.Errorf("dpmg: geometric is only calibrated for paper-variant %v sensitivity, not %v",
			SensitivitySingleStream, describeSens(s))
	}
	return NewCalibration(map[string]float64{
		"alpha":     noise.GeometricAlpha(p.Eps, 1),
		"threshold": noise.GeometricThreshold(p.Eps, p.Delta),
	}, p), nil
}

func (geometricMechanism) Release(view *ReleaseView, cal *Calibration, seed uint64) Histogram {
	return mustEstimate(core.ReleaseGeometricColumns(view.Keys, view.Vals, view.Sens.Universe,
		cal.Impl().(Params), noise.NewSource(seed)))
}

// pureMechanism is the Section 6 pipeline: the Algorithm 3 sensitivity
// reduction followed by Laplace(2/eps) noise on every universe element and
// a top-k cut. Pure eps-DP — Delta is ignored (zero is accepted) — at
// Theta(d) release time.
type pureMechanism struct{}

func (pureMechanism) Name() string { return MechanismPure }

func (pureMechanism) Calibrate(p Params, s Sensitivity) (*Calibration, error) {
	if !accountant.ValidEps(p.Eps) {
		return nil, fmt.Errorf("dpmg: pure: eps must be finite and positive, got %v", p.Eps)
	}
	if !accountant.ValidDelta(p.Delta, true) {
		return nil, fmt.Errorf("dpmg: pure: delta must be in [0,1), got %v (and is ignored)", p.Delta)
	}
	if s.Class != SensitivitySingleStream || s.Standard {
		return nil, fmt.Errorf("dpmg: pure is only calibrated for paper-variant %v sensitivity, not %v",
			SensitivitySingleStream, describeSens(s))
	}
	if s.Universe == 0 {
		return nil, fmt.Errorf("dpmg: pure needs a universe bound (the release iterates [1,d])")
	}
	return NewCalibration(map[string]float64{
		"noise_scale": 2 / p.Eps,
		"universe":    float64(s.Universe),
	}, p.Eps), nil
}

func (pureMechanism) Release(view *ReleaseView, cal *Calibration, seed uint64) Histogram {
	eps := cal.Impl().(float64)
	reduced := puredp.ReduceColumns(view.Keys, view.Vals, view.Sens.K)
	return mustEstimate(puredp.ReleasePure(reduced, eps, view.Sens.Universe, noise.NewSource(seed)))
}

// gaussianMechanism is the Gaussian Sparse Histogram Mechanism calibrated
// by the exact Theorem 23 analysis with l = k. It is the only mechanism for
// user-level sketches (Theorem 30), the default for merged summaries
// (Corollary 18), and valid — if conservative — for single-stream sketches,
// whose Lemma 8 structure is strictly stronger than the merged one.
type gaussianMechanism struct{}

func (gaussianMechanism) Name() string { return MechanismGaussian }

func (gaussianMechanism) Calibrate(p Params, s Sensitivity) (*Calibration, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if s.Standard {
		return nil, fmt.Errorf("dpmg: gaussian is not calibrated for standard sketches (no Corollary 18 structure)")
	}
	cfg, err := gshm.Calibrate(p.Eps, p.Delta, s.K)
	if err != nil {
		return nil, err
	}
	down, up := gshm.ErrorBound(cfg)
	return NewCalibration(map[string]float64{
		"sigma":       cfg.Sigma,
		"tau":         cfg.Tau,
		"l":           float64(cfg.L),
		"error_down":  down,
		"error_up":    up,
		"threshold":   1 + cfg.Tau,
		"noise_scale": cfg.Sigma,
	}, cfg), nil
}

func (gaussianMechanism) Release(view *ReleaseView, cal *Calibration, seed uint64) Histogram {
	return Histogram(gshm.ReleaseFlat(view.Keys, view.Vals, cal.Impl().(gshm.Config), noise.NewSource(seed)))
}

// describeSens renders a sensitivity for error messages, flagging the
// standard variant.
func describeSens(s Sensitivity) string {
	if s.Standard {
		return "standard-variant " + s.Class.String()
	}
	return s.Class.String()
}
