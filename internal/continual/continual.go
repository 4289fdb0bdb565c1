// Package continual implements continual observation of heavy hitters: a
// stream is monitored over T epochs and a private histogram snapshot is
// published at the end of every epoch. This is the setting of Chan, Li,
// Shi and Xu, for which the paper notes "our algorithm can replace theirs
// as the subroutine, leading to better results".
//
// Two strategies are provided:
//
//   - Uniform: one growing Misra-Gries sketch, re-released every epoch with
//     the per-epoch budget obtained from composition over T releases. The
//     per-epoch noise grows linearly with T (basic composition) or with
//     sqrt(T·log) (advanced composition).
//
//   - Dyadic: the binary-mechanism decomposition. One Misra-Gries sketch
//     per dyadic level is fed directly from the stream, and each dyadic
//     interval is released exactly once (with Algorithm 2) when it
//     completes. Every element is covered by at most log2(T)+1 released
//     intervals, so each release runs at eps/(log2(T)+1); a snapshot merges
//     the at most log2(T)+1 released tables of the prefix decomposition.
//     Per-snapshot noise is polylog(T) instead of linear in T.
//
// Each level-j sketch sees the raw elements of its own interval, so the
// Lemma 8 structure holds for it and the Algorithm 2 release is valid;
// no release is ever computed from merged sketches.
package continual

import (
	"fmt"
	"math"
	"math/bits"

	"dpmg/internal/accountant"
	"dpmg/internal/core"
	"dpmg/internal/hist"
	"dpmg/internal/merge"
	"dpmg/internal/mg"
	"dpmg/internal/noise"
	"dpmg/internal/stream"
)

// Strategy selects the budget layout.
type Strategy int

const (
	// Uniform re-releases a single growing sketch every epoch.
	Uniform Strategy = iota
	// Dyadic releases each dyadic interval once (binary mechanism).
	Dyadic
)

// Monitor publishes a private heavy-hitter snapshot per epoch.
type Monitor struct {
	strategy Strategy
	k        int
	d        uint64
	epochs   int // T, fixed up front
	perEps   float64
	perDelta float64
	acct     *accountant.Accountant
	src      noise.Source

	epoch int // completed epochs

	// whole sketches the entire stream prefix under both strategies: it is
	// the Uniform strategy's release object, and under Dyadic it is kept
	// (never released by EndEpoch) so PrefixSketch can expose the prefix
	// for ad-hoc out-of-schedule releases metered by an external
	// accountant.
	whole *mg.Sketch

	// Dyadic state: one active sketch per level plus the released tables of
	// the current prefix decomposition (slot j covers a completed interval
	// of 2^j epochs, nil when bit j of epoch is 0).
	levels []*mg.Sketch
	slots  []hist.Estimate

	// relKeys/relVals are the flat extraction scratch the per-epoch release
	// reuses (mg.AppendAll → core.ReleaseColumns): steady-state releases
	// build no counter map and allocate no key slice.
	relKeys []stream.Item
	relVals []int64

	// release performs one per-epoch Algorithm 2 release. It defaults to
	// releaseFlat; the differential test swaps in a map-based reference loop
	// to pin flat ≡ map draw for draw under a shared seed.
	release func(*mg.Sketch, core.Params) (hist.Estimate, error)
}

// Options configure a Monitor.
type Options struct {
	K        int     // sketch counters per (level-)sketch
	Universe uint64  // universe size d
	Epochs   int     // number of epochs T, fixed up front
	Eps      float64 // total privacy budget over the whole run
	Delta    float64
	Strategy Strategy
	Seed     uint64
}

// NewMonitor validates the options and splits the budget according to the
// strategy.
func NewMonitor(o Options) (*Monitor, error) {
	if o.K <= 0 || o.Universe == 0 {
		return nil, fmt.Errorf("continual: need positive K and Universe")
	}
	if o.Epochs <= 0 {
		return nil, fmt.Errorf("continual: need positive Epochs, got %d", o.Epochs)
	}
	total := accountant.Budget{Eps: o.Eps, Delta: o.Delta}
	if err := total.Valid(); err != nil {
		return nil, err
	}
	if total.Delta == 0 {
		return nil, fmt.Errorf("continual: Algorithm 2 releases need delta > 0")
	}
	m := &Monitor{
		strategy: o.Strategy,
		k:        o.K,
		d:        o.Universe,
		epochs:   o.Epochs,
		src:      noise.NewSource(o.Seed),
		whole:    mg.New(o.K, o.Universe),
	}
	m.release = m.releaseFlat
	var err error
	switch o.Strategy {
	case Uniform:
		// T releases of the full prefix: per-release delta gets half the
		// budget, the advanced-composition slack the other half.
		m.perDelta = total.Delta / (2 * float64(o.Epochs))
		m.perEps, err = accountant.BestPerReleaseEps(total, m.perDelta, total.Delta/2, o.Epochs)
		if err != nil {
			return nil, err
		}
	case Dyadic:
		levels := bits.Len(uint(o.Epochs)) // log2(T)+1 levels
		m.perEps = total.Eps / float64(levels)
		m.perDelta = total.Delta / float64(levels)
		m.levels = make([]*mg.Sketch, levels)
		m.slots = make([]hist.Estimate, levels)
		for j := range m.levels {
			m.levels[j] = mg.New(o.K, o.Universe)
		}
		// Dyadic accounting is per element, not per release: the intervals
		// at one level are disjoint (parallel composition), and an element
		// lies in at most `levels` released intervals, each released at
		// (perEps, perDelta). The whole budget is therefore committed up
		// front rather than metered per release.
	default:
		return nil, fmt.Errorf("continual: unknown strategy %d", o.Strategy)
	}
	// The accountant meters releases in per-release units: exactly Epochs
	// spends of (perEps, perDelta) fit. The per-release cost itself is
	// justified against the *total* budget by advanced composition
	// (Uniform) or the per-element dyadic argument (Dyadic), which a
	// basic-composition meter cannot express directly.
	m.acct, err = accountant.New(accountant.Budget{
		Eps:   m.perEps * float64(o.Epochs) * (1 + 1e-9),
		Delta: m.perDelta * float64(o.Epochs) * (1 + 1e-9),
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// PerEpochEps returns the per-release epsilon the strategy arrived at.
func (m *Monitor) PerEpochEps() float64 { return m.perEps }

// Update feeds one stream element into the current epoch.
func (m *Monitor) Update(x stream.Item) {
	m.whole.Update(x)
	if m.strategy == Dyadic {
		for _, sk := range m.levels {
			sk.Update(x)
		}
	}
}

// PrefixSketch returns the live Misra-Gries sketch of the entire stream
// prefix. It is a genuine single-stream Algorithm 1 sketch (Lemma 8
// applies), so any mechanism calibrated for single-stream sensitivity may
// release it — but such a release is OUTSIDE the monitor's epoch budget and
// must be accounted separately by the caller.
func (m *Monitor) PrefixSketch() *mg.Sketch { return m.whole }

// EndEpoch closes the current epoch and returns the private snapshot of the
// whole prefix. It errors once Epochs epochs have been published (the
// budget is sized for exactly that many).
func (m *Monitor) EndEpoch() (hist.Estimate, error) {
	if m.epoch >= m.epochs {
		return nil, fmt.Errorf("continual: all %d epochs already published", m.epochs)
	}
	m.epoch++
	p := core.Params{Eps: m.perEps, Delta: m.perDelta}
	switch m.strategy {
	case Uniform:
		if err := m.acct.Spend(m.perEps, m.perDelta); err != nil {
			return nil, err
		}
		return m.release(m.whole, p)
	case Dyadic:
		// The intervals completing at this epoch are levels 0..z where z is
		// the number of trailing ones of (epoch-1), i.e. trailing zeros of
		// epoch. The level-z interval's release covers them all.
		z := bits.TrailingZeros(uint(m.epoch))
		if z >= len(m.levels) {
			z = len(m.levels) - 1
		}
		// Only the topmost completing interval is released — the lower
		// completing intervals are subsumed by it and releasing fewer
		// intervals only improves privacy. See NewMonitor for why the
		// per-element cost stays within the total budget.
		rel, err := m.release(m.levels[z], p)
		if err != nil {
			return nil, err
		}
		m.slots[z] = rel
		for j := 0; j < z; j++ {
			m.slots[j] = nil
			m.levels[j] = mg.New(m.k, m.d)
		}
		m.levels[z] = mg.New(m.k, m.d)
		// Snapshot: merge the prefix decomposition (set bits of epoch).
		var out hist.Estimate
		for j := len(m.slots) - 1; j >= 0; j-- {
			if m.slots[j] == nil {
				continue
			}
			if out == nil {
				out = cloneEstimate(m.slots[j])
			} else {
				out = merge.MergeNoisy(out, m.slots[j], m.k)
			}
		}
		if out == nil {
			out = hist.Estimate{}
		}
		return out, nil
	}
	return nil, fmt.Errorf("continual: unknown strategy")
}

// releaseFlat runs the Algorithm 2 release over the sketch's flat column
// extraction: the full counter table is appended into the monitor's reused
// scratch (ascending keys, dummies included) and privatized with
// core.ReleaseColumns: core.Release on the same sketch without the
// per-epoch column allocation.
func (m *Monitor) releaseFlat(sk *mg.Sketch, p core.Params) (hist.Estimate, error) {
	keys, vals := sk.AppendAll(m.relKeys[:0], m.relVals[:0])
	m.relKeys, m.relVals = keys, vals
	return core.ReleaseColumns(keys, vals, m.d, p, m.src)
}

// Epoch returns the number of published epochs.
func (m *Monitor) Epoch() int { return m.epoch }

func cloneEstimate(e hist.Estimate) hist.Estimate {
	out := make(hist.Estimate, len(e))
	for x, v := range e {
		out[x] = v
	}
	return out
}

// UniformNoisePerEpoch predicts the per-epoch threshold error of the
// Uniform strategy: 1 + 2·ln(3/delta_t)/eps_t for the split budget —
// useful for sizing T.
func UniformNoisePerEpoch(eps, delta float64, T int) float64 {
	perDelta := delta / (2 * float64(T))
	per, err := accountant.BestPerReleaseEps(accountant.Budget{Eps: eps, Delta: delta}, perDelta, delta/2, T)
	if err != nil {
		return math.Inf(1)
	}
	return noise.PMGThreshold(per, perDelta)
}

// DyadicNoisePerEpoch predicts the worst-case per-snapshot threshold error
// of the Dyadic strategy: up to log2(T)+1 merged releases each carrying the
// per-level threshold.
func DyadicNoisePerEpoch(eps, delta float64, T int) float64 {
	levels := float64(bits.Len(uint(T)))
	per := eps / levels
	perDelta := delta / levels
	return levels * noise.PMGThreshold(per, perDelta)
}
