// Package accountant tracks cumulative privacy loss across multiple
// releases of the same data. The paper's mechanisms are analyzed for a
// single release; real deployments that publish repeatedly (dashboards,
// continual monitoring as in Chan et al.) must compose. This package
// implements the two standard composition theorems for (eps, delta)-DP:
//
//   - basic composition: k releases at (eps_i, delta_i) cost
//     (sum eps_i, sum delta_i) (Dwork & Roth, Thm 3.16);
//   - advanced composition: k releases at (eps, delta) cost
//     (eps·sqrt(2k·ln(1/delta')) + k·eps·(e^eps - 1), k·delta + delta')
//     for any slack delta' > 0 (Dwork & Roth, Thm 3.20).
//
// An Accountant is given a total budget up front and admits or refuses
// individual releases against it.
package accountant

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrExhausted is wrapped by every Spend error that rejects a release
// because the remaining budget cannot cover it, so callers (the release
// front-end, the dpmg-server) can distinguish "out of budget" from
// calibration or input errors with errors.Is.
var ErrExhausted = errors.New("privacy budget exhausted")

// Budget is a total (eps, delta) allowance.
type Budget struct {
	Eps   float64
	Delta float64
}

// ValidEps reports whether eps is a usable privacy parameter: finite and
// positive. The comparison is written so that NaN fails it: an ordered
// guard such as eps <= 0 lets NaN through, and one NaN in a ledger makes
// every later comparison against it false.
func ValidEps(eps float64) bool { return eps > 0 && !math.IsInf(eps, 1) }

// ValidDelta reports whether delta is a usable privacy parameter: in
// (0,1), or in [0,1) when zeroOK. NaN fails both.
func ValidDelta(delta float64, zeroOK bool) bool {
	if zeroOK {
		return delta >= 0 && delta < 1
	}
	return delta > 0 && delta < 1
}

// Valid reports whether the budget is usable.
func (b Budget) Valid() error {
	if !ValidEps(b.Eps) {
		return fmt.Errorf("accountant: eps budget must be finite and positive, got %v", b.Eps)
	}
	if !ValidDelta(b.Delta, true) {
		return fmt.Errorf("accountant: delta budget must be in [0,1), got %v", b.Delta)
	}
	return nil
}

// Accountant admits releases until the budget under basic composition is
// exhausted. It is safe for concurrent use.
type Accountant struct {
	mu       sync.Mutex
	budget   Budget
	spentEps float64
	spentDel float64
	releases int
}

// New returns an accountant over the given total budget.
func New(budget Budget) (*Accountant, error) {
	if err := budget.Valid(); err != nil {
		return nil, err
	}
	return &Accountant{budget: budget}, nil
}

// Spend admits a release costing (eps, delta) if it fits the remaining
// budget under basic composition, atomically recording it. It returns an
// error (and records nothing) otherwise.
func (a *Accountant) Spend(eps, delta float64) error {
	if !ValidEps(eps) || !ValidDelta(delta, true) {
		return fmt.Errorf("accountant: invalid spend (%v, %v)", eps, delta)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.spentEps+eps > a.budget.Eps+1e-12 {
		return fmt.Errorf("accountant: eps budget exceeded: spent %v + %v > %v: %w",
			a.spentEps, eps, a.budget.Eps, ErrExhausted)
	}
	if a.spentDel+delta > a.budget.Delta+1e-18 {
		return fmt.Errorf("accountant: delta budget exceeded: spent %v + %v > %v: %w",
			a.spentDel, delta, a.budget.Delta, ErrExhausted)
	}
	a.spentEps += eps
	a.spentDel += delta
	a.releases++
	return nil
}

// Remaining returns the unspent budget under basic composition.
func (a *Accountant) Remaining() Budget {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Budget{Eps: a.budget.Eps - a.spentEps, Delta: a.budget.Delta - a.spentDel}
}

// Spent returns the budget consumed so far under basic composition.
func (a *Accountant) Spent() Budget {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Budget{Eps: a.spentEps, Delta: a.spentDel}
}

// Total returns the accountant's full budget.
func (a *Accountant) Total() Budget {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.budget
}

// State returns the full account — total budget, spend so far, and
// admitted-release count — read under one lock acquisition, so the triple
// is a consistent linearization point even while concurrent Spends run.
// Snapshot paths must use this rather than separate Spent/Releases calls:
// a pair of reads can otherwise straddle a Spend and persist a release
// count whose budget charge is missing.
func (a *Accountant) State() (total, spent Budget, releases int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.budget, Budget{Eps: a.spentEps, Delta: a.spentDel}, a.releases
}

// Restore reconstructs an accountant in a mid-life state — total budget,
// spend so far, and admitted-release count — so durable deployments (the
// dpmg-server manager snapshot) can resume metering after a restart with
// exactly the remaining budget they went down with. The spent state is
// validated against the budget with the same tolerances Spend applies, so
// tampered or corrupted snapshots fail loudly instead of minting budget.
func Restore(total, spent Budget, releases int) (*Accountant, error) {
	if err := total.Valid(); err != nil {
		return nil, err
	}
	for _, v := range []float64{total.Eps, total.Delta, spent.Eps, spent.Delta} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("accountant: non-finite budget value %v", v)
		}
	}
	if spent.Eps < 0 || spent.Delta < 0 {
		return nil, fmt.Errorf("accountant: negative spent budget (%v, %v)", spent.Eps, spent.Delta)
	}
	if spent.Eps > total.Eps+1e-12 {
		return nil, fmt.Errorf("accountant: spent eps %v exceeds budget %v", spent.Eps, total.Eps)
	}
	if spent.Delta > total.Delta+1e-18 {
		return nil, fmt.Errorf("accountant: spent delta %v exceeds budget %v", spent.Delta, total.Delta)
	}
	if releases < 0 {
		return nil, fmt.Errorf("accountant: negative release count %d", releases)
	}
	if releases == 0 && (spent.Eps != 0 || spent.Delta != 0) {
		return nil, fmt.Errorf("accountant: nonzero spend (%v, %v) with zero releases", spent.Eps, spent.Delta)
	}
	return &Accountant{
		budget:   total,
		spentEps: spent.Eps,
		spentDel: spent.Delta,
		releases: releases,
	}, nil
}

// Releases returns how many releases have been admitted.
func (a *Accountant) Releases() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.releases
}

// AdvancedCompose returns the total cost of k releases each at (eps, delta)
// under the advanced composition theorem with slack deltaPrime.
func AdvancedCompose(eps, delta, deltaPrime float64, k int) Budget {
	kf := float64(k)
	return Budget{
		Eps:   eps*math.Sqrt(2*kf*math.Log(1/deltaPrime)) + kf*eps*(math.Exp(eps)-1),
		Delta: kf*delta + deltaPrime,
	}
}

// PerReleaseEps inverts advanced composition: the largest per-release eps
// (at the given per-release delta) such that k releases stay within the
// total budget with slack deltaPrime. It returns an error when even
// arbitrarily small releases cannot fit (delta exhausted). Found by
// bisection; AdvancedCompose is monotone in eps.
func PerReleaseEps(total Budget, delta, deltaPrime float64, k int) (float64, error) {
	if err := total.Valid(); err != nil {
		return 0, err
	}
	if k <= 0 {
		return 0, fmt.Errorf("accountant: k must be positive, got %d", k)
	}
	if float64(k)*delta+deltaPrime > total.Delta {
		return 0, fmt.Errorf("accountant: delta budget %v cannot cover k·delta + delta' = %v",
			total.Delta, float64(k)*delta+deltaPrime)
	}
	lo, hi := 0.0, total.Eps
	for iter := 0; iter < 100; iter++ {
		mid := (lo + hi) / 2
		if AdvancedCompose(mid, delta, deltaPrime, k).Eps <= total.Eps {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0, fmt.Errorf("accountant: no positive per-release eps fits")
	}
	return lo, nil
}

// BestPerReleaseEps returns the larger of the basic-composition split
// (total.Eps/k) and the advanced-composition solution: for small k basic
// composition is better, for large k advanced wins.
func BestPerReleaseEps(total Budget, delta, deltaPrime float64, k int) (float64, error) {
	basic := total.Eps / float64(k)
	if float64(k)*delta > total.Delta {
		return 0, fmt.Errorf("accountant: delta budget cannot cover k releases")
	}
	adv, err := PerReleaseEps(total, delta, deltaPrime, k)
	if err != nil || adv < basic {
		return basic, nil
	}
	return adv, nil
}
