package dpmg

import (
	"dpmg/internal/accountant"
)

// Budget is a total privacy allowance shared by a sequence of releases.
type Budget struct {
	Eps   float64
	Delta float64
}

// Accountant meters releases against a fixed total budget under basic
// composition, so application code cannot accidentally over-release. It is
// safe for concurrent use. Attach it to any release with WithAccountant —
// every Releasable front-end (Sketch, ShardedSketch, MergeableSummary,
// StringSketch, UserSketch, ContinualMonitor) is metered the same way:
//
//	acct, _ := dpmg.NewAccountant(dpmg.Budget{Eps: 2, Delta: 1e-5})
//	h1, err := dpmg.Release(sk, p, dpmg.WithAccountant(acct))
//	h2, err := dpmg.Release(sharded, p, dpmg.WithAccountant(acct))
//	_, err = dpmg.Release(sk, p, dpmg.WithAccountant(acct))
//	// errors.Is(err, dpmg.ErrBudgetExhausted) once the budget runs out
//
// The charge happens after mechanism calibration succeeds and before any
// noise is drawn: calibration errors never burn budget, and a charged
// release always produces a histogram.
type Accountant struct {
	inner *accountant.Accountant
}

// NewAccountant returns an accountant over the given total budget.
func NewAccountant(b Budget) (*Accountant, error) {
	inner, err := accountant.New(accountant.Budget{Eps: b.Eps, Delta: b.Delta})
	if err != nil {
		return nil, err
	}
	return &Accountant{inner: inner}, nil
}

// Remaining returns the unspent budget.
func (a *Accountant) Remaining() Budget {
	r := a.inner.Remaining()
	return Budget{Eps: r.Eps, Delta: r.Delta}
}

// Spent returns the budget consumed so far.
func (a *Accountant) Spent() Budget {
	s := a.inner.Spent()
	return Budget{Eps: s.Eps, Delta: s.Delta}
}

// Total returns the full budget the accountant was created with.
func (a *Accountant) Total() Budget {
	t := a.inner.Total()
	return Budget{Eps: t.Eps, Delta: t.Delta}
}

// State returns the full account — total budget, spend so far, and
// admitted-release count — in one consistent read: the triple can never
// straddle a concurrent spend, which separate Spent/Releases calls could.
// Observability paths (the dpmg-server /metrics scrape) should prefer it.
func (a *Accountant) State() (total, spent Budget, releases int) {
	it, is, rel := a.inner.State()
	return Budget{Eps: it.Eps, Delta: it.Delta}, Budget{Eps: is.Eps, Delta: is.Delta}, rel
}

// Releases returns how many releases have been admitted.
func (a *Accountant) Releases() int { return a.inner.Releases() }
