package accountant

import (
	"errors"
	"math"
	"sync"
	"testing"
)

var nan, inf = math.NaN(), math.Inf(1)

func TestBudgetValid(t *testing.T) {
	bad := []Budget{{0, 0.1}, {-1, 0.1}, {1, -0.1}, {1, 1},
		{nan, 0.1}, {inf, 0.1}, {-inf, 0.1}, {1, nan}, {1, inf}, {1, -inf}}
	for _, b := range bad {
		if b.Valid() == nil {
			t.Errorf("budget %+v accepted", b)
		}
	}
	if (Budget{1, 0}).Valid() != nil {
		t.Error("pure-DP budget rejected")
	}
}

func TestSpendWithinBudget(t *testing.T) {
	a, err := New(Budget{Eps: 1, Delta: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := a.Spend(0.25, 25e-8); err != nil {
			t.Fatalf("spend %d: %v", i, err)
		}
	}
	if err := a.Spend(0.01, 0); err == nil {
		t.Error("overspend admitted")
	}
	if a.Releases() != 4 {
		t.Errorf("releases = %d", a.Releases())
	}
	rem := a.Remaining()
	if math.Abs(rem.Eps) > 1e-9 {
		t.Errorf("remaining eps = %v", rem.Eps)
	}
}

func TestSpendDeltaExhaustion(t *testing.T) {
	a, _ := New(Budget{Eps: 10, Delta: 1e-6})
	if err := a.Spend(1, 1e-6); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(1, 1e-9); err == nil {
		t.Error("delta overspend admitted")
	}
	// A pure-DP spend must still be admitted.
	if err := a.Spend(1, 0); err != nil {
		t.Errorf("pure spend rejected: %v", err)
	}
}

func TestSpendRejectsInvalid(t *testing.T) {
	a, _ := New(Budget{Eps: 1, Delta: 0.1})
	if err := a.Spend(0, 0); err == nil {
		t.Error("eps=0 spend admitted")
	}
	if err := a.Spend(0.1, -1); err == nil {
		t.Error("negative delta admitted")
	}
	// A non-finite spend is an input error, never "exhausted", and records
	// nothing: one admitted NaN would make every later comparison false.
	for _, c := range [][2]float64{{nan, 0}, {inf, 0}, {-inf, 0}, {0.1, nan}, {0.1, inf}, {0.1, -inf}} {
		err := a.Spend(c[0], c[1])
		if err == nil || errors.Is(err, ErrExhausted) {
			t.Errorf("Spend(%v, %v) = %v, want an input error", c[0], c[1], err)
		}
	}
	if spent := a.Spent(); spent != (Budget{}) || a.Releases() != 0 {
		t.Errorf("refused spends moved the ledger: %+v, %d releases", spent, a.Releases())
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(Budget{Eps: 0, Delta: 0}); err == nil {
		t.Error("invalid budget accepted")
	}
}

func TestConcurrentSpendNeverOverspends(t *testing.T) {
	a, _ := New(Budget{Eps: 1, Delta: 0.1})
	var wg sync.WaitGroup
	admitted := make(chan struct{}, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if a.Spend(0.1, 0.001) == nil {
				admitted <- struct{}{}
			}
		}()
	}
	wg.Wait()
	close(admitted)
	n := 0
	for range admitted {
		n++
	}
	if n != 10 {
		t.Errorf("admitted %d spends of 0.1 against budget 1", n)
	}
}

func TestBasicCompose(t *testing.T) {
	b := BasicCompose(0.5, 1e-7, 4)
	if b.Eps != 2 || math.Abs(b.Delta-4e-7) > 1e-18 {
		t.Errorf("BasicCompose = %+v", b)
	}
}

func TestAdvancedComposeFormula(t *testing.T) {
	eps, delta, dp := 0.1, 1e-8, 1e-6
	k := 100
	b := AdvancedCompose(eps, delta, dp, k)
	wantEps := eps*math.Sqrt(2*100*math.Log(1/dp)) + 100*eps*(math.Exp(eps)-1)
	if math.Abs(b.Eps-wantEps) > 1e-12 {
		t.Errorf("eps = %v want %v", b.Eps, wantEps)
	}
	if math.Abs(b.Delta-(100*delta+dp)) > 1e-18 {
		t.Errorf("delta = %v", b.Delta)
	}
}

func TestAdvancedBeatsBasicForManyReleases(t *testing.T) {
	// For many small releases the advanced bound is sublinear in k.
	eps := 0.01
	k := 10000
	adv := AdvancedCompose(eps, 0, 1e-6, k)
	basic := BasicCompose(eps, 0, k)
	if adv.Eps >= basic.Eps {
		t.Errorf("advanced %v should beat basic %v at k=%d", adv.Eps, basic.Eps, k)
	}
}

func TestPerReleaseEpsInvertsAdvanced(t *testing.T) {
	total := Budget{Eps: 1, Delta: 1e-5}
	delta, dp := 1e-8, 1e-6
	k := 50
	per, err := PerReleaseEps(total, delta, dp, k)
	if err != nil {
		t.Fatal(err)
	}
	got := AdvancedCompose(per, delta, dp, k)
	if got.Eps > total.Eps*(1+1e-9) {
		t.Errorf("composed eps %v exceeds budget %v", got.Eps, total.Eps)
	}
	// Near-tight: 1% more per release must blow the budget.
	if AdvancedCompose(per*1.01, delta, dp, k).Eps <= total.Eps {
		t.Error("PerReleaseEps not tight")
	}
}

func TestPerReleaseEpsDeltaGate(t *testing.T) {
	if _, err := PerReleaseEps(Budget{Eps: 1, Delta: 1e-8}, 1e-8, 1e-6, 10); err == nil {
		t.Error("impossible delta split accepted")
	}
	if _, err := PerReleaseEps(Budget{Eps: 1, Delta: 0.1}, 0, 1e-6, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestBestPerReleaseEps(t *testing.T) {
	total := Budget{Eps: 1, Delta: 1e-4}
	// Few releases: basic split wins.
	few, err := BestPerReleaseEps(total, 1e-8, 1e-6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(few-0.5) > 1e-9 {
		t.Errorf("k=2 best = %v, want basic 0.5", few)
	}
	// Many releases: advanced wins, so per-release eps > eps/k.
	many, err := BestPerReleaseEps(total, 1e-9, 1e-6, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if many <= total.Eps/5000 {
		t.Errorf("k=5000 best = %v, should beat basic %v", many, total.Eps/5000)
	}
	if _, err := BestPerReleaseEps(total, 1e-3, 1e-6, 5000); err == nil {
		t.Error("delta overflow accepted")
	}
}

func TestSpentTotalRestore(t *testing.T) {
	total := Budget{Eps: 2, Delta: 1e-4}
	a, err := New(total)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(0.5, 1e-5); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(0.25, 2e-5); err != nil {
		t.Fatal(err)
	}
	if got := a.Total(); got != total {
		t.Errorf("Total = %+v, want %+v", got, total)
	}
	spent := a.Spent()
	if spent.Eps != 0.75 || math.Abs(spent.Delta-3e-5) > 1e-18 {
		t.Errorf("Spent = %+v", spent)
	}

	// A restored accountant must behave identically to the original: same
	// remaining budget, same release count, same admit/refuse boundary.
	b, err := Restore(total, spent, a.Releases())
	if err != nil {
		t.Fatal(err)
	}
	if b.Remaining() != a.Remaining() {
		t.Errorf("restored Remaining = %+v, want %+v", b.Remaining(), a.Remaining())
	}
	if b.Releases() != 2 {
		t.Errorf("restored Releases = %d", b.Releases())
	}
	if err := b.Spend(1.3, 0); err == nil {
		t.Error("restored accountant admitted an over-budget spend")
	}
	if err := b.Spend(1.25, 0); err != nil {
		t.Errorf("restored accountant refused an in-budget spend: %v", err)
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	total := Budget{Eps: 1, Delta: 1e-4}
	cases := []struct {
		name     string
		total    Budget
		spent    Budget
		releases int
	}{
		{"eps overspent", total, Budget{Eps: 1.5, Delta: 0}, 1},
		{"delta overspent", total, Budget{Eps: 0.5, Delta: 1e-3}, 1},
		{"negative spent", total, Budget{Eps: -0.1, Delta: 0}, 1},
		{"negative releases", total, Budget{Eps: 0.1, Delta: 0}, -1},
		{"spend without releases", total, Budget{Eps: 0.1, Delta: 0}, 0},
		{"nan spent", total, Budget{Eps: math.NaN(), Delta: 0}, 1},
		{"inf spent", total, Budget{Eps: math.Inf(1), Delta: 0}, 1},
		{"bad total", Budget{Eps: -1, Delta: 0}, Budget{}, 0},
	}
	for _, tc := range cases {
		if _, err := Restore(tc.total, tc.spent, tc.releases); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Zero spend with zero releases is the fresh state and must restore.
	if _, err := Restore(total, Budget{}, 0); err != nil {
		t.Errorf("fresh state rejected: %v", err)
	}
}

// BasicCompose returns the total cost of k releases each at (eps, delta).
func BasicCompose(eps, delta float64, k int) Budget {
	return Budget{Eps: float64(k) * eps, Delta: float64(k) * delta}
}
