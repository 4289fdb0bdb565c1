package dpmg

import (
	"testing"

	"dpmg/internal/workload"
)

func TestAccountantMetersReleases(t *testing.T) {
	acct, err := NewAccountant(Budget{Eps: 2, Delta: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	sk := NewSketch(32, 1000)
	for _, x := range workload.Zipf(50000, 1000, 1.2, 1) {
		sk.Update(x)
	}
	p := Params{Eps: 1, Delta: 1e-6}
	if _, err := Release(sk, p, WithSeed(1), WithAccountant(acct)); err != nil {
		t.Fatal(err)
	}
	if _, err := Release(sk, p, WithSeed(2), WithAccountant(acct)); err != nil {
		t.Fatal(err)
	}
	if _, err := Release(sk, p, WithSeed(3), WithAccountant(acct)); err == nil {
		t.Fatal("third release exceeded budget but was admitted")
	}
	if acct.Releases() != 2 {
		t.Errorf("Releases = %d", acct.Releases())
	}
	rem := acct.Remaining()
	if rem.Eps > 1e-9 {
		t.Errorf("remaining eps = %v", rem.Eps)
	}
}

func TestAccountantUserSketch(t *testing.T) {
	acct, err := NewAccountant(Budget{Eps: 1, Delta: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	us := NewUserSketch(64, 4)
	for _, set := range workload.UserSets(5000, 300, 4, 1.1, 2) {
		if err := us.AddUser(set); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Release(us, Params{Eps: 1, Delta: 1e-6}, WithSeed(1), WithAccountant(acct)); err != nil {
		t.Fatal(err)
	}
	if _, err := Release(us, Params{Eps: 0.1, Delta: 1e-6}, WithSeed(2), WithAccountant(acct)); err == nil {
		t.Fatal("over-budget user release admitted")
	}
}

func TestAccountantRejectsBadBudget(t *testing.T) {
	if _, err := NewAccountant(Budget{Eps: 0, Delta: 0.1}); err == nil {
		t.Error("bad budget accepted")
	}
}

func TestAccountantFailedReleaseNotCharged(t *testing.T) {
	acct, err := NewAccountant(Budget{Eps: 1, Delta: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	sk := NewSketch(4, 10)
	// Invalid params: Spend would admit (0.5, -) — but Spend validates the
	// charge itself; a bad delta fails in Release. Ensure the charge shape:
	// charging happens first, so use a budget-breaking charge instead.
	if _, err := Release(sk, Params{Eps: 5, Delta: 1e-6}, WithSeed(1), WithAccountant(acct)); err == nil {
		t.Fatal("over-budget charge admitted")
	}
	if acct.Releases() != 0 {
		t.Errorf("failed release was counted: %d", acct.Releases())
	}
	rem := acct.Remaining()
	if rem.Eps != 1 {
		t.Errorf("failed release consumed budget: %v", rem.Eps)
	}
}

func TestAccountantValidatesBeforeCharging(t *testing.T) {
	acct, err := NewAccountant(Budget{Eps: 1, Delta: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	sk := NewSketch(4, 10)
	if _, err := Release(sk, Params{Eps: 0.5, Delta: 0}, WithSeed(1), WithAccountant(acct)); err == nil {
		t.Fatal("invalid delta accepted")
	}
	if rem := acct.Remaining(); rem.Eps != 1 {
		t.Errorf("invalid params leaked budget: remaining eps %v", rem.Eps)
	}
}
