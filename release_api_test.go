package dpmg

// The unified release API: the mechanism registry and sensitivity matrix,
// accountant metering of every Releasable, calibration and view refusals
// that spend nothing, top-k cuts, metadata, and custom mechanisms. Literal
// released values are pinned by TestReleaseGolden.

import (
	"errors"
	"fmt"
	"testing"

	"dpmg/internal/workload"
)

func identical(t *testing.T, label string, want, got Histogram) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: support drift: want %d items, got %d", label, len(want), len(got))
	}
	for x, v := range want {
		if got[x] != v {
			t.Fatalf("%s: value drift at item %d: want %v, got %v", label, x, v, got[x])
		}
	}
}

func loadedSketch(seed uint64) *Sketch {
	sk := NewSketch(32, 500)
	sk.UpdateBatch(workload.HeavyTail(80000, 500, 4, 0.85, seed))
	return sk
}

func TestMechanismRegistry(t *testing.T) {
	names := Mechanisms()
	want := []string{MechanismGaussian, MechanismGeometric, MechanismLaplace, MechanismPure}
	for _, w := range want {
		if _, ok := MechanismByName(w); !ok {
			t.Errorf("built-in mechanism %q not registered", w)
		}
	}
	if len(names) < len(want) {
		t.Errorf("Mechanisms() = %v, want at least %v", names, want)
	}
	if _, ok := MechanismByName("nope"); ok {
		t.Error("unknown mechanism resolved")
	}
	if err := RegisterMechanism(laplaceMechanism{}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if _, err := Release(loadedSketch(1), Params{Eps: 1, Delta: 1e-6}, WithMechanism("nope")); err == nil {
		t.Error("release with unknown mechanism succeeded")
	}
}

// TestMechanismSensitivityMatrix pins which (mechanism, front-end) pairs
// calibrate and which are rejected — the rejection happening in Calibrate is
// what protects budgets.
func TestMechanismSensitivityMatrix(t *testing.T) {
	p := Params{Eps: 1, Delta: 1e-6}
	sk := loadedSketch(2)
	sum, err := sk.Summary()
	if err != nil {
		t.Fatal(err)
	}
	us := NewUserSketch(32, 2)
	if err := us.AddUsers(workload.UserSets(2000, 200, 2, 1.1, 3)); err != nil {
		t.Fatal(err)
	}
	std := NewStandardSketch(8)
	std.Update(1)

	cases := []struct {
		label string
		sk    Releasable
		mech  string
		ok    bool
	}{
		{"sketch/laplace", sk, MechanismLaplace, true},
		{"sketch/geometric", sk, MechanismGeometric, true},
		{"sketch/pure", sk, MechanismPure, true},
		{"sketch/gaussian", sk, MechanismGaussian, true},
		{"merged/laplace", sum, MechanismLaplace, true},
		{"merged/gaussian", sum, MechanismGaussian, true},
		{"merged/geometric", sum, MechanismGeometric, false},
		{"merged/pure", sum, MechanismPure, false},
		{"user/gaussian", us, MechanismGaussian, true},
		{"user/laplace", us, MechanismLaplace, false},
		{"user/geometric", us, MechanismGeometric, false},
		{"user/pure", us, MechanismPure, false},
		{"standard/laplace", std, MechanismLaplace, true},
		{"standard/geometric", std, MechanismGeometric, false},
		{"standard/gaussian", std, MechanismGaussian, false},
		{"standard/pure", std, MechanismPure, false},
	}
	for _, c := range cases {
		_, err := Release(c.sk, p, WithMechanism(c.mech), WithSeed(1))
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.label, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: calibration should have been rejected", c.label)
		}
	}
}

// TestAccountantMetersEveryReleasable is the acceptance check for the
// accountant rewire: ShardedSketch, MergeableSummary, StringSketch,
// UserSketch, and ContinualMonitor — none of which the old accountant
// could meter — all charge the shared budget through WithAccountant.
func TestAccountantMetersEveryReleasable(t *testing.T) {
	sk := loadedSketch(3)
	sum, err := sk.Summary()
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShardedSketch(2, 32, 500)
	sh.UpdateBatch(workload.HeavyTail(20000, 500, 3, 0.9, 5))
	ss := NewStringSketch(16, 100)
	if err := ss.UpdateBatch([]string{"a", "b", "a", "a", "c"}); err != nil {
		t.Fatal(err)
	}
	us := NewUserSketch(32, 2)
	if err := us.AddUsers(workload.UserSets(2000, 200, 2, 1.1, 3)); err != nil {
		t.Fatal(err)
	}
	mon, err := NewContinualMonitor(32, 500, 4, Params{Eps: 2, Delta: 1e-5}, ContinualDyadic, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range workload.Zipf(5000, 500, 1.2, 7) {
		mon.Update(x)
	}

	targets := []Releasable{sk, sum, sh, us, mon}
	acct, err := NewAccountant(Budget{Eps: float64(len(targets)) * 0.5, Delta: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Eps: 0.5, Delta: 1e-7}
	for i, target := range targets {
		if _, err := Release(target, p, WithSeed(uint64(i)), WithAccountant(acct)); err != nil {
			t.Fatalf("target %d (%T): %v", i, target, err)
		}
	}
	// StringSketch meters through its string-typed entry point.
	if _, err := ss.ReleaseTop(p, WithSeed(99), WithAccountant(acct)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("expected ErrBudgetExhausted after %d releases, got %v", len(targets), err)
	}
	if acct.Releases() != len(targets) {
		t.Errorf("Releases = %d, want %d", acct.Releases(), len(targets))
	}
	rem := acct.Remaining()
	if rem.Eps > 1e-9 {
		t.Errorf("remaining eps = %v, want 0", rem.Eps)
	}
}

// TestCalibrationErrorSpendsNothing pins the Calibrate/Release split's
// whole point: a mechanism that cannot be calibrated for the sketch's
// sensitivity class must fail before the accountant is charged.
func TestCalibrationErrorSpendsNothing(t *testing.T) {
	sum, err := loadedSketch(4).Summary()
	if err != nil {
		t.Fatal(err)
	}
	acct, err := NewAccountant(Budget{Eps: 1, Delta: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Eps: 1, Delta: 1e-6}
	if _, err := Release(sum, p, WithMechanism(MechanismGeometric), WithAccountant(acct)); err == nil {
		t.Fatal("geometric on merged sensitivity calibrated")
	}
	if _, err := Release(sum, Params{Eps: 1, Delta: 0}, WithAccountant(acct)); err == nil {
		t.Fatal("invalid delta calibrated")
	}
	if rem := acct.Remaining(); rem.Eps != 1 || acct.Releases() != 0 {
		t.Errorf("calibration errors leaked budget: remaining %v, releases %d", rem, acct.Releases())
	}
}

// staticView is a Releasable outside the front-ends: it hands Release a
// fixed view, the way a third-party sketch would.
type staticView ReleaseView

func (v *staticView) ReleaseView() (*ReleaseView, error) { return (*ReleaseView)(v), nil }

// TestExternalSingleStreamView: a single-stream view built outside the
// package releases its real counters under every mechanism calibrated for
// the class, and never its dummy key (the key above the universe bound).
func TestExternalSingleStreamView(t *testing.T) {
	view := &staticView{
		Keys: []Item{10, 20, 30, 101},
		Vals: []int64{5000, 3000, 4000, 0},
		Sens: Sensitivity{Class: SensitivitySingleStream, K: 4, Universe: 100},
	}
	for _, mech := range []string{MechanismLaplace, MechanismGeometric, MechanismGaussian} {
		h, err := Release(view, Params{Eps: 1, Delta: 1e-6}, WithMechanism(mech), WithSeed(7))
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		for i, x := range view.Keys[:3] {
			if got, want := h[x], float64(view.Vals[i]); got < want-200 || got > want+200 {
				t.Errorf("%s: item %d released as %v, counter is %v", mech, x, got, want)
			}
		}
		if _, ok := h[101]; ok || len(h) != 3 {
			t.Errorf("%s: released %v, want exactly items 10, 20, 30", mech, h)
		}
	}
}

// TestMalformedViewSpendsNothing: a view whose columns are not parallel, or
// whose keys are not strictly ascending, is refused before calibration and
// before the accountant is charged — whatever its class and mechanism.
func TestMalformedViewSpendsNothing(t *testing.T) {
	merged := Sensitivity{Class: SensitivityMerged, K: 4}
	single := Sensitivity{Class: SensitivitySingleStream, K: 4, Universe: 100}
	cases := []struct {
		name string
		view staticView
	}{
		{"merged short vals", staticView{Keys: []Item{1, 2, 3}, Vals: []int64{50, 60}, Sens: merged}},
		{"merged long vals", staticView{Keys: []Item{1, 2}, Vals: []int64{50, 60, 70}, Sens: merged}},
		{"merged descending", staticView{Keys: []Item{1, 3, 2}, Vals: []int64{50, 60, 70}, Sens: merged}},
		{"merged duplicate key", staticView{Keys: []Item{1, 2, 2}, Vals: []int64{50, 60, 70}, Sens: merged}},
		{"single-stream nil vals", staticView{Keys: []Item{10, 20}, Sens: single}},
		{"single-stream descending", staticView{Keys: []Item{20, 10}, Vals: []int64{5, 6}, Sens: single}},
		{"single-stream no universe", staticView{Keys: []Item{10, 20}, Vals: []int64{5, 6},
			Sens: Sensitivity{Class: SensitivitySingleStream, K: 4}}},
	}
	for _, c := range cases {
		for _, mech := range Mechanisms() {
			acct, err := NewAccountant(Budget{Eps: 10, Delta: 1e-3})
			if err != nil {
				t.Fatal(err)
			}
			_, err = Release(&c.view, Params{Eps: 1, Delta: 1e-6}, WithMechanism(mech), WithSeed(1), WithAccountant(acct))
			if err == nil {
				t.Errorf("%s/%s: malformed view released", c.name, mech)
			}
			if acct.Spent() != (Budget{}) || acct.Releases() != 0 {
				t.Errorf("%s/%s: refused view charged %+v over %d releases", c.name, mech, acct.Spent(), acct.Releases())
			}
		}
	}
}

func TestWithTopK(t *testing.T) {
	sk := loadedSketch(5)
	p := Params{Eps: 1, Delta: 1e-6}
	full, err := Release(sk, p, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(full) <= 3 {
		t.Skipf("release too small (%d) to exercise the cut", len(full))
	}
	cut, err := Release(sk, p, WithSeed(1), WithTopK(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(cut) != 3 {
		t.Fatalf("WithTopK(3) kept %d items", len(cut))
	}
	top := full.TopK(3)
	for _, x := range top {
		if cut[x] != full[x] {
			t.Errorf("top item %d: %v vs %v", x, cut[x], full[x])
		}
	}
	if _, err := Release(sk, p, WithTopK(-1)); err == nil {
		t.Error("negative top-k accepted")
	}
	// WithTopK(0) means "release nothing", not "no cut".
	empty, err := Release(sk, p, WithSeed(1), WithTopK(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Errorf("WithTopK(0) released %d items", len(empty))
	}
}

func TestReleaseDetailedMeta(t *testing.T) {
	sk := loadedSketch(6)
	p := Params{Eps: 1, Delta: 1e-6}
	wantKeys := map[string][]string{
		MechanismLaplace:   {"noise_scale", "threshold"},
		MechanismGeometric: {"alpha", "threshold"},
		MechanismPure:      {"noise_scale", "universe"},
		MechanismGaussian:  {"sigma", "tau", "l", "noise_scale", "threshold"},
	}
	for mech, keys := range wantKeys {
		res, err := ReleaseDetailed(sk, p, WithMechanism(mech), WithSeed(2))
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		if res.Mechanism != mech {
			t.Errorf("%s: reported mechanism %q", mech, res.Mechanism)
		}
		for _, key := range keys {
			if _, ok := res.Meta[key]; !ok {
				t.Errorf("%s: metadata missing %q: %v", mech, key, res.Meta)
			}
		}
	}
}

// TestContinualMonitorAdHocRelease: an out-of-schedule release of the
// monitor's prefix sketch goes through the unified path, is metered
// externally, and does not disturb the epoch schedule.
func TestContinualMonitorAdHocRelease(t *testing.T) {
	mon, err := NewContinualMonitor(32, 300, 4, Params{Eps: 2, Delta: 1e-5}, ContinualUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range workload.HeavyTail(40000, 300, 3, 0.9, 9) {
		mon.Update(x)
	}
	acct, err := NewAccountant(Budget{Eps: 1, Delta: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	h, err := Release(mon, Params{Eps: 1, Delta: 1e-7}, WithSeed(3), WithAccountant(acct))
	if err != nil {
		t.Fatal(err)
	}
	if len(h) == 0 {
		t.Fatal("ad-hoc release empty on heavy stream")
	}
	if acct.Releases() != 1 {
		t.Errorf("ad-hoc release not metered: %d", acct.Releases())
	}
	if mon.Epoch() != 0 {
		t.Errorf("ad-hoc release consumed an epoch: %d", mon.Epoch())
	}
	if _, err := mon.EndEpoch(); err != nil {
		t.Errorf("epoch schedule disturbed: %v", err)
	}
}

// registeredTestMechanism exercises the extensibility path: a custom
// mechanism registered by name is reachable from Release like a built-in.
// It reads the view's one layout — Keys with parallel Vals, dummy keys above
// Sens.Universe on single-stream views — so it works identically on every
// front-end.
type registeredTestMechanism struct{}

func (registeredTestMechanism) Name() string { return "test-constant" }
func (registeredTestMechanism) Calibrate(p Params, s Sensitivity) (*Calibration, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return NewCalibration(map[string]float64{"constant": 1}, nil), nil
}
func (registeredTestMechanism) Release(view *ReleaseView, cal *Calibration, seed uint64) Histogram {
	out := make(Histogram)
	for i, x := range view.Keys {
		dummy := view.Sens.Class == SensitivitySingleStream && uint64(x) > view.Sens.Universe
		if view.Vals[i] > 0 && !dummy {
			out[x] = 1
		}
	}
	return out
}

func TestRegisterCustomMechanism(t *testing.T) {
	if err := RegisterMechanism(registeredTestMechanism{}); err != nil {
		t.Fatal(err)
	}
	sk := loadedSketch(7)
	sum, err := sk.Summary()
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShardedSketch(4, 32, 500)
	sh.UpdateBatch(workload.HeavyTail(40000, 500, 3, 0.9, 7))
	// A single-stream view (sketch) and two merged ones (summary, sharded):
	// the custom mechanism must see real counters on all of them.
	for _, target := range []Releasable{sk, sum, sh} {
		h, err := Release(target, Params{Eps: 1, Delta: 1e-6}, WithMechanism("test-constant"))
		if err != nil {
			t.Fatalf("%T: %v", target, err)
		}
		for x, v := range h {
			if v != 1 {
				t.Fatalf("%T: custom mechanism output %v at %d", target, v, x)
			}
		}
		if len(h) == 0 {
			t.Fatalf("%T: custom mechanism released nothing", target)
		}
	}
}

func ExampleRelease() {
	sk := NewSketch(64, 1000)
	for x := Item(1); x <= 3; x++ {
		for i := 0; i < 100; i++ {
			sk.Update(x)
		}
	}
	h, err := Release(sk, Params{Eps: 1, Delta: 1e-6},
		WithMechanism(MechanismLaplace), WithSeed(42), WithTopK(3))
	if err != nil {
		panic(err)
	}
	fmt.Println(len(h.TopK(3)) == 3)
	// Output: true
}
