package mg

import (
	"math"
	"slices"
	"testing"

	"dpmg/internal/stream"
)

// restoreMap is RestoreColumns over a counter table held as a map, the
// form the validation cases are easiest to write in.
func restoreMap(k int, d uint64, n, decs int64, counts map[stream.Item]int64) (*Sketch, error) {
	keys := make([]stream.Item, 0, len(counts))
	for x := range counts {
		keys = append(keys, x)
	}
	slices.Sort(keys)
	vals := make([]int64, len(keys))
	for i, x := range keys {
		vals[i] = counts[x]
	}
	return RestoreColumns(k, d, n, decs, keys, vals)
}

func TestRestoreRoundTripBehavior(t *testing.T) {
	sk := New(4, 50)
	// Drive through all three branches: increments, decrement-all, evictions.
	for i := 0; i < 2000; i++ {
		sk.Update(stream.Item(uint64(i*i)%50 + 1))
	}
	keys, vals := sk.AppendAll(nil, nil)
	restored, err := RestoreColumns(sk.K(), sk.Universe(), sk.N(), sk.Decrements(), keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	// Continue both with an adversarial suffix (max decrement rate) and
	// compare every observable after each step.
	for i := 0; i < 3000; i++ {
		x := stream.Item(uint64(i)%5 + 1)
		sk.Update(x)
		restored.Update(x)
	}
	if sk.N() != restored.N() || sk.Decrements() != restored.Decrements() {
		t.Fatalf("bookkeeping drift: n %d vs %d, decs %d vs %d",
			sk.N(), restored.N(), sk.Decrements(), restored.Decrements())
	}
	for x := stream.Item(1); uint64(x) <= 50; x++ {
		if sk.Estimate(x) != restored.Estimate(x) {
			t.Fatalf("estimate drift at %d: %d vs %d", x, sk.Estimate(x), restored.Estimate(x))
		}
	}
	a, b := sk.Counters(), restored.Counters()
	if len(a) != len(b) {
		t.Fatalf("counter table size drift: %d vs %d", len(a), len(b))
	}
	for x, c := range a {
		if b[x] != c {
			t.Fatalf("counter drift at %d: %d vs %d", x, b[x], c)
		}
	}
}

func TestRestoreValidation(t *testing.T) {
	good := New(3, 10)
	good.Update(1)
	counts := good.Counters()

	cases := []struct {
		label string
		run   func() error
	}{
		{"zero k", func() error { _, err := restoreMap(0, 10, 1, 0, counts); return err }},
		{"zero universe", func() error { _, err := restoreMap(3, 0, 1, 0, counts); return err }},
		{"wrong entry count", func() error {
			_, err := restoreMap(4, 10, 1, 0, counts)
			return err
		}},
		{"universe leaves no room for dummies", func() error {
			_, err := restoreMap(3, math.MaxUint64-2, 1, 0, counts)
			return err
		}},
		{"negative n", func() error { _, err := restoreMap(3, 10, -1, 0, counts); return err }},
		{"impossible decrements", func() error { _, err := restoreMap(3, 10, 1, 1, counts); return err }},
		{"key out of range", func() error {
			bad := map[stream.Item]int64{1: 1, 2: 0, 99: 0}
			_, err := restoreMap(3, 10, 1, 0, bad)
			return err
		}},
		{"negative counter", func() error {
			bad := map[stream.Item]int64{1: -1, 11: 0, 12: 0}
			_, err := restoreMap(3, 10, 1, 0, bad)
			return err
		}},
		{"incremented dummy", func() error {
			bad := map[stream.Item]int64{1: 1, 11: 3, 12: 0}
			_, err := restoreMap(3, 10, 4, 0, bad)
			return err
		}},
		{"counter sum exceeds n", func() error {
			bad := map[stream.Item]int64{1: 5, 11: 0, 12: 0}
			_, err := restoreMap(3, 10, 2, 0, bad)
			return err
		}},
		{"decrements overflow int64", func() error {
			// decs*(k+1) wraps to 0 mod 2^64; the check must not multiply.
			bad := map[stream.Item]int64{}
			for i := 0; i < 255; i++ {
				bad[stream.Item(i+1)] = 0
			}
			_, err := restoreMap(255, 1000, 0, 1<<60, bad)
			return err
		}},
		{"counter sum overflow int64", func() error {
			bad := map[stream.Item]int64{1: 1 << 62, 2: 1 << 62, 3: 1 << 62}
			_, err := restoreMap(3, 10, 100, 0, bad)
			return err
		}},
	}
	for _, c := range cases {
		if c.run() == nil {
			t.Errorf("%s: accepted", c.label)
		}
	}
	if _, err := restoreMap(good.K(), good.Universe(), good.N(), good.Decrements(), counts); err != nil {
		t.Errorf("genuine state rejected: %v", err)
	}
}

// TestRestoreColumnsMatchesRestore pins the columns a live sketch exports
// (AppendAll, what the codec serializes) against the counter table taken
// as a map and sorted: identical resulting sketches on genuine state, and
// the obligation sorting would establish — strictly ascending keys — is
// enforced rather than assumed.
func TestRestoreColumnsMatchesRestore(t *testing.T) {
	sk := New(8, 100)
	for i := 0; i < 5000; i++ {
		sk.Update(stream.Item(uint64(i*i)%100 + 1))
	}
	keys, vals := sk.AppendAll(nil, nil)
	fromMap, err := restoreMap(sk.K(), sk.Universe(), sk.N(), sk.Decrements(), sk.Counters())
	if err != nil {
		t.Fatal(err)
	}
	fromCols, err := RestoreColumns(sk.K(), sk.Universe(), sk.N(), sk.Decrements(), keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		x := stream.Item(uint64(i)%7 + 1)
		fromMap.Update(x)
		fromCols.Update(x)
	}
	for x := stream.Item(1); uint64(x) <= 100; x++ {
		if fromMap.Estimate(x) != fromCols.Estimate(x) {
			t.Fatalf("estimate drift at %d: %d vs %d", x, fromMap.Estimate(x), fromCols.Estimate(x))
		}
	}
	if fromMap.N() != fromCols.N() || fromMap.Decrements() != fromCols.Decrements() {
		t.Fatalf("bookkeeping drift: n %d vs %d, decs %d vs %d",
			fromMap.N(), fromCols.N(), fromMap.Decrements(), fromCols.Decrements())
	}

	// Column-specific validation: mismatched lengths and unsorted keys.
	if _, err := RestoreColumns(sk.K(), sk.Universe(), sk.N(), sk.Decrements(), keys, vals[:len(vals)-1]); err == nil {
		t.Error("length mismatch accepted")
	}
	swapped := append([]stream.Item(nil), keys...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if _, err := RestoreColumns(sk.K(), sk.Universe(), sk.N(), sk.Decrements(), swapped, vals); err == nil {
		t.Error("unsorted keys accepted")
	}
}
