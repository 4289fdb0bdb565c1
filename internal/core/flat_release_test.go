package core

import (
	"reflect"
	"testing"

	"dpmg/internal/mg"
	"dpmg/internal/noise"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

// TestReleaseColumnsMatchesMap pins every column loop to its map-based
// reference (mapref_test.go) draw for draw: for the same sketch state and
// the same seed, ReleaseColumns, ReleaseGeometricColumns and
// ReleaseStandardColumns over the AppendAll extraction must produce
// bit-identical histograms to the map loops over the Counters/SortedKeys
// view.
func TestReleaseColumnsMatchesMap(t *testing.T) {
	cases := []struct {
		name string
		k    int
		d    uint64
		str  stream.Stream
	}{
		{"zipf", 32, 1 << 12, workload.Zipf(40000, 1<<12, 1.1, 5)},
		{"adversarial", 16, 1 << 10, workload.Adversarial(30000, 16)},
		{"sparse", 8, 4096, workload.Uniform(30, 4096, 3)},
		{"empty", 8, 64, nil},
	}
	p := Params{Eps: 1, Delta: 1e-6}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sk := mg.New(c.k, c.d)
			sk.Process(c.str)
			var keys []stream.Item
			var vals []int64
			for seed := uint64(1); seed <= 20; seed++ {
				// Reused scratch, like the monitor's steady state.
				keys, vals = sk.AppendAll(keys[:0], vals[:0])
				flat, err := ReleaseColumns(keys, vals, c.d, p, noise.NewSource(seed))
				if err != nil {
					t.Fatal(err)
				}
				if mapped := releaseMapRef(sk, p, noise.NewSource(seed)); !reflect.DeepEqual(flat, mapped) {
					t.Fatalf("seed %d: flat and map releases diverge:\nflat %v\nmap  %v", seed, flat, mapped)
				}
				geo, err := ReleaseGeometricColumns(keys, vals, c.d, p, noise.NewSource(seed))
				if err != nil {
					t.Fatal(err)
				}
				if mapped := releaseGeometricMapRef(sk, p, noise.NewSource(seed)); !reflect.DeepEqual(geo, mapped) {
					t.Fatalf("seed %d: flat and map geometric releases diverge:\nflat %v\nmap  %v", seed, geo, mapped)
				}
			}
			std := mg.NewStandard(c.k)
			std.Process(c.str)
			for seed := uint64(1); seed <= 20; seed++ {
				keys, vals = std.AppendAll(keys[:0], vals[:0])
				flat, err := ReleaseStandardColumns(keys, vals, c.k, p, noise.NewSource(seed))
				if err != nil {
					t.Fatal(err)
				}
				if mapped := releaseStandardMapRef(std, c.k, p, noise.NewSource(seed)); !reflect.DeepEqual(flat, mapped) {
					t.Fatalf("seed %d: flat and map standard releases diverge:\nflat %v\nmap  %v", seed, flat, mapped)
				}
			}
		})
	}
}

// TestAppendAllMatchesCounters checks the flat extraction against the map
// view: same keys (ascending), same counts, dummies and zeros included.
func TestAppendAllMatchesCounters(t *testing.T) {
	sk := mg.New(16, 1000)
	sk.Process(workload.Zipf(25000, 1000, 1.2, 9))
	keys, vals := sk.AppendAll(nil, nil)
	counts := sk.Counters()
	if len(keys) != len(counts) || len(vals) != len(counts) {
		t.Fatalf("flat extraction has %d/%d entries, map has %d", len(keys), len(vals), len(counts))
	}
	for i, x := range keys {
		if i > 0 && keys[i-1] >= x {
			t.Fatalf("keys not strictly ascending at %d", i)
		}
		if counts[x] != vals[i] {
			t.Errorf("key %d: flat %d, map %d", x, vals[i], counts[x])
		}
	}
}
