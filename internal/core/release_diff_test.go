package core

import (
	"reflect"
	"testing"

	"dpmg/internal/mg"
	"dpmg/internal/mg/mgref"
	"dpmg/internal/noise"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

// TestReleaseFlatMatchesRef is the release half of the flat-core
// differential harness: for identical streams and identical seeds, the
// flat sketch and the map-based reference must produce bit-identical
// private releases under both the Laplace and the geometric mechanism.
// Equality here proves the flat rewrite changed nothing the privacy proof
// depends on — same counters, same sorted release order, same number of
// noise draws per key, hence the same seed → noise mapping.
func TestReleaseFlatMatchesRef(t *testing.T) {
	cases := []struct {
		name string
		k    int
		d    uint64
		str  stream.Stream
	}{
		{"zipf", 32, 1 << 12, workload.Zipf(40000, 1<<12, 1.1, 5)},
		{"adversarial", 16, 1 << 10, workload.Adversarial(30000, 16)},
		{"heavytail", 64, 5000, workload.HeavyTail(40000, 5000, 4, 0.85, 6)},
		{"uniform-churn", 8, 64, workload.Uniform(20000, 64, 7)},
	}
	p := Params{Eps: 1, Delta: 1e-6}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			flat := mg.New(c.k, c.d)
			ref := mgref.NewRef(c.k, c.d)
			for _, x := range c.str {
				flat.Update(x)
				ref.Update(x)
			}
			for seed := uint64(1); seed <= 20; seed++ {
				a, err := Release(flat, p, noise.NewSource(seed))
				if err != nil {
					t.Fatal(err)
				}
				b := releaseMapRef(ref, p, noise.NewSource(seed))
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d: Laplace releases diverge:\nflat %v\nref  %v", seed, a, b)
				}
				g1, err := ReleaseGeometric(flat, p, noise.NewSource(seed))
				if err != nil {
					t.Fatal(err)
				}
				g2 := releaseGeometricMapRef(ref, p, noise.NewSource(seed))
				if !reflect.DeepEqual(g1, g2) {
					t.Fatalf("seed %d: geometric releases diverge:\nflat %v\nref  %v", seed, g1, g2)
				}
			}
		})
	}
}
