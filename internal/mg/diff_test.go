package mg

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"dpmg/internal/mg/mgref"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

// assertEquivalent fails unless the flat sketch and the map-based reference
// agree on every observable: stream accounting, decrement count, the full
// counter table (keys and values), the release key order, and estimates for
// both stored and absent items. This is the contract that makes the flat
// rewrite of the privacy-critical core shippable: Lemma 8 and the seeded
// release depend on the exact sketch state, not just the estimates.
func assertEquivalent(t *testing.T, flat *Sketch, ref *mgref.Ref) {
	t.Helper()
	if flat.N() != ref.N() {
		t.Fatalf("N: flat %d ref %d", flat.N(), ref.N())
	}
	if flat.Decrements() != ref.Decrements() {
		t.Fatalf("Decrements: flat %d ref %d (n=%d)", flat.Decrements(), ref.Decrements(), flat.N())
	}
	if flat.Len() != ref.Len() {
		t.Fatalf("Len: flat %d ref %d", flat.Len(), ref.Len())
	}
	fc, rc := flat.Counters(), ref.Counters()
	if !reflect.DeepEqual(fc, rc) {
		t.Fatalf("Counters diverge (n=%d):\nflat %v\nref  %v", flat.N(), fc, rc)
	}
	if !reflect.DeepEqual(flat.RealCounters(), ref.RealCounters()) {
		t.Fatalf("RealCounters diverge:\nflat %v\nref  %v", flat.RealCounters(), ref.RealCounters())
	}
	if !reflect.DeepEqual(flat.SortedKeys(), ref.SortedKeys()) {
		t.Fatalf("SortedKeys diverge:\nflat %v\nref  %v", flat.SortedKeys(), ref.SortedKeys())
	}
	for x := range rc {
		if flat.Estimate(x) != ref.Estimate(x) {
			t.Fatalf("Estimate(%d): flat %d ref %d", x, flat.Estimate(x), ref.Estimate(x))
		}
	}
}

// runDifferential drives both implementations with the same stream,
// checking equivalence at every checkpoint-th step and at the end.
func runDifferential(t *testing.T, k int, d uint64, str stream.Stream, checkpoint int) {
	t.Helper()
	flat := New(k, d)
	ref := mgref.NewRef(k, d)
	assertEquivalent(t, flat, ref) // initial dummy-key state
	for i, x := range str {
		flat.Update(x)
		ref.Update(x)
		if (i+1)%checkpoint == 0 {
			assertEquivalent(t, flat, ref)
		}
	}
	assertEquivalent(t, flat, ref)
	// Absent items (never stored) must estimate to zero on both.
	for x := stream.Item(1); uint64(x) <= d && x < 64; x++ {
		if flat.Estimate(x) != ref.Estimate(x) {
			t.Fatalf("Estimate(%d): flat %d ref %d", x, flat.Estimate(x), ref.Estimate(x))
		}
	}
}

func TestDifferentialStreams(t *testing.T) {
	cases := []struct {
		name  string
		k     int
		d     uint64
		str   stream.Stream
		check int
	}{
		{"zipf", 64, 1 << 12, workload.Zipf(60000, 1<<12, 1.05, 1), 997},
		{"zipf-skewed", 16, 1000, workload.Zipf(30000, 1000, 1.5, 2), 613},
		{"adversarial", 32, 1 << 10, workload.Adversarial(40000, 32), 331},
		{"adversarial-tiny-k", 1, 64, workload.Adversarial(5000, 1), 97},
		{"uniform", 24, 300, workload.Uniform(30000, 300, 3), 509},
		{"heavytail", 48, 5000, workload.HeavyTail(50000, 5000, 5, 0.8, 4), 757},
		{"single-key", 4, 10, workload.Adversarial(2000, 1), 111},
		// The shape every BENCHMARK.json workload serves: about half the
		// updates evict and an epoch's zero list holds ~200 keys, so the
		// radix passes of orderZeros run, not its insertion-sort cutoff.
		{"serving-shape", 256, 1 << 20, workload.Zipf(150000, 1<<20, 1.05, 5), 4999},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runDifferential(t, c.k, c.d, c.str, c.check)
		})
	}
}

// TestDifferentialRandomized crosses random (k, d) configurations with
// random streams whose small universes force dense interleavings of all
// three Algorithm 1 branches, including constant eviction churn.
func TestDifferentialRandomized(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 150; trial++ {
		k := 1 + rng.IntN(12)
		d := uint64(2 + rng.IntN(30))
		n := 50 + rng.IntN(800)
		str := make(stream.Stream, n)
		for i := range str {
			str[i] = stream.Item(rng.Uint64N(d) + 1)
		}
		runDifferential(t, k, d, str, 37)
	}
}

// TestDifferentialAcross32Bits puts d+k just above 2^32 under long zero
// lists: the stream's keys lie within 2^17 of 2^32 on both sides, so an
// epoch's zeros differ in the fifth key byte and orderZeros needs its fifth
// pass to order them.
func TestDifferentialAcross32Bits(t *testing.T) {
	const d = uint64(1)<<32 + 1<<17
	str := workload.Zipf(100000, 1<<18, 1.05, 6)
	for i := range str {
		str[i] += stream.Item(d - 1<<18)
	}
	runDifferential(t, 256, d, str, 4999)
}

// TestDifferentialHugeKeys runs Algorithm 1 on keys wider than 32 bits.
func TestDifferentialHugeKeys(t *testing.T) {
	const d = uint64(1) << 40
	rng := rand.New(rand.NewPCG(13, 17))
	str := make(stream.Stream, 4000)
	for i := range str {
		// Small value range within a huge universe keeps all branches hot.
		str[i] = stream.Item(uint64(1)<<39 + rng.Uint64N(40) + 1)
	}
	runDifferential(t, 8, d, str, 101)
}

// TestDifferentialWidestUniverse runs Algorithm 1 at the largest universe
// New admits, d = 2^64-1-k, whose last dummy key is 2^64-1, so the
// eviction order needs all eight radix passes. The items rank<<8|7 share
// their low byte, so the first pass is skipped.
func TestDifferentialWidestUniverse(t *testing.T) {
	const k = 256
	const d = math.MaxUint64 - k
	if p := New(k, d).passes; p != 8 {
		t.Fatalf("%d radix passes, want 8", p)
	}
	str := workload.Zipf(100000, 1<<20, 1.05, 8)
	for i := range str {
		str[i] = str[i]<<8 | 7
	}
	runDifferential(t, k, d, str, 4999)
}

// TestBatchMatchesSequential pins UpdateBatch to Update semantics.
func TestBatchMatchesSequential(t *testing.T) {
	str := workload.Zipf(20000, 1<<10, 1.1, 9)
	one := New(32, 1<<10)
	batch := New(32, 1<<10)
	for _, x := range str {
		one.Update(x)
	}
	for i := 0; i < len(str); i += 113 { // ragged batch sizes
		end := i + 113
		if end > len(str) {
			end = len(str)
		}
		batch.UpdateBatch(str[i:end])
	}
	if !reflect.DeepEqual(one.Counters(), batch.Counters()) {
		t.Fatalf("batch counters diverge:\none   %v\nbatch %v", one.Counters(), batch.Counters())
	}
	if one.Decrements() != batch.Decrements() || one.N() != batch.N() {
		t.Fatalf("batch accounting diverges: decs %d/%d n %d/%d",
			one.Decrements(), batch.Decrements(), one.N(), batch.N())
	}
}
