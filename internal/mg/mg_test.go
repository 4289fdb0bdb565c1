package mg

import (
	"math"
	"math/rand/v2"
	"testing"

	"dpmg/internal/hist"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

func TestFact7Bounds(t *testing.T) {
	// Fact 7: estimates lie in [f(x) - n/(k+1), f(x)] for every x.
	cases := []struct {
		name string
		k    int
		d    uint64
		str  stream.Stream
	}{
		{"zipf", 16, 1000, workload.Zipf(20000, 1000, 1.1, 1)},
		{"uniform", 8, 50, workload.Uniform(5000, 50, 2)},
		{"adversarial", 4, 10, workload.Adversarial(1000, 4)},
		{"single", 1, 10, workload.Uniform(500, 10, 3)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(c.k, c.d)
			s.Process(c.str)
			f := hist.Exact(c.str)
			n := int64(len(c.str))
			slack := n / int64(c.k+1)
			for x := stream.Item(1); uint64(x) <= c.d; x++ {
				est := s.Estimate(x)
				if est > f[x] {
					t.Fatalf("item %d: estimate %d > true %d", x, est, f[x])
				}
				if est < f[x]-slack {
					t.Fatalf("item %d: estimate %d < %d - %d", x, est, f[x], slack)
				}
			}
		})
	}
}

func TestEstimatesEqualStandardVariant(t *testing.T) {
	// The paper's variant and the standard variant must return exactly the
	// same estimates on every input (Section 5: "the estimated frequencies
	// by our version are exactly the same as those in the original").
	rng := rand.New(rand.NewPCG(1, 9))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.IntN(8)
		d := uint64(2 + rng.IntN(20))
		n := rng.IntN(300)
		str := make(stream.Stream, n)
		for i := range str {
			str[i] = stream.Item(rng.IntN(int(d)) + 1)
		}
		paper := New(k, d)
		std := NewStandard(k)
		for i, x := range str {
			paper.Update(x)
			std.Update(x)
			if trial%10 == 0 || i == n-1 { // spot-check mid-stream too
				for y := stream.Item(1); uint64(y) <= d; y++ {
					if paper.Estimate(y) != std.Estimate(y) {
						t.Fatalf("trial %d step %d item %d: paper %d std %d",
							trial, i, y, paper.Estimate(y), std.Estimate(y))
					}
				}
			}
		}
		if paper.Decrements() != std.Decrements() {
			t.Fatalf("decrement counts differ: %d vs %d", paper.Decrements(), std.Decrements())
		}
	}
}

func TestAlwaysExactlyKKeys(t *testing.T) {
	s := New(5, 100)
	if s.Len() != 5 {
		t.Fatalf("initial Len = %d", s.Len())
	}
	s.Process(workload.Zipf(5000, 100, 1.1, 4))
	if s.Len() != 5 {
		t.Fatalf("Len after stream = %d", s.Len())
	}
}

func TestDummyKeys(t *testing.T) {
	d := uint64(10)
	s := New(3, d)
	for _, key := range s.SortedKeys() {
		if !s.IsDummy(key) {
			t.Fatalf("initial key %d not dummy", key)
		}
		if s.Estimate(key) != 0 {
			t.Fatal("dummy with non-zero count")
		}
	}
	// After two distinct items, the two smallest dummies (11, 12) are gone.
	s.Update(5)
	s.Update(7)
	got := s.Counters()
	if got[5] != 1 || got[7] != 1 || got[stream.Item(13)] != 0 {
		t.Fatalf("counters = %v", got)
	}
	if _, still := got[stream.Item(11)]; still {
		t.Error("dummy 11 should have been evicted first (smallest zero)")
	}
	if !s.IsDummy(13) || s.IsDummy(10) || s.IsDummy(14) {
		t.Error("IsDummy boundaries wrong")
	}
}

func TestSmallestZeroEvictedFirst(t *testing.T) {
	// Fill sketch with 3 real keys, drive them all to zero, then insert new
	// keys: eviction must go in ascending key order.
	s := New(3, 100)
	s.Update(30)
	s.Update(10)
	s.Update(20)
	s.Update(40) // decrement-all: 10,20,30 -> 0
	if c := s.Counters(); c[10] != 0 || c[20] != 0 || c[30] != 0 {
		t.Fatalf("counters after decrement: %v", c)
	}
	s.Update(50) // replaces smallest zero key: 10
	c := s.Counters()
	if _, ok := c[10]; ok {
		t.Error("10 not evicted")
	}
	if _, ok := c[20]; !ok {
		t.Error("20 evicted out of order")
	}
	s.Update(60) // replaces 20
	c = s.Counters()
	if _, ok := c[20]; ok {
		t.Error("20 not evicted second")
	}
	if _, ok := c[30]; !ok {
		t.Error("30 evicted out of order")
	}
}

func TestZeroKeyCanRecover(t *testing.T) {
	// A stored key decremented to zero and then seen again must increment in
	// place (branch 1), not be replaced.
	s := New(2, 100)
	s.Update(1)
	s.Update(2)
	s.Update(3) // decrement-all: both to 0 (3 ignored)
	s.Update(1) // branch 1: back to 1
	c := s.Counters()
	if c[1] != 1 || c[2] != 0 {
		t.Fatalf("counters = %v", c)
	}
	// Now inserting a new key must evict 2 (the only zero), not 1.
	s.Update(4)
	c = s.Counters()
	if _, ok := c[2]; ok {
		t.Error("2 should be evicted")
	}
	if c[1] != 1 || c[4] != 1 {
		t.Fatalf("counters = %v", c)
	}
}

func TestDecrementsCounted(t *testing.T) {
	k := 4
	s := New(k, 10)
	str := workload.Adversarial(500, k)
	s.Process(str)
	if s.Decrements() == 0 {
		t.Fatal("adversarial stream must trigger decrements")
	}
	if s.Decrements() > int64(len(str))/int64(k+1) {
		t.Fatalf("decrements %d exceed n/(k+1) = %d", s.Decrements(), len(str)/(k+1))
	}
	if s.N() != int64(len(str)) {
		t.Fatalf("N = %d", s.N())
	}
}

func TestUpdatePanicsOutsideUniverse(t *testing.T) {
	s := New(2, 10)
	for _, x := range []stream.Item{0, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("item %d accepted", x)
				}
			}()
			s.Update(x)
		}()
	}
}

func TestNewPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 10) },
		func() { New(-1, 10) },
		func() { New(3, 0) },
		// d+k would wrap: the dummy keys would land inside the universe and
		// the eviction order would read only the low key bytes.
		func() { New(256, math.MaxUint64-100) },
		func() { New(1, math.MaxUint64) },
		func() { NewStandard(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestRealCounters(t *testing.T) {
	s := New(3, 100)
	s.Update(5)
	s.Update(5)
	s.Update(9)
	rc := s.RealCounters()
	if len(rc) != 2 || rc[5] != 2 || rc[9] != 1 {
		t.Fatalf("RealCounters = %v", rc)
	}
	// Drive 9 to zero: it must disappear from RealCounters but stay stored.
	s.Update(1)
	s.Update(2) // decrement-all (sketch full: 5,9,1)
	rc = s.RealCounters()
	if _, ok := rc[9]; ok {
		t.Error("zero counter leaked into RealCounters")
	}
	if _, ok := s.Counters()[9]; !ok {
		t.Error("zero counter should stay stored in the raw sketch")
	}
}

func TestCountersIsACopy(t *testing.T) {
	s := New(2, 10)
	s.Update(3)
	c := s.Counters()
	c[3] = 999
	if s.Estimate(3) != 1 {
		t.Error("Counters returned live reference")
	}
}

func TestSortedKeysSorted(t *testing.T) {
	s := New(4, 1000)
	s.Process(workload.Zipf(500, 1000, 1.0, 6))
	keys := s.SortedKeys()
	if len(keys) != 4 {
		t.Fatalf("len = %d", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatal("keys not strictly ascending")
		}
	}
}

func TestStandardLenBounded(t *testing.T) {
	s := NewStandard(5)
	s.Process(workload.Zipf(10000, 500, 1.0, 7))
	if s.Len() > 5 {
		t.Fatalf("Len = %d > k", s.Len())
	}
	for _, c := range s.Counters() {
		if c <= 0 {
			t.Fatal("standard variant stored a non-positive counter")
		}
	}
}

func TestStandardFact7(t *testing.T) {
	str := workload.Zipf(20000, 300, 1.1, 8)
	k := 10
	s := NewStandard(k)
	s.Process(str)
	f := hist.Exact(str)
	slack := int64(len(str) / (k + 1))
	for x := stream.Item(1); x <= 300; x++ {
		est := s.Estimate(x)
		if est > f[x] || est < f[x]-slack {
			t.Fatalf("item %d: estimate %d true %d slack %d", x, est, f[x], slack)
		}
	}
}

func BenchmarkUpdateZipf(b *testing.B) {
	str := workload.Zipf(1<<20, 1<<16, 1.1, 1)
	b.ResetTimer()
	s := New(256, 1<<16)
	for i := 0; i < b.N; i++ {
		s.Update(str[i&(1<<20-1)])
	}
}

func BenchmarkUpdateAdversarial(b *testing.B) {
	k := 256
	str := workload.Adversarial(1<<20, k)
	b.ResetTimer()
	s := New(k, 1<<16)
	for i := 0; i < b.N; i++ {
		s.Update(str[i&(1<<20-1)])
	}
}
