package pamg

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"dpmg/internal/hist"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

func randomSetStream(rng *rand.Rand, users, d, maxM int) stream.SetStream {
	ss := make(stream.SetStream, users)
	for i := range ss {
		m := 1 + rng.IntN(maxM)
		if m > d {
			m = d
		}
		seen := map[stream.Item]struct{}{}
		var set []stream.Item
		for len(set) < m {
			x := stream.Item(rng.IntN(d) + 1)
			if _, dup := seen[x]; dup {
				continue
			}
			seen[x] = struct{}{}
			set = append(set, x)
		}
		ss[i] = set
	}
	return ss
}

func TestLemma26ErrorBound(t *testing.T) {
	// Estimates lie in [f(x) - floor(N/(k+1)), f(x)].
	cases := []struct {
		name string
		k    int
		ss   stream.SetStream
	}{
		{"zipf-sets", 16, workload.UserSets(2000, 500, 4, 1.1, 1)},
		{"wide-sets", 8, workload.UserSets(500, 100, 8, 1.0, 2)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(c.k)
			s.Process(c.ss)
			f := hist.ExactSets(c.ss)
			slack := int64(c.ss.TotalLen()) / int64(c.k+1)
			for x, fx := range f {
				est := s.Estimate(x)
				if est > fx {
					t.Fatalf("item %d: estimate %d > true %d", x, est, fx)
				}
				if est < fx-slack {
					t.Fatalf("item %d: estimate %d < %d - %d", x, est, fx, slack)
				}
			}
		})
	}
}

func TestLemma26RandomSmall(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	for trial := 0; trial < 300; trial++ {
		k := 2 + rng.IntN(6)
		ss := randomSetStream(rng, 1+rng.IntN(50), 2+rng.IntN(10), 3)
		s := New(k)
		s.Process(ss)
		f := hist.ExactSets(ss)
		slack := int64(ss.TotalLen()) / int64(k+1)
		for x, fx := range f {
			est := s.Estimate(x)
			if est > fx || est < fx-slack {
				t.Fatalf("trial %d item %d: est %d true %d slack %d", trial, x, est, fx, slack)
			}
		}
	}
}

func TestLemma27NeighborStructure(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 34))
	trials := 2000
	if testing.Short() {
		trials = 200
	}
	for trial := 0; trial < trials; trial++ {
		k := 2 + rng.IntN(5)
		ss := randomSetStream(rng, 1+rng.IntN(40), 2+rng.IntN(8), 3)
		idx := rng.IntN(len(ss))
		a := New(k)
		a.Process(ss)
		b := New(k)
		b.Process(ss.RemoveAt(idx))
		if err := CheckNeighborStructure(a.Counters(), b.Counters()); err != nil {
			t.Fatalf("trial %d (k=%d idx=%d): %v\nstream=%v", trial, k, idx, err, ss)
		}
	}
}

func TestLemma27ImpliesLowSensitivity(t *testing.T) {
	// Per Lemma 27, the l-infinity distance between neighbors is at most 1
	// and the l2 distance is at most sqrt(k) — the claim of Theorem 2.
	rng := rand.New(rand.NewPCG(4, 8))
	for trial := 0; trial < 300; trial++ {
		k := 2 + rng.IntN(6)
		ss := randomSetStream(rng, 1+rng.IntN(40), 2+rng.IntN(8), 4)
		a := New(k)
		a.Process(ss)
		b := New(k)
		b.Process(ss.RemoveAt(rng.IntN(len(ss))))
		ca, cb := a.Counters(), b.Counters()
		if d := hist.LInfDistance(ca, cb); d > 1 {
			t.Fatalf("trial %d: linf %v > 1", trial, d)
		}
		// Differing keys <= max stored keys <= k (between users), so l2 <= sqrt(k).
		l2 := hist.L2Distance(ca, cb)
		if l2*l2 > float64(k)+1e-9 {
			t.Fatalf("trial %d: l2^2 %v > k %d", trial, l2*l2, k)
		}
	}
}

func TestSizeBounds(t *testing.T) {
	s := New(4)
	ss := workload.UserSets(200, 50, 3, 1.0, 3)
	for _, set := range ss {
		s.ProcessUser(set)
		if s.Len() > 4 {
			t.Fatalf("size %d > k between users", s.Len())
		}
	}
	for _, c := range s.Counters() {
		if c <= 0 {
			t.Fatal("stored non-positive counter")
		}
	}
}

func TestDecrementOncePerUser(t *testing.T) {
	// A user whose set overflows the sketch triggers exactly one sweep, not
	// one per element: with k=2 and a 3-element set over an empty sketch,
	// all counters end at 0 after a single sweep and the sketch empties.
	s := New(2)
	s.ProcessUser([]stream.Item{1, 2, 3})
	if s.Len() != 0 {
		t.Fatalf("Len = %d want 0", s.Len())
	}
	if s.Decrements() != 1 {
		t.Fatalf("Decrements = %d want 1", s.Decrements())
	}
	// Same input to a per-element MG-style sketch would have kept {3}.
}

func TestSweepPreservesSurvivors(t *testing.T) {
	s := New(2)
	s.ProcessUser([]stream.Item{1})
	s.ProcessUser([]stream.Item{1})
	s.ProcessUser([]stream.Item{2, 3}) // overflow: 1->1, 2,3 removed
	c := s.Counters()
	if len(c) != 1 || c[1] != 1 {
		t.Fatalf("counters = %v", c)
	}
}

func TestPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0) },
		func() { New(3).ProcessUser([]stream.Item{1, 1}) },
		func() { New(3).ProcessUser([]stream.Item{0}) },
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

func TestAccounting(t *testing.T) {
	s := New(8)
	ss := workload.UserSets(100, 200, 5, 1.1, 9)
	s.Process(ss)
	if s.Users() != 100 {
		t.Errorf("Users = %d", s.Users())
	}
	if s.TotalLen() != int64(ss.TotalLen()) {
		t.Errorf("TotalLen = %d want %d", s.TotalLen(), ss.TotalLen())
	}
	if s.Decrements() > s.TotalLen()/int64(9) {
		t.Errorf("Decrements %d exceed N/(k+1)", s.Decrements())
	}
}

func TestSortedKeys(t *testing.T) {
	s := New(8)
	s.Process(workload.UserSets(50, 100, 4, 1.0, 10))
	keys := s.SortedKeys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatal("keys not sorted")
		}
	}
}

func TestCheckNeighborStructureRejects(t *testing.T) {
	a := map[stream.Item]int64{1: 5, 2: 3}
	bad := map[stream.Item]int64{1: 3, 2: 3} // differs by 2
	if CheckNeighborStructure(a, bad) == nil {
		t.Error("accepted counter gap of 2")
	}
	bad2 := map[stream.Item]int64{1: 6, 2: 2} // mixed directions
	if CheckNeighborStructure(a, bad2) == nil {
		t.Error("accepted mixed-direction differences")
	}
}

func TestSingletonUsersMatchMGModel(t *testing.T) {
	// With m = 1 every user contributes one element; PAMG behaves like a
	// standard MG sketch with threshold k+1 for growth (it decrements when
	// |T| exceeds k). Check Fact-7-style bounds still hold tightly.
	str := workload.Zipf(10000, 100, 1.1, 11)
	s := New(10)
	sets := make(stream.SetStream, len(str))
	for i, x := range str {
		sets[i] = []stream.Item{x}
	}
	s.Process(sets)
	f := hist.Exact(str)
	slack := int64(len(str) / 11)
	for x, fx := range f {
		est := s.Estimate(x)
		if est > fx || est < fx-slack {
			t.Fatalf("item %d: est %d true %d", x, est, fx)
		}
	}
}

// CheckNeighborStructure verifies Lemma 27 on counter tables of PAMG
// sketches built from neighboring user streams: either T' ⊆ T with
// c_i - c'_i ∈ {0,1} for all i, or T ⊆ T' with the roles swapped. It
// returns nil if the structure holds.
func CheckNeighborStructure(c, cPrime map[stream.Item]int64) error {
	if ok := oneSided(c, cPrime); ok {
		return nil
	}
	if ok := oneSided(cPrime, c); ok {
		return nil
	}
	return fmt.Errorf("pamg: neither containment direction holds: %v vs %v", c, cPrime)
}

// Users returns the number of user sets processed.
func (s *Sketch) Users() int64 { return s.users }
