package merge

import (
	"testing"

	"dpmg/internal/stream"
)

// TestSetSortedRebinds pins the reusable-header contract: SetSorted rebinds
// an existing summary over new columns with FromSorted's validation and no
// allocations, and a failed rebind leaves an error rather than silently
// accepting bad columns.
func TestSetSortedRebinds(t *testing.T) {
	s := new(Summary)
	if err := s.SetSorted(4, []stream.Item{1, 5, 9}, []int64{2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.Estimate(5) != 3 {
		t.Fatalf("first bind: len %d, estimate(5) %d", s.Len(), s.Estimate(5))
	}

	// Rebinding replaces the previous columns entirely.
	keys := []stream.Item{2, 7}
	vals := []int64{10, 20}
	if err := s.SetSorted(8, keys, vals); err != nil {
		t.Fatal(err)
	}
	if s.K != 8 || s.Len() != 2 || s.Estimate(5) != 0 || s.Estimate(7) != 20 {
		t.Fatalf("rebind: k %d, len %d, estimate(7) %d", s.K, s.Len(), s.Estimate(7))
	}

	// Steady-state rebinds are allocation-free.
	if avg := testing.AllocsPerRun(100, func() {
		if err := s.SetSorted(8, keys, vals); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("SetSorted allocates %.1f per rebind, want 0", avg)
	}

	// FromSorted's validation applies verbatim.
	for _, tc := range []struct {
		name string
		k    int
		keys []stream.Item
		vals []int64
	}{
		{"zero k", 0, []stream.Item{1}, []int64{1}},
		{"length mismatch", 4, []stream.Item{1, 2}, []int64{1}},
		{"over k", 1, []stream.Item{1, 2}, []int64{1, 1}},
		{"non-positive count", 4, []stream.Item{1}, []int64{0}},
		{"descending keys", 4, []stream.Item{5, 2}, []int64{1, 1}},
		{"duplicate keys", 4, []stream.Item{3, 3}, []int64{1, 1}},
	} {
		if err := s.SetSorted(tc.k, tc.keys, tc.vals); err == nil {
			t.Errorf("%s: SetSorted accepted invalid columns", tc.name)
		}
	}
}

// TestCloneCompactIndependent pins the two-allocation deep copy: the clone
// equals its source, shares no storage with it, and costs exactly two
// allocations (header plus the combined column block).
func TestCloneCompactIndependent(t *testing.T) {
	src, err := FromSorted(8, []stream.Item{1, 4, 9, 16}, []int64{5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	c := src.CloneCompact()
	if c.K != src.K || c.Len() != src.Len() {
		t.Fatalf("clone shape k=%d len=%d, want k=%d len=%d", c.K, c.Len(), src.K, src.Len())
	}
	for i := 0; i < src.Len(); i++ {
		ck, cv := c.At(i)
		sk, sv := src.At(i)
		if ck != sk || cv != sv {
			t.Fatalf("entry %d: clone (%d, %d), source (%d, %d)", i, ck, cv, sk, sv)
		}
	}

	// Mutating the source's backing storage must not reach the clone.
	src.keys[0], src.vals[0] = 999, 999
	if k, v := c.At(0); k != 1 || v != 5 {
		t.Fatalf("clone shares storage with source: entry 0 became (%d, %d)", k, v)
	}
	// And the other way around.
	c.keys[1], c.vals[1] = 888, 888
	if k, v := src.At(1); k != 4 || v != 6 {
		t.Fatalf("source entry 1 became (%d, %d)", k, v)
	}

	// The empty case stays valid (and single-allocation).
	empty, err := FromSorted(8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ec := empty.CloneCompact()
	if ec.K != 8 || ec.Len() != 0 {
		t.Fatalf("empty clone: k=%d len=%d", ec.K, ec.Len())
	}

	// Exactly two allocations per clone: header + combined block.
	if avg := testing.AllocsPerRun(100, func() { _ = src.CloneCompact() }); avg > 2 {
		t.Fatalf("CloneCompact allocates %.1f per clone, want <= 2", avg)
	}
}

// At returns the i-th (key, count) pair in ascending key order.
func (s *Summary) At(i int) (stream.Item, int64) { return s.keys[i], s.vals[i] }
