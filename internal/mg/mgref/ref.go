// Package mgref holds the reference implementation of Algorithm 1 that the
// differential and fuzz tests of the flat sketch (internal/mg) and of the
// release tier (internal/core) compare against. Only tests import it, so
// it is not linked into any binary; CI checks that dpmg-server does not
// depend on it.
package mgref

import (
	"container/heap"
	"fmt"
	"sort"

	"dpmg/internal/stream"
)

// Ref is the original map-plus-heap implementation of Algorithm 1, retained
// verbatim as an executable specification. It exists so the differential and
// fuzz tests can drive it in lockstep with the flat-storage Sketch and assert
// that counters, estimates, decrement counts, and seeded releases are
// identical — that equivalence is what makes an aggressive rewrite of
// privacy-critical code safe to ship. Do not use Ref in production paths:
// its decrement-all branch iterates the whole counter map (O(k) with poor
// constants) and its Update allocates on heap growth.
type Ref struct {
	k        int
	universe uint64 // d; dummy keys are d+1 .. d+k
	counts   map[stream.Item]int64
	zeros    itemHeap // lazy min-heap of keys whose count may be zero
	nzero    int      // exact number of stored keys with count zero
	n        int64    // stream length processed
	decs     int64    // number of decrement-all steps (branch 2 executions)
}

// NewRef returns an empty reference sketch with k counters over the universe
// [1, d], initialized with the same dummy keys d+1..d+k as New.
func NewRef(k int, d uint64) *Ref {
	if k <= 0 {
		panic("mg: k must be positive")
	}
	if d == 0 {
		panic("mg: universe size must be positive")
	}
	s := &Ref{
		k:        k,
		universe: d,
		counts:   make(map[stream.Item]int64, k),
	}
	for i := 1; i <= k; i++ {
		key := stream.Item(d + uint64(i))
		s.counts[key] = 0
		heap.Push(&s.zeros, key)
	}
	s.nzero = k
	return s
}

// K returns the sketch size parameter.
func (s *Ref) K() int { return s.k }

// Universe returns d.
func (s *Ref) Universe() uint64 { return s.universe }

// N returns the number of processed elements.
func (s *Ref) N() int64 { return s.n }

// Decrements returns how many times the decrement-all branch ran.
func (s *Ref) Decrements() int64 { return s.decs }

// Update processes one stream element (one iteration of Algorithm 1's loop).
func (s *Ref) Update(x stream.Item) {
	if x == 0 || uint64(x) > s.universe {
		panic(fmt.Sprintf("mg: item %d outside universe [1,%d]", x, s.universe))
	}
	s.n++
	if c, ok := s.counts[x]; ok {
		// Branch 1: increment.
		if c == 0 {
			s.nzero--
		}
		s.counts[x] = c + 1
		return
	}
	if s.nzero == 0 {
		// Branch 2: decrement all counters; keys reaching zero stay stored.
		s.decs++
		for y, c := range s.counts {
			c--
			s.counts[y] = c
			if c == 0 {
				s.nzero++
				heap.Push(&s.zeros, y)
			}
		}
		return
	}
	// Branch 3: replace the smallest zero-count key with x.
	y := s.popSmallestZero()
	delete(s.counts, y)
	s.counts[x] = 1
}

// popSmallestZero removes and returns the smallest stored key whose count is
// zero. The heap may hold stale entries (keys later incremented or already
// replaced); they are skipped lazily.
func (s *Ref) popSmallestZero() stream.Item {
	for s.zeros.Len() > 0 {
		y := heap.Pop(&s.zeros).(stream.Item)
		if c, ok := s.counts[y]; ok && c == 0 {
			s.nzero--
			return y
		}
	}
	panic("mg: internal error: nzero > 0 but no zero key found")
}

// Process feeds every element of str through Update.
func (s *Ref) Process(str stream.Stream) {
	for _, x := range str {
		s.Update(x)
	}
}

// Estimate returns the frequency estimate for x: its counter if stored
// (dummy keys included, always 0), otherwise 0.
func (s *Ref) Estimate(x stream.Item) int64 {
	return s.counts[x]
}

// Len returns the number of stored keys, always exactly k for this variant.
func (s *Ref) Len() int { return len(s.counts) }

// Counters returns a copy of the full counter table, including zero-count
// and dummy keys.
func (s *Ref) Counters() map[stream.Item]int64 {
	out := make(map[stream.Item]int64, len(s.counts))
	for x, c := range s.counts {
		out[x] = c
	}
	return out
}

// RealCounters returns a copy of the counter table restricted to genuine
// universe elements with positive counts.
func (s *Ref) RealCounters() map[stream.Item]int64 {
	out := make(map[stream.Item]int64, len(s.counts))
	for x, c := range s.counts {
		if c > 0 && uint64(x) <= s.universe {
			out[x] = c
		}
	}
	return out
}

// SortedKeys returns all stored keys in ascending order.
func (s *Ref) SortedKeys() []stream.Item {
	keys := make([]stream.Item, 0, len(s.counts))
	for x := range s.counts {
		keys = append(keys, x)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// IsDummy reports whether x is one of the sketch's dummy keys.
func (s *Ref) IsDummy(x stream.Item) bool {
	return uint64(x) > s.universe && uint64(x) <= s.universe+uint64(s.k)
}

// itemHeap is a min-heap of items ordered by numeric value.
type itemHeap []stream.Item

func (h itemHeap) Len() int            { return len(h) }
func (h itemHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h itemHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(x interface{}) { *h = append(*h, x.(stream.Item)) }
func (h *itemHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
