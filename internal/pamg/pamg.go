// Package pamg implements the Privacy-Aware Misra-Gries sketch of Section 8
// (Algorithm 4), the paper's new sketch for streams where each user
// contributes a set of up to m distinct elements. Counters for all of a
// user's elements are incremented, and all counters are decremented at most
// once per user (not once per element). This keeps the per-counter
// difference between neighboring sketches at most 1 (Lemma 27), giving
// l2-sensitivity sqrt(k) independent of m, while matching the Misra-Gries
// error guarantee N/(k+1) (Lemma 26).
package pamg

import (
	"fmt"
	"slices"
	"sort"

	"dpmg/internal/stream"
)

// Sketch is the Privacy-Aware Misra-Gries sketch. The zero value is not
// usable; construct with New. Not safe for concurrent use.
type Sketch struct {
	k      int
	counts map[stream.Item]int64
	users  int64
	total  int64 // N: total number of elements across all users
	decs   int64 // number of decrement sweeps (line 9 condition fired)
}

// New returns an empty PAMG sketch with size parameter k. The stored key set
// can temporarily grow to k+m while a user's set is being absorbed, exactly
// as Algorithm 4 allows.
func New(k int) *Sketch {
	if k <= 0 {
		panic("pamg: k must be positive")
	}
	return &Sketch{k: k, counts: make(map[stream.Item]int64, k)}
}

// K returns the sketch size parameter.
func (s *Sketch) K() int { return s.k }

// TotalLen returns N, the total number of contributed elements.
func (s *Sketch) TotalLen() int64 { return s.total }

// Decrements returns how many decrement sweeps have run. Each sweep lowers
// the counter sum by at least k+1, so Decrements() <= TotalLen()/(k+1)
// (the error bound of Lemma 26).
func (s *Sketch) Decrements() int64 { return s.decs }

// ProcessUser absorbs one user's element set. The set must contain distinct
// elements; duplicates panic because they would silently break the
// sensitivity analysis (a duplicate increments the same counter twice).
func (s *Sketch) ProcessUser(set []stream.Item) {
	// Typical user sets are small (m ≤ 32 in every workload here), where a
	// quadratic scan beats allocating a set per user; large sets fall back
	// to a map so pathological m stays O(m).
	var seen map[stream.Item]struct{}
	if len(set) > 32 {
		seen = make(map[stream.Item]struct{}, len(set))
	}
	for i, x := range set {
		if x == 0 {
			panic("pamg: item 0 is reserved")
		}
		if seen != nil {
			if _, dup := seen[x]; dup {
				panic(fmt.Sprintf("pamg: duplicate element %d in user set", x))
			}
			seen[x] = struct{}{}
		} else {
			for _, y := range set[:i] {
				if y == x {
					panic(fmt.Sprintf("pamg: duplicate element %d in user set", x))
				}
			}
		}
		s.counts[x]++
		s.total++
	}
	s.users++
	if len(s.counts) > s.k {
		s.decs++
		for y, c := range s.counts {
			if c == 1 {
				delete(s.counts, y)
			} else {
				s.counts[y] = c - 1
			}
		}
	}
}

// Process absorbs a whole user-set stream.
func (s *Sketch) Process(ss stream.SetStream) {
	for _, set := range ss {
		s.ProcessUser(set)
	}
}

// ProcessUsers absorbs a batch of user sets in order; it is the batch
// entry point the dpmg.UserSketch.AddUsers API threads down, semantically
// identical to calling ProcessUser on each set.
func (s *Sketch) ProcessUsers(sets [][]stream.Item) {
	for _, set := range sets {
		s.ProcessUser(set)
	}
}

// Estimate returns the frequency estimate for x (0 if not stored). By
// Lemma 26 it lies in [f(x) - floor(N/(k+1)), f(x)].
func (s *Sketch) Estimate(x stream.Item) int64 { return s.counts[x] }

// Len returns the number of stored keys, at most k between user sets.
func (s *Sketch) Len() int { return len(s.counts) }

// Counters returns a copy of the counter table; all counters are positive.
func (s *Sketch) Counters() map[stream.Item]int64 {
	out := make(map[stream.Item]int64, len(s.counts))
	for x, c := range s.counts {
		out[x] = c
	}
	return out
}

// AppendAll appends the counter table to the given parallel columns in
// ascending key order — the input-independent release order of Section 5.2
// — and returns the extended slices: the flat extraction the Gaussian
// Sparse Histogram Mechanism releases.
func (s *Sketch) AppendAll(keys []stream.Item, vals []int64) ([]stream.Item, []int64) {
	keys, vals = slices.Grow(keys, len(s.counts)), slices.Grow(vals, len(s.counts))
	for _, x := range s.SortedKeys() {
		keys = append(keys, x)
		vals = append(vals, s.counts[x])
	}
	return keys, vals
}

// SortedKeys returns the stored keys in ascending order (input-independent
// release order, Section 5.2).
func (s *Sketch) SortedKeys() []stream.Item {
	keys := make([]stream.Item, 0, len(s.counts))
	for x := range s.counts {
		keys = append(keys, x)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// oneSided reports whether keys(lo) ⊆ keys(hi) and hi_i - lo_i ∈ {0,1}
// everywhere (with implicit zeros).
func oneSided(hi, lo map[stream.Item]int64) bool {
	for x := range lo {
		if _, ok := hi[x]; !ok {
			return false
		}
	}
	for x, h := range hi {
		d := h - lo[x]
		if d != 0 && d != 1 {
			return false
		}
	}
	return true
}
