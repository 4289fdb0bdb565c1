// Package merge implements the Misra-Gries merging algorithm of Agarwal,
// Cormode, Huang, Phillips, Wei and Yi ("Mergeable summaries") that
// Section 7 of the paper builds on, together with the sensitivity facts the
// paper proves about it: merging preserves the "counters differ by at most
// one" structure of neighboring sketches (Lemma 17, Corollary 18), so a
// merged sketch can be released with noise calibrated to l1-sensitivity k
// or l2-sensitivity sqrt(k) regardless of how many merges happened.
//
// # Flat storage
//
// A Summary stores its counters as two parallel slices — keys in strictly
// ascending order and their positive counts — instead of a Go map. The
// ascending order is exactly the input-independent release order Section 5.2
// requires, so the release loops consume a summary without rebuilding or
// re-sorting anything, and adding counter vectors becomes a sorted-slice
// merge: no hashing, no map iteration, sequential memory access.
//
// # One merge, one subtraction
//
// MergeAll adds the inputs' counter vectors over a balanced tree of two-way
// merges, then subtracts the (k+1)-th largest sum once, at the root. Each
// tree level is one pass that compares each emitted key once, so a fold
// (two inputs) is a single pass and a 4-shard release two; the sums are
// exact integer additions, so the tree's output is the same as any other
// order of adding up. The (k+1)-th largest value comes from a quickselect whose depth is
// bounded: a crafted set of counts cannot make it quadratic. A Merger
// reuses its scratch across calls, so the steady-state aggregation loop of
// a trusted aggregator (merge, release, repeat) performs zero allocations
// in the merge step. The retired map-based implementation survives as the
// executable specification in ref_test.go that differential and fuzz tests
// check the flat code against.
package merge

import (
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

	"dpmg/internal/stream"
)

// Summary is a mergeable Misra-Gries summary: at most k strictly positive
// counters, stored flat as ascending keys with parallel counts. It is the
// Section 7 object of study — zero-count keys are not stored (unlike the
// Algorithm 1 sketch). Construct one with FromCounters or FromSorted; the
// zero value is not usable.
type Summary struct {
	K    int
	keys []stream.Item // strictly ascending
	vals []int64       // parallel to keys, strictly positive
}

// FromCounters builds a Summary from a counter table, dropping non-positive
// counters and any dummy keys above the universe bound (pass universe = 0 to
// keep all keys). It errors if more than k positive counters remain.
func FromCounters(k int, universe uint64, counts map[stream.Item]int64) (*Summary, error) {
	if k <= 0 {
		return nil, fmt.Errorf("merge: k must be positive")
	}
	keys := make([]stream.Item, 0, len(counts))
	for x, c := range counts {
		if c <= 0 {
			continue
		}
		if universe > 0 && uint64(x) > universe {
			continue
		}
		keys = append(keys, x)
	}
	if len(keys) > k {
		return nil, fmt.Errorf("merge: %d positive counters exceed k=%d", len(keys), k)
	}
	slices.Sort(keys)
	vals := make([]int64, len(keys))
	for i, x := range keys {
		vals[i] = counts[x]
	}
	return &Summary{K: k, keys: keys, vals: vals}, nil
}

// FromSorted wraps pre-sorted parallel counter columns as a Summary without
// copying: keys must be strictly ascending, counts strictly positive, and at
// most k entries. The summary borrows the slices; callers must not mutate
// them afterwards. This is the zero-copy entry point for flat extraction
// paths (sharded shard summaries, the wire decoder).
func FromSorted(k int, keys []stream.Item, counts []int64) (*Summary, error) {
	s := new(Summary)
	if err := s.SetSorted(k, keys, counts); err != nil {
		return nil, err
	}
	return s, nil
}

// SetSorted rebinds s in place to borrow the given pre-sorted columns, with
// exactly FromSorted's validation and zero allocations. It exists for
// reusable decode targets — the aggregation tier's per-connection summary
// scratch — where a fresh header per decode would be the last allocation
// standing. The previous binding is discarded; callers must not publish s
// anywhere a reader could still hold it across a rebind.
func (s *Summary) SetSorted(k int, keys []stream.Item, counts []int64) error {
	if k <= 0 {
		return fmt.Errorf("merge: k must be positive")
	}
	if len(keys) != len(counts) {
		return fmt.Errorf("merge: %d keys vs %d counts", len(keys), len(counts))
	}
	if len(keys) > k {
		return fmt.Errorf("merge: %d positive counters exceed k=%d", len(keys), k)
	}
	for i, c := range counts {
		if c <= 0 {
			return fmt.Errorf("merge: non-positive counter %d for key %d", c, keys[i])
		}
		if i > 0 && keys[i] <= keys[i-1] {
			return fmt.Errorf("merge: keys not strictly ascending at %d", i)
		}
	}
	s.K, s.keys, s.vals = k, keys, counts
	return nil
}

// Len returns the number of stored counters (at most k).
func (s *Summary) Len() int { return len(s.keys) }

// Keys returns the stored keys in strictly ascending order. The slice is
// the summary's backing storage: treat it as read-only.
func (s *Summary) Keys() []stream.Item { return s.keys }

// Counts returns the counts parallel to Keys. The slice is the summary's
// backing storage: treat it as read-only.
func (s *Summary) Counts() []int64 { return s.vals }

// CountsMap materializes the counter table as a map, for callers that need
// associative lookups (structure checks, tests). It allocates; the release
// and merge hot paths never call it.
func (s *Summary) CountsMap() map[stream.Item]int64 {
	out := make(map[stream.Item]int64, len(s.keys))
	for i, x := range s.keys {
		out[x] = s.vals[i]
	}
	return out
}

// Clone returns a deep copy with its own backing storage.
func (s *Summary) Clone() *Summary {
	return &Summary{
		K:    s.K,
		keys: slices.Clone(s.keys),
		vals: slices.Clone(s.vals),
	}
}

// CloneCompact returns a deep copy like Clone, but lays both columns in a
// single backing array (two allocations — header and block — against
// Clone's three). The root's fold path publishes one fresh immutable
// aggregate per fold for lock-free readers; the compact layout is what
// keeps that publish at two allocations per fold. The count column is the
// block's second half viewed as []int64: stream.Item and int64 are both
// 8-byte fixed-width integers, and the view shares the keys column's
// backing array, so the block stays reachable for as long as either column
// is.
func (s *Summary) CloneCompact() *Summary {
	n := len(s.keys)
	if n == 0 {
		return &Summary{K: s.K}
	}
	block := make([]stream.Item, 2*n)
	copy(block, s.keys)
	vals := unsafe.Slice((*int64)(unsafe.Pointer(&block[n])), n)
	copy(vals, s.vals)
	return &Summary{K: s.K, keys: block[:n:n], vals: vals}
}

// Estimate returns the summarized frequency of x (0 if absent) by binary
// search over the sorted keys.
func (s *Summary) Estimate(x stream.Item) int64 {
	if i, ok := slices.BinarySearch(s.keys, x); ok {
		return s.vals[i]
	}
	return 0
}

// Merge combines two size-k summaries into one size-k summary using the
// Agarwal et al. algorithm: add the counter vectors, subtract the (k+1)-th
// largest value from every counter, and drop non-positive counters. The
// result summarizes the concatenated input with error at most N/(k+1) for N
// the combined stream length (Lemma 29 via [1]). It allocates a fresh
// result; aggregation loops that merge repeatedly should hold a Merger.
func Merge(a, b *Summary) (*Summary, error) {
	var m Merger
	out, err := m.MergeAll([]*Summary{a, b})
	if err != nil {
		return nil, err
	}
	return out.Clone(), nil
}

// MergeAll merges the summaries as one Agarwal et al. merge node: all
// counter vectors are added and the (k+1)-th largest combined value is
// subtracted once. Unlike a fold of pairwise Merge calls, which subtracts
// at every step, the result summarizes the concatenation of all inputs
// with error at most N/(k+1) (the Agarwal et al. bound holds for any merge
// tree, the single multi-way node included), never overestimates, and
// preserves the Corollary 18 neighbor structure; individual counters may
// differ from the fold's in either direction within those bounds. It
// errors on an empty input, mismatched sizes, or a combined counter that
// overflows int64. It allocates a fresh result; steady-state aggregation
// loops should hold a Merger.
func MergeAll(summaries []*Summary) (*Summary, error) {
	var m Merger
	out, err := m.MergeAll(summaries)
	if err != nil {
		return nil, err
	}
	return out.Clone(), nil
}

// Merger merges summaries into reusable scratch. After the first call its
// MergeAll performs zero allocations, which makes it the right tool for the
// trusted-aggregator steady state (merge shard or node summaries, release,
// repeat). A Merger is not safe for concurrent use.
type Merger struct {
	// keys and vals each hold two halves as long as the inputs' total: the
	// levels of the merge tree alternate between the halves, and the result
	// lands in the first. Two inputs take a single merge, so then keys needs
	// no second half; the second half of vals is also the selection scratch.
	keys []stream.Item
	vals []int64
	out  Summary // result header returned by MergeAll
}

// MergeAll merges the summaries (see the package function of the same name
// for semantics). The returned summary borrows the Merger's scratch: it is
// valid until the next MergeAll call, and callers that retain it longer
// must Clone it. Feeding a previous result of this Merger back in as an
// input, at any position, is safe — the Merger detects that the input lies
// in its scratch and moves to fresh scratch (one reallocation) rather than
// overwrite an input it is still reading. On error nothing but the scratch
// has changed.
func (m *Merger) MergeAll(summaries []*Summary) (*Summary, error) {
	if len(summaries) == 0 {
		return nil, fmt.Errorf("merge: no summaries")
	}
	k := summaries[0].K
	total := 0
	for _, s := range summaries {
		if s.K != k {
			return nil, fmt.Errorf("merge: size mismatch k=%d vs k=%d", k, s.K)
		}
		total += s.Len()
		if within(m.keys, s.keys) || within(m.vals, s.vals) {
			// A previous result: leave the arrays to it and start fresh.
			m.keys, m.vals = nil, nil
		}
	}
	nk := total
	if len(summaries) > 2 {
		nk = 2 * total
	}
	if cap(m.keys) < nk {
		m.keys = make([]stream.Item, nk)
	}
	if cap(m.vals) < 2*total {
		m.vals = make([]int64, 2*total)
	}
	first := cols{m.keys[:total], m.vals[:total]}
	second := cols{m.keys[total:nk], m.vals[total : 2*total]}
	sum, ok := addTree(summaries, first, second, 0)
	if !ok {
		return nil, fmt.Errorf("merge: a combined counter overflows int64")
	}
	if len(summaries) == 1 {
		n := copy(first.keys, sum.keys)
		copy(first.vals, sum.vals)
		sum = cols{first.keys[:n], first.vals[:n]}
	}
	// Subtract the (k+1)-th largest sum and compact in place.
	keys, vals := sum.keys, sum.vals
	if len(vals) > k {
		sel := second.vals[:len(vals)]
		copy(sel, vals)
		sub := KPlusFirstLargest(sel, k)
		j := 0
		for i, c := range vals {
			if c > sub {
				keys[j], vals[j] = keys[i], c-sub
				j++
			}
		}
		keys, vals = keys[:j], vals[:j]
	}
	m.out = Summary{K: k, keys: keys, vals: vals}
	return &m.out, nil
}

// within reports whether s starts inside buf's backing array.
func within[T any](buf, s []T) bool {
	if len(s) == 0 || cap(buf) == 0 {
		return false
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return p >= base && p < base+uintptr(cap(buf))*unsafe.Sizeof(s[0])
}

// cols is a counter vector as parallel key and count columns.
type cols struct {
	keys []stream.Item
	vals []int64
}

// addTree adds the counter vectors of in over a balanced tree of two-way
// merges; ok is false if a sum overflows int64. A lone input is its own
// sum. Otherwise the sum is written to dst from index off and the two
// subtrees write theirs to other, so no merge writes the buffer it reads.
// A subtree over inputs of total length n writes only within [off, off+n)
// of either buffer, and the right subtree starts where the left subtree's
// sum ends, so each buffer needs only the inputs' total length.
func addTree(in []*Summary, dst, other cols, off int) (sum cols, ok bool) {
	if len(in) == 1 {
		return cols{in[0].keys, in[0].vals}, true
	}
	mid := len(in) / 2
	l, ok := addTree(in[:mid], other, dst, off)
	if !ok {
		return cols{}, false
	}
	r, ok := addTree(in[mid:], other, dst, off+len(l.keys))
	if !ok {
		return cols{}, false
	}
	n, ok := merge2(l, r, dst.keys[off:], dst.vals[off:])
	return cols{dst.keys[off : off+n], dst.vals[off : off+n]}, ok
}

// merge2 writes the sum of the counter vectors a and b to keys and vals,
// which must have room for both, and returns its length. ok is false if a
// sum overflows int64: counts are positive, so a wrapped sum is negative.
func merge2(a, b cols, keys []stream.Item, vals []int64) (n int, ok bool) {
	ak, av := a.keys, a.vals[:len(a.keys)]
	bk, bv := b.keys, b.vals[:len(b.keys)]
	keys = keys[:len(ak)+len(bk)]
	vals = vals[:len(keys)]
	i, j := 0, 0
	for i < len(ak) && j < len(bk) {
		x, y := ak[i], bk[j]
		switch {
		case x < y:
			keys[n], vals[n] = x, av[i]
			i++
		case x > y:
			keys[n], vals[n] = y, bv[j]
			j++
		default:
			s := av[i] + bv[j]
			if s < 0 {
				return 0, false
			}
			keys[n], vals[n] = x, s
			i++
			j++
		}
		n++
	}
	copy(vals[n:], av[i:])
	n += copy(keys[n:], ak[i:])
	copy(vals[n:], bv[j:])
	n += copy(keys[n:], bk[j:])
	return n, true
}

// KPlusFirstLargest returns the (k+1)-th largest of vals — the value an
// Agarwal et al. merge subtracts — or 0 when vals holds at most k values
// (then nothing is subtracted). It reorders vals in place: callers pass
// scratch.
func KPlusFirstLargest(vals []int64, k int) int64 {
	if len(vals) <= k {
		return 0
	}
	v, _ := selectNth(vals, len(vals)-1-k)
	return v
}

// selectNth returns the value at index nth of a sorted copy of a, reordering
// a. It is a quickselect: each round orders the first, middle and last
// values, partitions around their median Hoare-style — equal values stop
// both scans, so runs of equal counts split evenly — and keeps the side
// holding nth. Short ranges are finished by insertion sort. After
// 2·bits.Len(len(a)) rounds it sorts the range still left and reports
// fellBack: that bounds the cost at O(n log n) for counts crafted to defeat
// the pivot rule.
func selectNth(a []int64, nth int) (v int64, fellBack bool) {
	lo, hi := 0, len(a)
	for rounds := 2 * bits.Len(uint(len(a))); hi-lo > 12; rounds-- {
		if rounds == 0 {
			slices.Sort(a[lo:hi])
			return a[nth], true
		}
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi-1] < a[mid] {
			a[hi-1], a[mid] = a[mid], a[hi-1]
			if a[mid] < a[lo] {
				a[mid], a[lo] = a[lo], a[mid]
			}
		}
		// a[lo] <= p <= a[hi-1] stop the scans at the ends.
		p := a[mid]
		i, j := lo, hi-1
		for {
			for i++; a[i] < p; i++ {
			}
			for j--; a[j] > p; j-- {
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
		}
		// a[lo:j+1] <= p <= a[i:hi], and anything between equals p.
		switch {
		case nth < min(i, j+1):
			hi = min(i, j+1)
		case nth >= max(i, j+1):
			lo = max(i, j+1)
		default:
			return p, false
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
	return a[nth], false
}

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
