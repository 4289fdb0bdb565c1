package mg

import (
	"fmt"
	"slices"
	"sort"

	"dpmg/internal/stream"
)

// StandardSketch is the textbook Misra-Gries sketch: at most k stored keys,
// and a key is dropped the moment its counter reaches zero. Its frequency
// estimates are identical to Sketch's (the paper notes this follows by
// induction), but neighboring sketches can differ in up to k keys, so
// privatizing it needs the raised Section 5.1 threshold.
type StandardSketch struct {
	k      int
	counts map[stream.Item]int64
	n      int64
	decs   int64
}

// NewStandard returns an empty standard Misra-Gries sketch with k counters.
// The standard variant needs no universe bound: it never materializes dummy
// keys.
func NewStandard(k int) *StandardSketch {
	if k <= 0 {
		panic("mg: k must be positive")
	}
	return &StandardSketch{k: k, counts: make(map[stream.Item]int64, k)}
}

// K returns the sketch size parameter.
func (s *StandardSketch) K() int { return s.k }

// N returns the number of processed elements.
func (s *StandardSketch) N() int64 { return s.n }

// Decrements returns how many times the decrement-all branch ran.
func (s *StandardSketch) Decrements() int64 { return s.decs }

// Update processes one stream element.
func (s *StandardSketch) Update(x stream.Item) {
	if x == 0 {
		panic(fmt.Sprint("mg: item 0 is reserved"))
	}
	s.n++
	if _, ok := s.counts[x]; ok {
		s.counts[x]++
		return
	}
	if len(s.counts) < s.k {
		s.counts[x] = 1
		return
	}
	s.decs++
	for y, c := range s.counts {
		if c == 1 {
			delete(s.counts, y)
		} else {
			s.counts[y] = c - 1
		}
	}
}

// Process feeds every element of str through Update.
func (s *StandardSketch) Process(str stream.Stream) {
	for _, x := range str {
		s.Update(x)
	}
}

// Estimate returns the frequency estimate for x (0 if not stored).
func (s *StandardSketch) Estimate(x stream.Item) int64 { return s.counts[x] }

// Len returns the number of stored keys (between 0 and k).
func (s *StandardSketch) Len() int { return len(s.counts) }

// Counters returns a copy of the counter table. All stored counters are
// strictly positive in this variant.
func (s *StandardSketch) Counters() map[stream.Item]int64 {
	out := make(map[stream.Item]int64, len(s.counts))
	for x, c := range s.counts {
		out[x] = c
	}
	return out
}

// AppendAll appends the counter table to the given parallel columns in
// ascending key order and returns the extended slices: the flat extraction
// the Section 5.1 release loop runs on, like Sketch.AppendAll.
func (s *StandardSketch) AppendAll(keys []stream.Item, vals []int64) ([]stream.Item, []int64) {
	keys, vals = slices.Grow(keys, len(s.counts)), slices.Grow(vals, len(s.counts))
	for _, x := range s.SortedKeys() {
		keys = append(keys, x)
		vals = append(vals, s.counts[x])
	}
	return keys, vals
}

// SortedKeys returns the stored keys in ascending order.
func (s *StandardSketch) SortedKeys() []stream.Item {
	keys := make([]stream.Item, 0, len(s.counts))
	for x := range s.counts {
		keys = append(keys, x)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
