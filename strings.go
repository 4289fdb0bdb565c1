package dpmg

import (
	"fmt"
	"sort"

	"dpmg/internal/stream"
)

// StringSketch wraps Sketch with a string-to-item dictionary so applications
// can stream string keys (URLs, flow IDs, search queries) directly. The
// universe capacity d must be fixed up front because the underlying sketch
// reserves items above d as dummy keys; Update fails once d distinct
// strings have been seen.
type StringSketch struct {
	sketch *Sketch
	dict   *stream.Dictionary
	d      uint64
}

// NewStringSketch returns a string-keyed sketch with k counters and
// capacity for d distinct strings.
func NewStringSketch(k int, d uint64) *StringSketch {
	return &StringSketch{sketch: NewSketch(k, d), dict: stream.NewDictionary(), d: d}
}

// Update processes one string element. It returns an error when the
// dictionary capacity d would be exceeded.
func (s *StringSketch) Update(name string) error {
	if _, ok := s.dict.Lookup(name); !ok && uint64(s.dict.Size()) >= s.d {
		return fmt.Errorf("dpmg: dictionary capacity %d exhausted", s.d)
	}
	s.sketch.Update(s.dict.Intern(name))
	return nil
}

// UpdateBatch processes the elements of names in order, semantically
// identical to calling Update on each — except that the dictionary capacity
// is checked for the whole batch up front, so a batch that would overflow d
// is rejected in full rather than half-applied. The interned batch then
// runs on the sketch's flat hot path with no per-item call overhead.
func (s *StringSketch) UpdateBatch(names []string) error {
	fresh := make(map[string]struct{})
	for _, name := range names {
		if _, ok := s.dict.Lookup(name); !ok {
			fresh[name] = struct{}{}
		}
	}
	if uint64(s.dict.Size())+uint64(len(fresh)) > s.d {
		return fmt.Errorf("dpmg: batch of %d new strings would exceed dictionary capacity %d",
			len(fresh), s.d)
	}
	items := make([]Item, len(names))
	for i, name := range names {
		items[i] = s.dict.Intern(name)
	}
	s.sketch.UpdateBatch(items)
	return nil
}

// Estimate returns the non-private estimate for name (0 if never interned).
func (s *StringSketch) Estimate(name string) int64 {
	it, ok := s.dict.Lookup(name)
	if !ok {
		return 0
	}
	return s.sketch.Estimate(it)
}

// StringCount is one released (name, estimate) pair.
type StringCount struct {
	Name  string
	Count float64
}

// ReleaseView snapshots the underlying item sketch for the unified release
// path (single-stream sensitivity); released items map back to strings via
// ReleaseTop.
func (s *StringSketch) ReleaseView() (*ReleaseView, error) {
	return s.sketch.ReleaseView()
}

// ReleaseTop privatizes the sketch through the unified release path and
// maps released items back to strings, sorted by descending estimate (ties
// by earlier-interned string). All Release options apply — mechanism
// selection, seeding, accountant metering, and a top-k cut:
//
//	top, err := s.ReleaseTop(p, dpmg.WithTopK(10), dpmg.WithAccountant(acct))
func (s *StringSketch) ReleaseTop(p Params, opts ...ReleaseOption) ([]StringCount, error) {
	h, err := Release(s, p, opts...)
	if err != nil {
		return nil, err
	}
	type pair struct {
		x Item
		v float64
	}
	pairs := make([]pair, 0, len(h))
	for x, v := range h {
		pairs = append(pairs, pair{x, v})
	}
	// One descending sort of the released pairs (ties broken by smaller
	// item, i.e. earlier interned), replacing the old full TopK re-ranking.
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].v != pairs[j].v {
			return pairs[i].v > pairs[j].v
		}
		return pairs[i].x < pairs[j].x
	})
	out := make([]StringCount, len(pairs))
	for i, pr := range pairs {
		out[i] = StringCount{Name: s.dict.Name(pr.x), Count: pr.v}
	}
	return out, nil
}
