package dpmg

import (
	"fmt"
	"sort"

	"dpmg/internal/core"
	"dpmg/internal/hist"
	"dpmg/internal/merge"
	"dpmg/internal/mg"
	"dpmg/internal/pamg"
	"dpmg/internal/stream"
)

// Item identifies a universe element; the universe is [1, d].
type Item = stream.Item

// Params are differential privacy parameters. Delta is ignored by the pure
// eps-DP release.
type Params = core.Params

// Histogram is a released frequency table: items absent from the map have
// estimate 0. Values are noisy and may exceed or undershoot true counts
// within the bounds documented on each release method.
type Histogram map[Item]float64

// Get returns the estimated frequency of x, 0 if x was not released.
func (h Histogram) Get(x Item) float64 { return h[x] }

// TopK returns the k items with the largest released estimates, in
// descending order of estimate (ties broken by smaller item).
func (h Histogram) TopK(k int) []Item {
	return hist.TopKEstimate(hist.Estimate(h), k)
}

// Items returns all released items in ascending order.
func (h Histogram) Items() []Item {
	out := make([]Item, 0, len(h))
	for x := range h {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Sketch is the paper-variant Misra-Gries sketch (Algorithm 1) ready for
// private release. Not safe for concurrent use.
type Sketch struct {
	inner *mg.Sketch
}

// NewSketch returns a sketch with k counters over the universe [1, d].
// Larger k means smaller sketch error (n/(k+1)) at 2k words of memory; the
// privacy noise does not grow with k.
func NewSketch(k int, d uint64) *Sketch {
	return &Sketch{inner: mg.New(k, d)}
}

// Update processes one stream element in amortized O(1) time.
func (s *Sketch) Update(x Item) { s.inner.Update(x) }

// UpdateBatch processes the elements of xs in order, semantically identical
// to calling Update on each. Use it when items already arrive aggregated
// (network ingest, log shipping): the whole batch runs on the sketch's flat
// hot path with no per-item call overhead and no allocation.
func (s *Sketch) UpdateBatch(xs []Item) { s.inner.UpdateBatch(xs) }

// Estimate returns the non-private estimate of x's frequency, within
// [f(x) - n/(k+1), f(x)]. Prefer Release for anything that leaves the
// trust boundary.
func (s *Sketch) Estimate(x Item) int64 { return s.inner.Estimate(x) }

// K returns the sketch size parameter.
func (s *Sketch) K() int { return s.inner.K() }

// N returns the number of processed elements.
func (s *Sketch) N() int64 { return s.inner.N() }

// ReleaseView snapshots the sketch for the unified release path: the full
// Algorithm 1 counter table (dummy and zero keys included) in ascending key
// order, under single-stream (Lemma 8) sensitivity.
func (s *Sketch) ReleaseView() (*ReleaseView, error) {
	keys, vals := s.inner.AppendAll(nil, nil)
	return &ReleaseView{
		Keys: keys,
		Vals: vals,
		Sens: Sensitivity{
			Class:    SensitivitySingleStream,
			K:        s.inner.K(),
			Universe: s.inner.Universe(),
		},
	}, nil
}

// Summary extracts the mergeable non-private summary (positive real-item
// counters only) for distributed aggregation; see MergeSummaries.
func (s *Sketch) Summary() (*MergeableSummary, error) {
	keys, vals := s.inner.AppendReal(nil, nil)
	sum, err := merge.FromSorted(s.inner.K(), keys, vals)
	if err != nil {
		return nil, err
	}
	return &MergeableSummary{inner: sum}, nil
}

// StandardSketch is a textbook Misra-Gries sketch (zero counters removed
// immediately). Its release uses the raised Section 5.1 threshold. Use this
// when interoperating with existing Misra-Gries implementations; otherwise
// prefer Sketch, whose threshold is lower.
type StandardSketch struct {
	inner *mg.StandardSketch
}

// NewStandardSketch returns a standard Misra-Gries sketch with k counters.
func NewStandardSketch(k int) *StandardSketch {
	return &StandardSketch{inner: mg.NewStandard(k)}
}

// Update processes one stream element.
func (s *StandardSketch) Update(x Item) { s.inner.Update(x) }

// Estimate returns the non-private estimate of x's frequency.
func (s *StandardSketch) Estimate(x Item) int64 { return s.inner.Estimate(x) }

// K returns the sketch size parameter.
func (s *StandardSketch) K() int { return s.inner.K() }

// ReleaseView snapshots the sketch for the unified release path:
// single-stream sensitivity with the Standard flag set, which routes the
// laplace mechanism onto the raised Section 5.1 threshold.
func (s *StandardSketch) ReleaseView() (*ReleaseView, error) {
	keys, vals := s.inner.AppendAll(nil, nil)
	return &ReleaseView{
		Keys: keys,
		Vals: vals,
		Sens: Sensitivity{
			Class:    SensitivitySingleStream,
			K:        s.inner.K(),
			Standard: true,
		},
	}, nil
}

// MergeableSummary is a non-private mergeable Misra-Gries summary
// (Section 7), stored flat: keys ascending with parallel positive counts.
// Merging is exact-memory-bounded: the aggregator never holds more than 2k
// counters.
type MergeableSummary struct {
	inner *merge.Summary
}

// NewMergeableSummary builds a summary directly from a counter table
// (at most k strictly positive counters survive; non-positive counters are
// dropped, and it errors if more than k remain). This is how deserialized
// or externally-aggregated counter tables enter the unified release path.
func NewMergeableSummary(k int, counts map[Item]int64) (*MergeableSummary, error) {
	inner, err := merge.FromCounters(k, 0, counts)
	if err != nil {
		return nil, err
	}
	return &MergeableSummary{inner: inner}, nil
}

// NewMergeableSummarySorted builds a summary from flat parallel columns —
// keys strictly ascending, counts strictly positive, at most k entries —
// without copying or building any map. This is the zero-copy entry point
// for aggregators that already hold sorted counters (the dpmg-server wraps
// its merged aggregate this way before dispatching to a registry
// mechanism). The summary borrows the slices; callers must not mutate them
// afterwards.
func NewMergeableSummarySorted(k int, keys []Item, counts []int64) (*MergeableSummary, error) {
	inner, err := merge.FromSorted(k, keys, counts)
	if err != nil {
		return nil, err
	}
	return &MergeableSummary{inner: inner}, nil
}

// NewReusableSummary returns an empty summary shell for SetSorted: a decode
// target a connection handler rebinds to fresh columns on every frame
// instead of allocating a summary per decode.
func NewReusableSummary() *MergeableSummary {
	return &MergeableSummary{inner: new(merge.Summary)}
}

// SetSorted rebinds the summary in place to borrow the given pre-sorted
// columns, with exactly NewMergeableSummarySorted's validation and zero
// allocations. The summary borrows the slices only until the next SetSorted;
// a consumer that retains summary state past that point must copy it, as
// Stream.FoldSummary does.
func (s *MergeableSummary) SetSorted(k int, keys []Item, counts []int64) error {
	if s.inner == nil {
		s.inner = new(merge.Summary)
	}
	return s.inner.SetSorted(k, keys, counts)
}

// K returns the summary size parameter.
func (s *MergeableSummary) K() int { return s.inner.K }

// Len returns the number of stored counters (at most k).
func (s *MergeableSummary) Len() int { return s.inner.Len() }

// Estimate returns the summarized frequency of x (0 if absent).
func (s *MergeableSummary) Estimate(x Item) int64 { return s.inner.Estimate(x) }

// Keys returns the summary's keys in strictly ascending order. The slice is
// borrowed — callers must not mutate it. Together with Counts it is the
// flat wire view shippers serialize (encoding.AppendSummary) without
// copying.
func (s *MergeableSummary) Keys() []Item { return s.inner.Keys() }

// Counts returns the positive counts parallel to Keys. The slice is
// borrowed — callers must not mutate it.
func (s *MergeableSummary) Counts() []int64 { return s.inner.Counts() }

// ReleaseView snapshots the summary for the unified release path: positive
// counters only, under merged (Corollary 18) sensitivity. The view is flat
// — it borrows the summary's already-sorted columns, so no map is rebuilt
// and no keys are re-sorted per release.
func (s *MergeableSummary) ReleaseView() (*ReleaseView, error) {
	return &ReleaseView{
		Keys: s.inner.Keys(),
		Vals: s.inner.Counts(),
		Sens: Sensitivity{Class: SensitivityMerged, K: s.inner.K},
	}, nil
}

// MergeSummaries folds the summaries as one merge node with the Agarwal et
// al. rule (add all counter vectors, subtract the (k+1)-th largest once);
// the result summarizes the concatenation of all inputs with error
// N/(k+1). It errors if a combined counter overflows int64. It allocates a
// fresh result; steady-state aggregation loops should hold a
// SummaryMerger.
func MergeSummaries(summaries ...*MergeableSummary) (*MergeableSummary, error) {
	if len(summaries) == 0 {
		return nil, fmt.Errorf("dpmg: no summaries")
	}
	inner := make([]*merge.Summary, len(summaries))
	for i, s := range summaries {
		inner[i] = s.inner
	}
	m, err := merge.MergeAll(inner)
	if err != nil {
		return nil, err
	}
	return &MergeableSummary{inner: m}, nil
}

// SummaryMerger merges summaries into reusable scratch: after the first
// call, MergeAll performs zero allocations. It is the steady-state variant
// of MergeSummaries for aggregation loops (merge a wave of edge summaries,
// release, repeat). Not safe for concurrent use.
type SummaryMerger struct {
	merger  merge.Merger
	scratch []*merge.Summary
	out     MergeableSummary
}

// NewSummaryMerger returns an empty merger; scratch grows on first use.
func NewSummaryMerger() *SummaryMerger { return &SummaryMerger{} }

// MergeAll merges the summaries as MergeSummaries does. The returned summary
// borrows the merger's scratch: it is valid until the next MergeAll call,
// and callers that retain it longer must merge into a fresh merger or use
// MergeSummaries instead. Passing a previous result of this merger back in
// as an input is safe — the merger detects the aliasing and moves to fresh
// scratch rather than overwrite an input mid-merge.
func (m *SummaryMerger) MergeAll(summaries []*MergeableSummary) (*MergeableSummary, error) {
	if len(summaries) == 0 {
		return nil, fmt.Errorf("dpmg: no summaries")
	}
	m.scratch = m.scratch[:0]
	for _, s := range summaries {
		m.scratch = append(m.scratch, s.inner)
	}
	res, err := m.merger.MergeAll(m.scratch)
	if err != nil {
		return nil, err
	}
	m.out = MergeableSummary{inner: res}
	return &m.out, nil
}

// MergeReleased merges two already-private releases (the untrusted
// aggregator setting): privacy is preserved by post-processing but errors
// accumulate per merge.
func MergeReleased(a, b Histogram, k int) Histogram {
	return Histogram(merge.MergeNoisy(hist.Estimate(a), hist.Estimate(b), k))
}

// UserSketch is the paper's Privacy-Aware Misra-Gries sketch (Section 8,
// Algorithm 4) for streams where each user contributes a set of up to m
// distinct items. Its sensitivity does not grow with m, so the Gaussian
// release noise is O(sqrt(k)·log/eps) rather than O(m/eps).
type UserSketch struct {
	inner *pamg.Sketch
	m     int
}

// NewUserSketch returns a user-set sketch with k counters accepting sets of
// at most m distinct items.
func NewUserSketch(k, m int) *UserSketch {
	if m <= 0 {
		panic("dpmg: m must be positive")
	}
	if m > k {
		panic("dpmg: m must be at most k (the sketch error is vacuous otherwise)")
	}
	return &UserSketch{inner: pamg.New(k), m: m}
}

// AddUser absorbs one user's distinct item set. It returns an error if the
// set is empty, oversized, or contains duplicates.
func (s *UserSketch) AddUser(set []Item) error {
	if err := (stream.SetStream{set}).Validate(s.m); err != nil {
		return err
	}
	s.inner.ProcessUser(set)
	return nil
}

// AddUsers absorbs a batch of user sets, validating every set before any
// of them is applied, so a bad set mid-batch cannot leave a half-ingested
// batch behind. It is otherwise equivalent to calling AddUser in order.
func (s *UserSketch) AddUsers(sets [][]Item) error {
	if err := (stream.SetStream(sets)).Validate(s.m); err != nil {
		return err
	}
	s.inner.ProcessUsers(sets)
	return nil
}

// Estimate returns the non-private estimate of x's user-level frequency,
// within [f(x) - N/(k+1), f(x)] for N the total number of contributed items.
func (s *UserSketch) Estimate(x Item) int64 { return s.inner.Estimate(x) }

// K returns the sketch size parameter.
func (s *UserSketch) K() int { return s.inner.K() }

// ReleaseView snapshots the sketch for the unified release path: the PAMG
// counter table under user-level (Theorem 30) sensitivity, for which only
// the gaussian mechanism is calibrated.
func (s *UserSketch) ReleaseView() (*ReleaseView, error) {
	keys, vals := s.inner.AppendAll(nil, nil)
	return &ReleaseView{
		Keys: keys,
		Vals: vals,
		Sens: Sensitivity{Class: SensitivityUserLevel, K: s.inner.K()},
	}, nil
}
