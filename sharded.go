package dpmg

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"dpmg/internal/encoding"
	"dpmg/internal/merge"
	"dpmg/internal/mg"
)

// ShardedSketch ingests a stream from many goroutines: items are hashed to
// one of `shards` independent Misra-Gries sketches, each guarded by its own
// mutex, so concurrent Update calls rarely contend. At release time the
// shard summaries are merged with the Agarwal et al. algorithm — every item
// lives in exactly one shard, so the merge is a disjoint union and the
// combined summary keeps the N/(k+1) error bound over the whole stream.
//
// The merged summary no longer has the Lemma 8 single-stream structure, so
// releases use the Gaussian Sparse Histogram Mechanism with l = k
// (Corollary 18 justifies it for merged summaries), paying sqrt(k)-scaled
// noise. If the O(1/eps) noise of Sketch.Release matters more than ingest
// parallelism, feed a single Sketch from one goroutine instead.
//
// # Consistency model
//
// Every method is safe for concurrent use. Mutations are linearizable per
// shard — two updates to the same item are always ordered — but there is no
// global ordering across shards: a snapshot taken while writers are running
// (NExact, ReleaseView, Summary) locks the shards one at a time in
// ascending shard order, so it observes each shard at a slightly different
// instant. Concurrent updates may or may not be included, exactly as if the
// snapshot had raced them on a single sketch; updates completed before the
// snapshot began are always included, and per-shard prefix integrity (shard
// i's state is a prefix of its update stream) always holds.
//
// # Published read path
//
// Estimate and N serve from an immutable published view — flat sorted
// key/count columns behind an atomic pointer, the same representation as a
// merged summary — so high-QPS readers cost one atomic load plus a binary
// search: no mutexes, no allocations, and no lock time stolen from ingest.
// The view is republished off the hot path: piggybacked on release-time
// summarization (ReleaseView, Summary) and by a write-volume threshold
// (every PublishEvery ingested items a background fold runs, gated so at
// most one is in flight). Reads are therefore *bounded-stale*: every
// published value was exact at some publish point, and at most
// PublishEvery items (plus one in-flight fold) can be absorbed since.
// The view is never nil: construction installs an empty view (exact for
// the empty sketch), and a sketch rebuilt from restored state publishes
// synchronously before serving, so readers never mix locked fallback
// values with view values — all published reads are ordered by the
// release mutex that serializes view installs, which is what makes
// per-item monotonicity hold. EstimateExact and NExact always read the
// live tier. The published view is a read-only output: releases,
// summaries, snapshots, and the wire never read it (the Section 5.2
// release-order discipline is untouched).
type ShardedSketch struct {
	k      int
	d      uint64
	shards []shard
	// mask is len(shards)-1 when that is a power of two above one, so
	// shardOf reduces its hash with an AND (h&(n-1) == h%n exactly); zero
	// for every other count, which keeps the modulo.
	mask uint64

	// Published read snapshot (see "Published read path" above). pending
	// counts items ingested since the last publish; publishing is gated by
	// publishing so at most one background fold runs at a time. total is
	// the lifetime item count maintained on the ingest path: comparing it
	// to the published view's n tells a reader whether the view already
	// covers every ingested item (the view is then exact, not just
	// bounded-stale) without taking any shard lock.
	pub        atomic.Pointer[publishedView]
	pending    atomic.Int64
	total      atomic.Int64
	pubEvery   int64
	publishing atomic.Bool

	// The release tier merges shard summaries through reusable scratch,
	// guarded by relMu so concurrent releases do not race on it.
	relMu   sync.Mutex
	merger  merge.Merger
	sums    []*merge.Summary
	sumKeys [][]Item
	sumVals [][]int64
	sumN    []int64
}

// publishedView is one immutable epoch of the read path: merged summary
// columns plus the total element count, all captured under the shard locks
// of a single fold. Readers hold only the atomic pointer; a newer publish
// replaces the pointer and old views are garbage collected once the last
// reader drops them (RCU by garbage collector).
type publishedView struct {
	keys []Item
	vals []int64
	n    int64
}

// DefaultPublishEvery is the write-volume republish threshold when none is
// configured: high enough that the background fold costs well under 1% of
// ingest throughput, low enough that dashboards lag by at most one small
// batch of a busy stream.
const DefaultPublishEvery = 1 << 16

// shard is one mutex-guarded sketch, padded so that neighboring shards'
// mutexes never share a cache line: under concurrent ingest the mutex word
// is bounced between cores on every acquisition, and without padding one
// shard's traffic would evict its neighbors' lines too (false sharing).
type shard struct {
	mu sync.Mutex
	sk *mg.Sketch
	_  [64 - 16]byte
}

// batchScratch holds the counting-sort state UpdateBatch needs; pooled so
// steady-state batch ingest performs zero allocations. ids is the shard of
// each item, computed once in the routing pass and read back by the scatter
// pass; maxShards keeps every shard id inside a uint16.
type batchScratch struct {
	counts  []int
	ids     []uint16
	grouped []Item
}

// maxShards is the largest shard count, the same ceiling the snapshot wire
// format puts on a stream.
const maxShards = 1 << 16

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// NewShardedSketch returns a sketch with `shards` shards of k counters each
// over the universe [1, d].
func NewShardedSketch(shards, k int, d uint64) *ShardedSketch {
	s := newShardedSketch(shards, k, d)
	for i := range s.shards {
		s.shards[i].sk = mg.New(k, d)
	}
	return s
}

// newShardedSketch is the one constructor behind NewShardedSketch and the
// restore path (shardedFromWires): everything but the shard sketches, which
// the caller installs before the sketch is used — fresh ones, or restored
// ones without a throwaway fresh table first.
func newShardedSketch(shards, k int, d uint64) *ShardedSketch {
	if shards <= 0 {
		panic("dpmg: shards must be positive")
	}
	if shards > maxShards {
		panic(fmt.Sprintf("dpmg: shards must be at most %d", maxShards))
	}
	s := &ShardedSketch{
		k:        k,
		d:        d,
		shards:   make([]shard, shards),
		pubEvery: DefaultPublishEvery,
		sums:     make([]*merge.Summary, shards),
		sumKeys:  make([][]Item, shards),
		sumVals:  make([][]int64, shards),
		sumN:     make([]int64, shards),
	}
	if shards&(shards-1) == 0 {
		s.mask = uint64(shards - 1)
	}
	// Install the initial (empty) view so the read path never falls back
	// to the locked walk: mixing fallback reads with view reads would let
	// an in-flight background fold install a view staler than values
	// already served, breaking per-item monotonicity. The empty view is
	// exact for a fresh sketch.
	s.pub.Store(&publishedView{})
	return s
}

// SetPublishEvery tunes the write-volume republish threshold: after every
// n ingested items a background fold republishes the read view. n <= 0
// disables volume-triggered publishing (release-time piggybacking and
// explicit Publish calls still refresh the view). Call before ingest
// starts; the threshold is not synchronized with concurrent writers.
func (s *ShardedSketch) SetPublishEvery(n int64) {
	s.pubEvery = n
}

// Update processes one stream element; safe for concurrent use. It panics
// if x is outside [1, universe], before any lock is taken.
func (s *ShardedSketch) Update(x Item) {
	s.checkItem(x)
	sh := &s.shards[s.shardOf(x)]
	sh.mu.Lock()
	sh.sk.Update(x)
	sh.mu.Unlock()
	s.noteIngest(1)
}

// checkItem panics if x is outside [1, universe]. Update and UpdateBatch
// call it on every item before they take a shard mutex: the shard sketch
// panics on such an item too, but it would do so under the mutex, with
// the earlier items of the batch applied, and a caller that recovers (as
// net/http handlers do) would find the shard locked for good.
func (s *ShardedSketch) checkItem(x Item) {
	if x == 0 || uint64(x) > s.d {
		panic(fmt.Sprintf("dpmg: item %d outside universe [1,%d]", x, s.d))
	}
}

// noteIngest advances the publish-pending counter and, when the threshold
// is crossed, kicks off one background fold. The CAS gate keeps at most
// one fold in flight so a storm of batches cannot pile up publishers; the
// counter is reset by the publish itself, which bounds staleness at
// pubEvery items plus whatever lands while the fold runs.
func (s *ShardedSketch) noteIngest(n int64) {
	s.total.Add(n)
	if s.pubEvery <= 0 {
		return
	}
	if s.pending.Add(n) < s.pubEvery {
		return
	}
	if s.publishing.CompareAndSwap(false, true) {
		go func() {
			defer s.publishing.Store(false)
			// The fold reads current shard state, so items ingested after
			// the trigger are included — staleness only accrues afterwards.
			_ = s.Publish()
		}()
	}
}

// UpdateBatch processes the elements of xs; safe for concurrent use and
// semantically identical to calling Update on each element (every shard
// sees its items in stream order, and items in different shards commute —
// they touch disjoint sketches). Items are first grouped by shard so each
// shard's mutex is taken once per batch instead of once per item, which is
// where the batch API pays off: under contention the lock traffic drops by
// the batch size, and each shard then runs its whole group on the flat
// sketch's hot path. The grouping scratch is pooled, so steady-state batch
// ingest allocates nothing. It panics if any item is outside [1, universe],
// before any lock is taken and with no item of the batch applied.
func (s *ShardedSketch) UpdateBatch(xs []Item) {
	if len(xs) == 0 {
		return
	}
	nsh := len(s.shards)
	if nsh == 1 {
		for _, x := range xs {
			s.checkItem(x)
		}
		sh := &s.shards[0]
		sh.mu.Lock()
		sh.sk.UpdateBatch(xs)
		sh.mu.Unlock()
		s.noteIngest(int64(len(xs)))
		return
	}
	sc := batchScratchPool.Get().(*batchScratch)
	if cap(sc.counts) < nsh+1 {
		sc.counts = make([]int, nsh+1)
	}
	counts := sc.counts[:nsh+1]
	for i := range counts {
		counts[i] = 0
	}
	if cap(sc.grouped) < len(xs) {
		sc.grouped = make([]Item, len(xs))
	}
	grouped := sc.grouped[:len(xs)]
	if cap(sc.ids) < len(xs) {
		sc.ids = make([]uint16, len(xs))
	}
	ids := sc.ids[:len(xs)]
	// Counting sort by shard, order-preserving within a shard: the routing
	// pass validates and hashes each item once, the scatter pass replays
	// the recorded shard ids.
	for i, x := range xs {
		s.checkItem(x)
		id := s.shardOf(x)
		ids[i] = uint16(id)
		counts[id+1]++
	}
	for i := 1; i <= nsh; i++ {
		counts[i] += counts[i-1]
	}
	next := counts[:nsh]
	for i, x := range xs {
		id := ids[i]
		grouped[next[id]] = x
		next[id]++
	}
	start := 0
	for i := 0; i < nsh; i++ {
		end := next[i]
		if end == start {
			continue
		}
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.sk.UpdateBatch(grouped[start:end])
		sh.mu.Unlock()
		start = end
	}
	batchScratchPool.Put(sc)
	s.noteIngest(int64(len(xs)))
}

// shardOf routes items to shards with a fixed multiplicative hash, so the
// routing is input-independent (the same requirement the eviction order has:
// nothing about the stream history may influence structure placement).
func (s *ShardedSketch) shardOf(x Item) int {
	h := (uint64(x) + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	h ^= h >> 32
	if s.mask != 0 {
		return int(h & s.mask)
	}
	return int(h % uint64(len(s.shards)))
}

// N returns the total number of processed elements as of the latest
// published view — one atomic load, no locks (see "Published read path":
// bounded-stale, at most PublishEvery items plus one in-flight fold
// behind). The view is never nil — construction installs an empty view.
// Use NExact when the call must observe every completed update.
func (s *ShardedSketch) N() int64 {
	if p := s.pub.Load(); p != nil {
		return p.n
	}
	return s.NExact()
}

// NExact returns the total number of processed elements across shards,
// read from the live tier. The shards are read one at a time in ascending
// shard order (see the consistency model above): the total is exact once
// writers have quiesced, and otherwise includes every update that
// completed before the call began.
func (s *ShardedSketch) NExact() int64 {
	var n int64
	for i := range s.shards {
		s.shards[i].mu.Lock()
		n += s.shards[i].sk.N()
		s.shards[i].mu.Unlock()
	}
	return n
}

// Estimate returns the non-private estimate for x from the latest
// published view — an atomic load plus a binary search, no locks, no
// allocations. Published estimates are merged-summary estimates: they
// never overestimate and obey the merged N/(k+1) bound at their publish
// point, and they lag the live tier by at most PublishEvery items plus one
// in-flight fold. The view is never nil — construction installs an empty
// view. Use EstimateExact when freshness matters more than read
// throughput.
func (s *ShardedSketch) Estimate(x Item) int64 {
	if p := s.pub.Load(); p != nil {
		if i, ok := slices.BinarySearch(p.keys, x); ok {
			return p.vals[i]
		}
		return 0
	}
	return s.EstimateExact(x)
}

// EstimateExact returns the non-private estimate for x from its shard's
// live counters, taking the shard mutex. This is the per-shard Fact 7
// estimate, fresh as of this call.
func (s *ShardedSketch) EstimateExact(x Item) int64 {
	sh := &s.shards[s.shardOf(x)]
	sh.mu.Lock()
	est := sh.sk.Estimate(x)
	sh.mu.Unlock()
	return est
}

// Publish folds the shards and installs a fresh published view for the
// lock-free read path, returning after the view is visible. Reads never
// require calling this — the view refreshes on release-time summarization
// and every PublishEvery ingested items — but callers that just finished a
// known write burst can force freshness.
func (s *ShardedSketch) Publish() error {
	s.relMu.Lock()
	defer s.relMu.Unlock()
	m, err := s.merged()
	if err != nil {
		return err
	}
	s.publishLocked(m)
	return nil
}

// publishLocked copies the merged columns into a fresh immutable view and
// swaps it in. relMu must be held and m must be the summary the preceding
// merged() call produced (sumN holds the matching per-shard totals). The
// copy detaches the view from the merge scratch, so release views and the
// published view never share storage — the published view is read-only and
// never feeds a release or the wire.
func (s *ShardedSketch) publishLocked(m *merge.Summary) {
	var n int64
	for _, v := range s.sumN {
		n += v
	}
	v := &publishedView{
		keys: append([]Item(nil), m.Keys()...),
		vals: append([]int64(nil), m.Counts()...),
		n:    n,
	}
	s.pub.Store(v)
	s.pending.Store(0)
}

// merged folds the shard summaries with one merge node; each shard
// contributes at most k counters and items are disjoint across shards. The
// shards are summarized concurrently (flat extraction under each shard's
// lock, ascending key order) and the merge runs on reusable scratch.
// The returned summary borrows that scratch: callers must finish with it —
// or Clone it — before relMu is released.
func (s *ShardedSketch) merged() (*merge.Summary, error) {
	summarize := func(i int) error {
		sh := &s.shards[i]
		sh.mu.Lock()
		keys, vals := sh.sk.AppendReal(s.sumKeys[i][:0], s.sumVals[i][:0])
		s.sumN[i] = sh.sk.N()
		sh.mu.Unlock()
		s.sumKeys[i], s.sumVals[i] = keys, vals
		sum, err := merge.FromSorted(s.k, keys, vals)
		if err != nil {
			return fmt.Errorf("dpmg: shard %d: %w", i, err)
		}
		s.sums[i] = sum
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(s.shards) {
		workers = len(s.shards)
	}
	if workers <= 1 || len(s.shards) < 4 {
		for i := range s.shards {
			if err := summarize(i); err != nil {
				return nil, err
			}
		}
	} else {
		var (
			wg    sync.WaitGroup
			next  atomic.Int64
			errMu sync.Mutex
			first error
		)
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(s.shards) {
						return
					}
					if err := summarize(i); err != nil {
						errMu.Lock()
						if first == nil {
							first = err
						}
						errMu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		if first != nil {
			return nil, first
		}
	}
	return s.merger.MergeAll(s.sums)
}

// ReleaseView snapshots the sketch for the unified release path: the shard
// summaries are folded with the Agarwal et al. merge, so the view carries
// merged (Corollary 18) sensitivity and defaults to the gaussian mechanism.
// The view is flat (sorted parallel columns) and owns its storage, so it
// stays valid while other releases run.
func (s *ShardedSketch) ReleaseView() (*ReleaseView, error) {
	s.relMu.Lock()
	defer s.relMu.Unlock()
	m, err := s.merged()
	if err != nil {
		return nil, err
	}
	s.publishLocked(m) // the fold is paid for; refresh the read view too
	m = m.Clone()      // detach from merge scratch before relMu is released
	return &ReleaseView{
		Keys: m.Keys(),
		Vals: m.Counts(),
		Sens: Sensitivity{Class: SensitivityMerged, K: s.k, Universe: s.d},
	}, nil
}

// shardWires copies every shard's full Algorithm 1 state into sc's
// columns for serialization and returns one wire per shard, slicing them.
// Each shard is locked only while one AppendAll copies its counter table
// out as flat ascending columns (the cross-shard consistency model above
// applies); outside the lock each table passes mg.ValidateColumns, the
// admission check a restore runs. Ascending columns are the canonical
// form, so two snapshots of equal shard states marshal to equal bytes and
// carry no insertion-history side channel.
func (s *ShardedSketch) shardWires(sc *coldScratch) ([]*encoding.SketchWire, error) {
	n := len(s.shards)
	keys := slices.Grow(sc.keys[:0], n*s.k)
	vals := slices.Grow(sc.vals[:0], n*s.k)
	if cap(sc.wires) < n {
		sc.wires = make([]encoding.SketchWire, n)
		sc.ptrs = make([]*encoding.SketchWire, n)
	}
	wires, ptrs := sc.wires[:n], sc.ptrs[:n]
	for i := range s.shards {
		sh := &s.shards[i]
		base := len(keys)
		sh.mu.Lock()
		keys, vals = sh.sk.AppendAll(keys, vals)
		items, decs := sh.sk.N(), sh.sk.Decrements()
		sh.mu.Unlock()
		w := &wires[i]
		*w = encoding.SketchWire{
			K: s.k, Universe: s.d, N: items, Decrements: decs,
			Keys: keys[base:len(keys):len(keys)], Vals: vals[base:len(vals):len(vals)],
		}
		if err := mg.ValidateColumns(w.K, w.Universe, w.N, w.Decrements, w.Keys, w.Vals); err != nil {
			return nil, fmt.Errorf("dpmg: shard %d snapshot: %w", i, err)
		}
		ptrs[i] = w
	}
	sc.keys, sc.vals = keys, vals
	return ptrs, nil
}

// mergedLen returns how many counters the merged summary of the shards
// holds — exactly merge.MergeAll over the shard summaries, then Len — from
// the shards' full counter tables (vals, zero and dummy counters included)
// without merging. Shards hold disjoint items, so the merge adds nothing up:
// its counter vector is every positive counter, and subtracting the
// (k+1)-th largest value keeps exactly the values strictly above it. sel is
// selection scratch, returned extended.
func mergedLen(k int, vals, sel []int64) (int, []int64) {
	sel = sel[:0]
	for _, c := range vals {
		if c > 0 {
			sel = append(sel, c)
		}
	}
	if len(sel) <= k {
		return len(sel), sel
	}
	sub, above := merge.KPlusFirstLargest(sel, k), 0
	for _, c := range sel {
		if c > sub {
			above++
		}
	}
	return above, sel
}

// Summary extracts the merged non-private summary for further aggregation.
// The summary is built from the live tier (never the published view); the
// fold refreshes the published view as a side effect.
func (s *ShardedSketch) Summary() (*MergeableSummary, error) {
	s.relMu.Lock()
	defer s.relMu.Unlock()
	m, err := s.merged()
	if err != nil {
		return nil, err
	}
	s.publishLocked(m)
	return &MergeableSummary{inner: m.Clone()}, nil
}
