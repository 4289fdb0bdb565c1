// Package mg implements the Misra-Gries sketch in the exact variant the
// paper privatizes (Algorithm 1): the sketch starts with k dummy keys,
// counters that reach zero are kept until their slot is reused, and when a
// slot must be reused the *smallest* zero-count key is evicted. Those three
// details are what bound the key difference between sketches of neighboring
// streams by two (Lemma 8), which in turn is what lets Algorithm 2 release
// the sketch with noise independent of k.
//
// # Flat storage layout
//
// Sketch keeps its k counters in a contiguous []slot{key, stored} array.
// Keys are located with a tag-group index (the SwissTable layout) of at
// least 4k entries in groups of eight. Each group keeps the one-byte tags of
// its eight entries in one uint64, beside a parallel array of slot ids. A
// key's Fibonacci hash picks its home group with its top bits; the next 7
// bits, with the high bit set, are its tag. A tag byte of 0 marks an empty
// entry and ctrlDeleted a tombstone. A lookup matches the tag against all
// eight bytes of a group at once (SWAR), confirms each candidate with one
// key compare, and moves on to the next group only when the group has no
// empty byte, so at load ≤ 1/4 it almost always ends in the home group.
//
// Each slot keeps a back-pointer to its index entry, so Branch 3 removes the
// evicted key's entry without searching for it, and a miss returns the
// empty entry where its probe ended, so the new key is written there
// without a second probe. A removed entry becomes empty when its group
// still has an empty byte and a tombstone otherwise: inserts fill only
// empty entries, so a group that is full stays without an empty byte until
// the index is rebuilt, and a group that has one has had it since the last
// rebuild — no probe has continued past it. Tombstones appear only in full
// groups, which are rare at this load. The Branch 2 census rebuilds the
// index when they exceed k/4; an epoch evicts at most k keys, so occupied
// entries plus tombstones stay below 9k/4 of the ≥ 4k entries and every
// probe ends. The index layout is not observable: estimates, evictions and
// releases read only the slot array and the counters.
//
// Beside them sit four k-entry int32 buffers: the back-pointers, the
// epoch's zero list, and the two buffers the key ordering scatters between.
// The slot ids of the index and these buffers are one allocation, made in
// New; for k=256 the slots, index and buffers together fit in L1 cache.
// Update never allocates.
//
// # The lazy-offset decrement trick
//
// A slot does not store the counter itself but stored = count + off, where
// off is a sketch-global offset. Algorithm 1's decrement-all branch then
// becomes off++ — O(1) instead of an O(k) map sweep — and a counter is
// zero exactly when stored == off. This is sound because Algorithm 1 only
// decrements when no counter is zero (all stored > off, so nothing can go
// negative), and every other mutation (increment, insert-at-count-1)
// writes stored relative to the current off.
//
// After advancing off, the sketch scans the slot array once to collect the
// counters that just hit zero. That scan is O(k), but Fact 7 bounds the
// number of decrement steps by n/(k+1), so the total scan cost over any
// stream of length n is under n slot reads — O(1) amortized per update,
// with sequential access instead of the map iteration the reference
// implementation pays. Decrement-heavy adversarial streams, the worst case
// for the map-based implementation, run at increment speed. The same bound
// covers the index rebuild, which runs only at a census and costs O(k).
//
// # Input-independent eviction order
//
// The paper requires the eviction order of zero-count keys to be
// independent of the stream history ("the choice of removing the minimum
// element is arbitrary but the order of removal must be independent of the
// stream"): Lemma 8's neighbor coupling argues about which key the two
// sketches evict, and a history-dependent order (e.g. the LRU-style
// "oldest zero first" an off-the-shelf cache would use — see PolicySketch
// and the E12 ablation) breaks the bound. Sketch therefore orders each
// epoch's zero list by key — lazily, on the first eviction that needs it —
// and Branch 3 consumes it in ascending key order, skipping entries whose
// counter has since been re-incremented. Because off cannot advance while
// a zero-count key exists, the list is always a superset of the current
// zeros and its order equals the reference's "smallest zero first".
//
// The ordering (orderIDs) is an LSD radix sort of slot ids, one counting
// pass per byte of the key: the pass count is fixed in New from
// bits.Len64(d+k), so one routine serves every universe width, and a pass
// whose byte every key shares is skipped. Its cost is linear in the list
// and no branch in a pass depends on how two keys compare — an epoch's
// ~200 zero keys arrive in an order no branch predictor can learn, and on
// a stream with d >> k about half of all updates evict. Lists of at most
// zeroInsertionMax ids are insertion-sorted instead, which is cheaper than
// clearing the radix buckets. Keys are distinct, so every correct ordering
// yields the same sequence; TestZeroOrder and FuzzZeroOrder compare it
// with a reference sort at every pass count. The same routine puts the
// ascending key order on AppendAll, AppendReal and SortedKeys.
//
// The package also provides the standard Misra-Gries variant (zero counters
// removed immediately) for the Section 5.1 release path and for the
// estimate-equality property the paper relies on (both variants return
// exactly the same frequency estimates, so Fact 7 applies to both). The
// original map-based implementation, the executable specification the
// differential and fuzz tests check Sketch against, is mgref.Ref, a package
// only tests import.
package mg

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dpmg/internal/stream"
)

// slot is one counter: true count = stored - Sketch.off.
type slot struct {
	key    stream.Item
	stored int64
}

// Index group constants. A group's tag word holds one byte per entry: 0
// (empty), ctrlDeleted (tombstone), or a tag, which always has the high bit
// set. No byte is ever 0x01, which is what makes matchEmpty exact.
const (
	hashMul     = 0x9e3779b97f4a7c15 // Fibonacci hashing: 2^64 / golden ratio
	groupSize   = 8
	ctrlDeleted = 0x7f
	lsbs        = 0x0101010101010101
	msbs        = 0x8080808080808080
)

// Sketch is the paper-variant Misra-Gries sketch of Algorithm 1, on flat
// storage. It is not safe for concurrent use, not even by readers: the
// ordered extractions use the sketch's scratch buffers. Update never
// allocates.
type Sketch struct {
	k        int
	universe uint64   // d; dummy keys are d+1 .. d+k
	off      int64    // global lazy-decrement offset
	n        int64    // stream length processed
	decs     int64    // number of decrement-all steps (branch 2 executions)
	slots    []slot   // len k, contiguous counter storage
	ctrl     []uint64 // index groups: the tag bytes of entries 8g .. 8g+7
	ids      []int32  // index entry → slot id; meaningful where the tag byte is a tag
	pos      []int32  // slot id → its index entry (the back-pointer)
	gmask    uint64   // len(ctrl) - 1
	gshift   uint     // 64 - log2(len(ctrl)): the hash's top bits pick the group
	tombs    int      // tombstone entries in ctrl
	nzero    int      // exact number of slots with stored == off
	zeros    []int32  // slot ids that hit zero at the last off++ (this epoch)
	zeroPos  int      // zeros[:zeroPos] already consumed by evictions
	zSorted  bool     // zeros sorted by key
	zspare   []int32  // cap k: the buffer orderIDs scatters into, swapped with zeros
	order    []int32  // cap k: the slot ids AppendAll, AppendReal and SortedKeys order
	passes   int      // byte digits covering every key: ceil(bits.Len64(d+k) / 8)
}

// New returns an empty sketch with k counters over the universe [1, d].
// Keys d+1..d+k are used as the initial dummy keys exactly as in
// Algorithm 1; callers must therefore only feed items in [1, d]. It panics
// unless k > 0 and 0 < d ≤ math.MaxUint64-k, the universes whose dummy
// keys fit in 64 bits.
func New(k int, d uint64) *Sketch {
	if k <= 0 {
		panic("mg: k must be positive")
	}
	if d == 0 {
		panic("mg: universe size must be positive")
	}
	if d > math.MaxUint64-uint64(k) {
		panic(fmt.Sprintf("mg: universe %d leaves no room for %d dummy keys below 2^64", d, k))
	}
	s := alloc(k, d)
	s.nzero = k
	s.zSorted = true // dummy keys ascend with slot id
	for i := 0; i < k; i++ {
		s.slots[i] = slot{key: stream.Item(d + uint64(i+1)), stored: 0}
		s.zeros[i] = int32(i)
	}
	s.rebuildIndex()
	return s
}

// alloc returns a sketch with its storage sized for k counters over [1, d]
// and an empty index; the caller fills the counter table (New with the
// dummy keys, RestoreColumns with a restored state) and then indexes it.
func alloc(k int, d uint64) *Sketch {
	// At least 4k entries keeps the load factor ≤ 1/4, so a probe almost
	// never leaves its home group; at least two groups keeps the group
	// shift below 64.
	groups := 2
	for groups*groupSize < 4*k {
		groups <<= 1
	}
	entries := groups * groupSize
	// The index's slot ids and the four k-entry buffers share one
	// allocation; the full slice expression keeps every buffer's capacity
	// its own, so appends and the zeros/zspare swap never run into a
	// neighbour.
	arena := make([]int32, entries+4*k)
	carve := func(n int) []int32 {
		b := arena[:n:n]
		arena = arena[n:]
		return b
	}
	return &Sketch{
		k:        k,
		universe: d,
		slots:    make([]slot, k),
		ctrl:     make([]uint64, groups),
		ids:      carve(entries),
		pos:      carve(k),
		zeros:    carve(k),
		zspare:   carve(k),
		order:    carve(k),
		gmask:    uint64(groups - 1),
		gshift:   uint(64 - bits.TrailingZeros(uint(groups))),
		passes:   (bits.Len64(d+uint64(k)) + 7) / 8,
	}
}

// K returns the sketch size parameter.
func (s *Sketch) K() int { return s.k }

// Universe returns d.
func (s *Sketch) Universe() uint64 { return s.universe }

// N returns the number of processed elements.
func (s *Sketch) N() int64 { return s.n }

// Decrements returns how many times the decrement-all branch ran. This is
// the alpha of Lemma 15, needed by the Section 6 sensitivity reduction and
// bounded by N/(k+1) (Fact 7).
func (s *Sketch) Decrements() int64 { return s.decs }

// hash returns x's home group and its tag byte.
func (s *Sketch) hash(x stream.Item) (g, tag uint64) {
	h := uint64(x) * hashMul
	return h >> (s.gshift & 63), uint64(byte(h>>((s.gshift-7)&63))) | 0x80
}

// matchTag returns the high bit of every byte of the tag word c that may
// hold tag. A byte after a true match can be flagged too (the subtraction's
// borrow), so each candidate is confirmed by a key compare.
func matchTag(c, tag uint64) uint64 {
	v := c ^ tag*lsbs
	return (v - lsbs) &^ v & msbs
}

// matchEmpty returns the high bit of every empty byte of the tag word c.
// It is exact because no byte is 0x01, the only value a borrow could flag.
func matchEmpty(c uint64) uint64 {
	return (c - lsbs) &^ c & msbs
}

// lowEntry returns the entry within its group of the lowest byte a match
// mask flags.
func lowEntry(m uint64) uint64 { return uint64(bits.TrailingZeros64(m) >> 3) }

// probe looks x up from group g on. It returns x's slot id and entry, or
// -1 and the lowest empty entry of the first group that has one — where a
// probe for x ends, and so where x is inserted.
func (s *Sketch) probe(x stream.Item, g, tag uint64) (int32, uint64) {
	for ; ; g = (g + 1) & s.gmask {
		c := s.ctrl[g]
		for m := matchTag(c, tag); m != 0; m &= m - 1 {
			e := g*groupSize + lowEntry(m)
			if id := s.ids[e]; s.slots[id].key == x {
				return id, e
			}
		}
		if m := matchEmpty(c); m != 0 {
			return -1, g*groupSize + lowEntry(m)
		}
	}
}

// place writes tag and slot id at the empty entry e.
func (s *Sketch) place(e, tag uint64, id int32) {
	s.ctrl[e/groupSize] |= tag << (e % groupSize * 8)
	s.ids[e] = id
	s.pos[id] = int32(e)
}

// unindex removes the full entry e: to empty when its group has an empty
// byte, else to a tombstone (see the package doc).
func (s *Sketch) unindex(e uint64) {
	g, shift := e/groupSize, e%groupSize*8
	c := s.ctrl[g]
	if matchEmpty(c) != 0 {
		s.ctrl[g] = c &^ (0xff << shift)
		return
	}
	s.ctrl[g] = c&^(0xff<<shift) | ctrlDeleted<<shift
	s.tombs++
}

// rebuildIndex indexes every slot into an empty index, dropping the
// tombstones. Keys are distinct, so each insert only looks for the first
// empty entry on its key's probe sequence.
func (s *Sketch) rebuildIndex() {
	clear(s.ctrl)
	s.tombs = 0
	for id := range s.slots {
		g, tag := s.hash(s.slots[id].key)
		for matchEmpty(s.ctrl[g]) == 0 {
			g = (g + 1) & s.gmask
		}
		s.place(g*groupSize+lowEntry(matchEmpty(s.ctrl[g])), tag, int32(id))
	}
}

// increment is Algorithm 1's Branch 1 on slot id. A zero-count key
// recovering here leaves the epoch's zero list lazily (Branch 3 skips it by
// its stored value), but the exact zero census is kept eagerly.
func (s *Sketch) increment(id int32) {
	if s.slots[id].stored == s.off {
		s.nzero--
	}
	s.slots[id].stored++
}

// Update processes one stream element (one iteration of Algorithm 1's loop).
// It panics if x is outside [1, universe], since items above the universe
// would collide with the dummy keys.
func (s *Sketch) Update(x stream.Item) {
	if x == 0 || uint64(x) > s.universe {
		panic(fmt.Sprintf("mg: item %d outside universe [1,%d]", x, s.universe))
	}
	s.n++
	// The home-group half of probe, written out: Go does not inline a
	// function with a loop, and on a hit this is the whole lookup.
	g, tag := s.hash(x)
	c := s.ctrl[g]
	for m := matchTag(c, tag); m != 0; m &= m - 1 {
		if id := s.ids[g*groupSize+lowEntry(m)]; s.slots[id].key == x {
			s.increment(id)
			return
		}
	}
	var e uint64 // the empty entry where x's probe ended
	if m := matchEmpty(c); m != 0 {
		e = g*groupSize + lowEntry(m)
	} else {
		var id int32
		if id, e = s.probe(x, (g+1)&s.gmask, tag); id >= 0 {
			s.increment(id)
			return
		}
	}
	if s.nzero == 0 {
		// Branch 2: decrement all counters by advancing the global offset,
		// then census the counters that just hit zero. The scan is O(k),
		// amortized O(1) per update by Fact 7 (at most n/(k+1) decrements),
		// and so is the index rebuild the census may run.
		s.decs++
		s.off++
		s.zeros = s.zeros[:0]
		for i := range s.slots {
			if s.slots[i].stored == s.off {
				s.zeros = append(s.zeros, int32(i))
			}
		}
		s.nzero = len(s.zeros)
		s.zeroPos = 0
		s.zSorted = false
		if s.tombs > s.k/4 {
			s.rebuildIndex()
		}
		return
	}
	// Branch 3: replace the smallest zero-count key with x, reusing its slot
	// and writing x's entry where the probe ended.
	id := s.popSmallestZero()
	s.unindex(uint64(s.pos[id]))
	s.place(e, tag, id)
	s.slots[id] = slot{key: x, stored: s.off + 1}
	s.nzero--
}

// popSmallestZero returns the slot id of the smallest stored key whose
// count is zero, consuming it from the epoch's zero list. Entries whose
// counter was re-incremented since the list was built (stored != off) are
// skipped lazily; they cannot become zero again within the epoch.
func (s *Sketch) popSmallestZero() int32 {
	if !s.zSorted {
		s.orderZeros()
		s.zSorted = true
	}
	for s.zeroPos < len(s.zeros) {
		id := s.zeros[s.zeroPos]
		s.zeroPos++
		if s.slots[id].stored == s.off {
			return id
		}
	}
	panic("mg: internal error: nzero > 0 but no zero key found")
}

// zeroInsertionMax is the list length up to which orderIDs uses insertion
// sort: the radix passes pay a fixed ~230 ns per digit to clear and
// prefix-sum 256 buckets. Measured with BenchmarkZeroOrder at three passes:
// insertion 0.57 µs vs radix 0.92 µs at n=32, level at n=48.
const zeroInsertionMax = 32

// orderZeros orders the epoch's zero list ascending by key. It runs before
// the epoch's first eviction, so the whole list is unconsumed.
func (s *Sketch) orderZeros() {
	s.zeros, s.zspare = s.orderIDs(s.zeros, s.zspare[:len(s.zeros)])
}

// orderIDs orders the slot ids in src ascending by key with an LSD
// byte-radix sort and returns the ordered ids and the other buffer; dst
// must be as long as src and share no memory with it. Each pass histograms
// one byte of the keys and, unless every key shares that byte, moves the
// ids with a stable counting scatter from one buffer to the other, which
// then swap roles. Keys are distinct, so the result is the one ascending
// order whatever the pass count. No branch in a pass depends on how two
// keys compare, and nothing is allocated.
func (s *Sketch) orderIDs(src, dst []int32) (sorted, spare []int32) {
	n := len(src)
	if n <= zeroInsertionMax {
		for i := 1; i < n; i++ {
			id := src[i]
			key := s.slots[id].key
			j := i
			for ; j > 0 && s.slots[src[j-1]].key > key; j-- {
				src[j] = src[j-1]
			}
			src[j] = id
		}
		return src, dst
	}
	for shift := 0; shift < 8*s.passes; shift += 8 {
		var h [256]int32
		for _, id := range src {
			h[byte(s.slots[id].key>>shift)]++
		}
		if h[byte(s.slots[src[0]].key>>shift)] == int32(n) {
			continue
		}
		var sum int32
		for i, c := range h {
			h[i] = sum
			sum += c
		}
		for _, id := range src {
			b := byte(s.slots[id].key >> shift)
			dst[h[b]] = id
			h[b]++
		}
		src, dst = dst, src
	}
	return src, dst
}

// ordered returns ids, a prefix of s.order, ascending by key; the zero
// list's spare buffer, dead outside orderZeros, takes the scatter.
func (s *Sketch) ordered(ids []int32) []int32 {
	ids, _ = s.orderIDs(ids, s.zspare[:len(ids)])
	return ids
}

// allIDs returns every slot id, in slot order.
func (s *Sketch) allIDs() []int32 {
	ids := s.order[:s.k]
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// appendSlots appends the keys and counters of the slots ids names, in
// that order, to the parallel columns.
func (s *Sketch) appendSlots(keys []stream.Item, vals []int64, ids []int32) ([]stream.Item, []int64) {
	keys, vals = slices.Grow(keys, len(ids)), slices.Grow(vals, len(ids))
	for _, id := range ids {
		keys = append(keys, s.slots[id].key)
		vals = append(vals, s.slots[id].stored-s.off)
	}
	return keys, vals
}

// Process feeds every element of str through Update.
func (s *Sketch) Process(str stream.Stream) {
	for _, x := range str {
		s.Update(x)
	}
}

// UpdateBatch processes the elements of xs in order. It is semantically
// identical to calling Update on each element and exists so callers that
// already aggregate items (network ingest, sharded routing) keep the whole
// batch on the sketch's hot path without per-item call overhead.
func (s *Sketch) UpdateBatch(xs []stream.Item) {
	for _, x := range xs {
		s.Update(x)
	}
}

// Estimate returns the frequency estimate for x: its counter if stored
// (dummy keys included, always 0), otherwise 0. By Fact 7 the estimate lies
// in [f(x) - n/(k+1), f(x)].
func (s *Sketch) Estimate(x stream.Item) int64 {
	g, tag := s.hash(x)
	if id, _ := s.probe(x, g, tag); id >= 0 {
		return s.slots[id].stored - s.off
	}
	return 0
}

// Len returns the number of stored keys, always exactly k for this variant
// (zero-count and dummy keys stay stored).
func (s *Sketch) Len() int { return s.k }

// Counters returns a copy of the full counter table, including zero-count
// and dummy keys. This is the raw sketch state that Algorithm 2 privatizes.
func (s *Sketch) Counters() map[stream.Item]int64 {
	out := make(map[stream.Item]int64, s.k)
	for i := range s.slots {
		out[s.slots[i].key] = s.slots[i].stored - s.off
	}
	return out
}

// RealCounters returns a copy of the counter table restricted to genuine
// universe elements with positive counts — the post-processed view an
// application reads (dummy keys and zero counters removed).
func (s *Sketch) RealCounters() map[stream.Item]int64 {
	out := make(map[stream.Item]int64, s.k)
	for i := range s.slots {
		if c := s.slots[i].stored - s.off; c > 0 && uint64(s.slots[i].key) <= s.universe {
			out[s.slots[i].key] = c
		}
	}
	return out
}

// AppendReal appends the sketch's positive real-item counters (dummy keys
// and zero counters excluded, the same filter RealCounters applies) to the
// given parallel columns in ascending key order and returns the extended
// slices. Callers that reuse the destination slices across calls get a
// map-free flat extraction — this is how the sharded merge tier snapshots
// its shards.
func (s *Sketch) AppendReal(keys []stream.Item, vals []int64) ([]stream.Item, []int64) {
	ids := s.order[:0]
	for i := range s.slots {
		if c := s.slots[i].stored - s.off; c > 0 && uint64(s.slots[i].key) <= s.universe {
			ids = append(ids, int32(i))
		}
	}
	return s.appendSlots(keys, vals, s.ordered(ids))
}

// AppendAll appends the sketch's full Algorithm 1 counter table — dummy and
// zero-count keys included, exactly the table Counters returns — to the
// given parallel columns in ascending key order, and returns the extended
// slices. It is the flat counterpart of Counters/SortedKeys: callers that
// reuse the destination slices across calls (the continual monitor's
// per-epoch release) extract the full release table with no map and no
// per-call key allocation.
func (s *Sketch) AppendAll(keys []stream.Item, vals []int64) ([]stream.Item, []int64) {
	return s.appendSlots(keys, vals, s.ordered(s.allIDs()))
}

// SortedKeys returns all stored keys in ascending order. Releasing key-value
// pairs in an input-independent order is one of the Section 5.2 requirements
// (hash-table iteration order can leak the insertion history).
func (s *Sketch) SortedKeys() []stream.Item {
	keys := make([]stream.Item, 0, s.k)
	for _, id := range s.ordered(s.allIDs()) {
		keys = append(keys, s.slots[id].key)
	}
	return keys
}

// IsDummy reports whether x is one of the sketch's dummy keys.
func (s *Sketch) IsDummy(x stream.Item) bool {
	return uint64(x) > s.universe && uint64(x) <= s.universe+uint64(s.k)
}
