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
// Keys are located with a small open-addressing index (Fibonacci hashing,
// linear probing, backward-shift deletion) mapping key → slot id, so the
// hot increment path is one multiply, a short probe over an int32 table,
// and one in-place add — no Go map, no pointer chasing, no allocation.
// Beside them sit two k-entry int32 buffers: the epoch's zero list and the
// spare the eviction ordering scatters into. Everything is allocated once,
// in New; for k=256 the slots, index and both buffers together fit in L1
// cache.
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
// for the map-based implementation, run at increment speed.
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
// The ordering (orderZeros) is an LSD radix sort of the slot ids, one
// counting pass per byte of the key: the pass count is fixed in New from
// bits.Len64(d+k), so one routine serves every universe width, and a pass
// whose byte every key shares is skipped. Its cost is linear in the list
// and no branch in a pass depends on how two keys compare — an epoch's
// ~200 zero keys arrive in an order no branch predictor can learn, and on
// a stream with d >> k about half of all updates evict. Lists of at most
// zeroInsertionMax ids are insertion-sorted instead, which is cheaper than
// clearing the radix buckets. Keys are distinct, so every correct ordering
// yields the same sequence; TestZeroOrder and FuzzZeroOrder compare it
// with a reference sort at every pass count.
//
// The package also provides the standard Misra-Gries variant (zero counters
// removed immediately) for the Section 5.1 release path and for the
// estimate-equality property the paper relies on (both variants return
// exactly the same frequency estimates, so Fact 7 applies to both), and
// Ref, the original map-based implementation retained as the executable
// specification the differential/fuzz harness checks Sketch against.
package mg

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"dpmg/internal/stream"
)

// slot is one counter: true count = stored - Sketch.off.
type slot struct {
	key    stream.Item
	stored int64
}

// Sketch is the paper-variant Misra-Gries sketch of Algorithm 1, on flat
// storage. It is not safe for concurrent use. Update never allocates.
type Sketch struct {
	k        int
	universe uint64  // d; dummy keys are d+1 .. d+k
	off      int64   // global lazy-decrement offset
	n        int64   // stream length processed
	decs     int64   // number of decrement-all steps (branch 2 executions)
	slots    []slot  // len k, contiguous counter storage
	idx      []int32 // open-addressing table: slot id + 1, 0 = empty
	mask     uint64  // len(idx) - 1
	shift    uint    // 64 - log2(len(idx)), for Fibonacci hashing
	nzero    int     // exact number of slots with stored == off
	zeros    []int32 // slot ids that hit zero at the last off++ (this epoch)
	zeroPos  int     // zeros[:zeroPos] already consumed by evictions
	zSorted  bool    // zeros sorted by key
	zspare   []int32 // cap k: the buffer orderZeros scatters into, swapped with zeros
	passes   int     // byte digits covering every key: ceil(bits.Len64(d+k) / 8)
}

// New returns an empty sketch with k counters over the universe [1, d].
// Keys d+1..d+k are used as the initial dummy keys exactly as in
// Algorithm 1; callers must therefore only feed items in [1, d].
func New(k int, d uint64) *Sketch {
	if k <= 0 {
		panic("mg: k must be positive")
	}
	if d == 0 {
		panic("mg: universe size must be positive")
	}
	s := alloc(k, d)
	s.nzero = k
	s.zSorted = true // dummy keys ascend with slot id
	for i := 0; i < k; i++ {
		s.slots[i] = slot{key: stream.Item(d + uint64(i+1)), stored: 0}
		s.zeros[i] = int32(i)
		s.indexInsert(s.slots[i].key, int32(i))
	}
	return s
}

// alloc returns a sketch with its storage sized for k counters over [1, d]
// and an empty index; the caller fills the counter table (New with the
// dummy keys, RestoreColumns with a restored state).
func alloc(k int, d uint64) *Sketch {
	// Index sized to a power of two ≥ 4k keeps the load factor ≤ 1/4, so
	// probe sequences stay short even right before an eviction.
	tbl := 4
	for tbl < 4*k {
		tbl <<= 1
	}
	return &Sketch{
		k:        k,
		universe: d,
		slots:    make([]slot, k),
		idx:      make([]int32, tbl),
		mask:     uint64(tbl - 1),
		shift:    uint(64 - bits.TrailingZeros(uint(tbl))),
		zeros:    make([]int32, k),
		zspare:   make([]int32, k),
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

// home returns the preferred index-table position for x.
func (s *Sketch) home(x stream.Item) uint64 {
	return (uint64(x) * 0x9e3779b97f4a7c15) >> s.shift
}

// find returns the slot id holding x, or -1.
func (s *Sketch) find(x stream.Item) int32 {
	i := s.home(x)
	for {
		v := s.idx[i]
		if v == 0 {
			return -1
		}
		if s.slots[v-1].key == x {
			return v - 1
		}
		i = (i + 1) & s.mask
	}
}

// indexInsert records key → id in the open-addressing table. The key must
// not already be present; the table always has free space (load ≤ 1/4).
func (s *Sketch) indexInsert(key stream.Item, id int32) {
	i := s.home(key)
	for s.idx[i] != 0 {
		i = (i + 1) & s.mask
	}
	s.idx[i] = id + 1
}

// indexDelete removes key from the table with backward-shift deletion, so
// lookups never cross tombstones. The key must be present.
func (s *Sketch) indexDelete(key stream.Item) {
	i := s.home(key)
	for s.slots[s.idx[i]-1].key != key {
		i = (i + 1) & s.mask
	}
	j := i
	for {
		s.idx[i] = 0
		for {
			j = (j + 1) & s.mask
			v := s.idx[j]
			if v == 0 {
				return
			}
			// Shift v back into the hole unless its home lies in (i, j]
			// cyclically, in which case the hole doesn't break its probe
			// sequence.
			h := s.home(s.slots[v-1].key)
			if (j-h)&s.mask >= (j-i)&s.mask {
				s.idx[i] = v
				i = j
				break
			}
		}
	}
}

// Update processes one stream element (one iteration of Algorithm 1's loop).
// It panics if x is outside [1, universe], since items above the universe
// would collide with the dummy keys.
func (s *Sketch) Update(x stream.Item) {
	if x == 0 || uint64(x) > s.universe {
		panic(fmt.Sprintf("mg: item %d outside universe [1,%d]", x, s.universe))
	}
	s.n++
	if id := s.find(x); id >= 0 {
		// Branch 1: increment in place. A zero-count key recovering here
		// leaves the epoch's zero list lazily (Branch 3 skips it by its
		// stored value), but the exact zero census is kept eagerly.
		if s.slots[id].stored == s.off {
			s.nzero--
		}
		s.slots[id].stored++
		return
	}
	if s.nzero == 0 {
		// Branch 2: decrement all counters by advancing the global offset,
		// then census the counters that just hit zero. The scan is O(k),
		// amortized O(1) per update by Fact 7 (at most n/(k+1) decrements).
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
		return
	}
	// Branch 3: replace the smallest zero-count key with x.
	id := s.popSmallestZero()
	s.indexDelete(s.slots[id].key)
	s.slots[id] = slot{key: x, stored: s.off + 1}
	s.indexInsert(x, id)
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

// zeroInsertionMax is the zero-list length up to which orderZeros uses
// insertion sort: the radix passes pay a fixed ~230 ns per digit to clear
// and prefix-sum 256 buckets. Measured with BenchmarkZeroOrder at three
// passes: insertion 0.57 µs vs radix 0.92 µs at n=32, level at n=48.
const zeroInsertionMax = 32

// orderZeros orders the epoch's zero list ascending by key with an LSD
// byte-radix sort over the key bits. It runs before the epoch's first
// eviction, so the whole list is unconsumed. Each pass histograms one byte
// of the keys and, unless every key shares that byte, moves the ids with a
// stable counting scatter between the zero list and its spare buffer, which
// then swap roles. Keys are distinct, so the result is the one ascending
// order whatever the pass count. No branch in a pass depends on how two
// keys compare, and nothing is allocated.
func (s *Sketch) orderZeros() {
	n := len(s.zeros)
	if n <= zeroInsertionMax {
		z := s.zeros
		for i := 1; i < n; i++ {
			id := z[i]
			key := s.slots[id].key
			j := i
			for ; j > 0 && s.slots[z[j-1]].key > key; j-- {
				z[j] = z[j-1]
			}
			z[j] = id
		}
		return
	}
	src, dst := s.zeros, s.zspare[:n]
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
	s.zeros, s.zspare = src, dst
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
	if id := s.find(x); id >= 0 {
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
	base := len(keys)
	for i := range s.slots {
		if c := s.slots[i].stored - s.off; c > 0 && uint64(s.slots[i].key) <= s.universe {
			keys = append(keys, s.slots[i].key)
			vals = append(vals, c)
		}
	}
	sort.Sort(&pairSorter{keys: keys[base:], vals: vals[base:]})
	return keys, vals
}

// AppendAll appends the sketch's full Algorithm 1 counter table — dummy and
// zero-count keys included, exactly the table Counters returns — to the
// given parallel columns in ascending key order, and returns the extended
// slices. It is the flat counterpart of Counters/SortedKeys: callers that
// reuse the destination slices across calls (the continual monitor's
// per-epoch release) extract the full release table with no map and no
// per-call key allocation.
func (s *Sketch) AppendAll(keys []stream.Item, vals []int64) ([]stream.Item, []int64) {
	base := len(keys)
	keys, vals = slices.Grow(keys, len(s.slots)), slices.Grow(vals, len(s.slots))
	for i := range s.slots {
		keys = append(keys, s.slots[i].key)
		vals = append(vals, s.slots[i].stored-s.off)
	}
	sort.Sort(&pairSorter{keys: keys[base:], vals: vals[base:]})
	return keys, vals
}

// pairSorter co-sorts parallel key/count columns by ascending key.
type pairSorter struct {
	keys []stream.Item
	vals []int64
}

func (p *pairSorter) Len() int           { return len(p.keys) }
func (p *pairSorter) Less(i, j int) bool { return p.keys[i] < p.keys[j] }
func (p *pairSorter) Swap(i, j int) {
	p.keys[i], p.keys[j] = p.keys[j], p.keys[i]
	p.vals[i], p.vals[j] = p.vals[j], p.vals[i]
}

// SortedKeys returns all stored keys in ascending order. Releasing key-value
// pairs in an input-independent order is one of the Section 5.2 requirements
// (hash-table iteration order can leak the insertion history).
func (s *Sketch) SortedKeys() []stream.Item {
	keys := make([]stream.Item, 0, s.k)
	for i := range s.slots {
		keys = append(keys, s.slots[i].key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// IsDummy reports whether x is one of the sketch's dummy keys.
func (s *Sketch) IsDummy(x stream.Item) bool {
	return uint64(x) > s.universe && uint64(x) <= s.universe+uint64(s.k)
}
