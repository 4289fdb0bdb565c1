package mg

import (
	"fmt"
	"math"

	"dpmg/internal/stream"
)

// ValidateColumns checks that flat columns are a full Algorithm 1 state a
// sketch with k counters over [1, d] can hold — the encoding.KindCounters
// wire form: a universe whose dummy keys fit in 64 bits (d ≤ MaxUint64-k),
// exactly k entries in strictly ascending key order, every key a
// universe item or a dummy (d+1..d+k), non-negative counters, zero dummy
// counters, a counter sum within the stream length n, and at most n/(k+1)
// decrements (Fact 7). It is RestoreColumns' admission check without the
// construction, so a path that only serializes columns (the lifecycle
// tier's evict) checks exactly what a restore would.
func ValidateColumns(k int, d uint64, n, decs int64, keys []stream.Item, vals []int64) error {
	if k <= 0 {
		return fmt.Errorf("mg: columns: k must be positive, got %d", k)
	}
	if d == 0 {
		return fmt.Errorf("mg: columns: universe size must be positive")
	}
	if d > math.MaxUint64-uint64(k) {
		return fmt.Errorf("mg: columns: universe %d leaves no room for %d dummy keys below 2^64", d, k)
	}
	if len(keys) != len(vals) {
		return fmt.Errorf("mg: columns: %d keys vs %d counters", len(keys), len(vals))
	}
	if len(keys) != k {
		return fmt.Errorf("mg: columns: Algorithm 1 state must hold exactly k=%d counters, got %d", k, len(keys))
	}
	if n < 0 || decs < 0 {
		return fmt.Errorf("mg: columns: negative bookkeeping (n=%d, decrements=%d)", n, decs)
	}
	if decs > n/int64(k+1) {
		// Fact 7: at most n/(k+1) decrement steps can have happened.
		// (Division, not multiplication: decs*(k+1) could wrap int64 on
		// crafted snapshots and slip past the check.)
		return fmt.Errorf("mg: columns: %d decrements impossible for n=%d, k=%d (Fact 7)", decs, n, k)
	}
	var sum int64
	for i, x := range keys {
		c := vals[i]
		if x == 0 || uint64(x) > d+uint64(k) {
			return fmt.Errorf("mg: columns: key %d outside universe-plus-dummy range [1,%d]", x, d+uint64(k))
		}
		if i > 0 && x <= keys[i-1] {
			return fmt.Errorf("mg: columns: keys not strictly ascending at %d", i)
		}
		if c < 0 {
			return fmt.Errorf("mg: columns: negative counter %d for key %d", c, x)
		}
		if uint64(x) > d && c != 0 {
			return fmt.Errorf("mg: columns: dummy key %d has counter %d, dummies are never incremented", x, c)
		}
		// sum+c > n, written overflow-proof (c ≥ 0 and sum ≤ n hold here,
		// so n-sum never underflows and sum can never wrap).
		if c > n-sum {
			return fmt.Errorf("mg: columns: counter sum exceeds stream length %d", n)
		}
		sum += c
	}
	return nil
}

// RestoreColumns rebuilds a paper-variant sketch from serialized Algorithm 1
// state (the encoding.KindCounters wire form): the full k-entry counter
// table, as flat parallel columns in strictly ascending key order — the
// layout the wire format carries — plus the n/decrements bookkeeping,
// admitted by ValidateColumns. The restored sketch is behaviorally
// identical to the one that was snapshotted — same estimates, same release
// (the release reads only the counter table and the ascending key order),
// and the same response to any continuation of the stream. The last point
// holds because every future step of Algorithm 1 depends only on the
// current counter state: the eviction order is "smallest zero-count key
// first", which RestoreColumns re-derives by seeding the zero list with the
// current zero-count keys in ascending key order. The columns are copied;
// the caller keeps them.
func RestoreColumns(k int, d uint64, n, decs int64, keys []stream.Item, vals []int64) (*Sketch, error) {
	if err := ValidateColumns(k, d, n, decs, keys, vals); err != nil {
		return nil, err
	}
	// Lay the counters out canonically: ascending key order in the slot
	// array, off reset to zero. The layout is not observable (estimates,
	// releases, and evictions all key off the counter values), but a
	// canonical layout makes snapshot → restore → snapshot idempotent.
	s := alloc(k, d)
	s.n, s.decs = n, decs
	s.zeros = s.zeros[:0]
	for i, x := range keys {
		s.slots[i] = slot{key: x, stored: vals[i]}
		if vals[i] == 0 {
			s.zeros = append(s.zeros, int32(i))
		}
	}
	s.rebuildIndex()
	s.nzero = len(s.zeros)
	s.zSorted = true // slots ascend by key, so the zero list does too
	return s, nil
}
