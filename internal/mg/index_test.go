package mg

import (
	"math"
	"math/rand/v2"
	"testing"

	"dpmg/internal/mg/mgref"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

// checkIndex fails unless the tag-group index is exactly an index of the
// slot array: every slot is found by a lookup at its back-pointer's entry,
// every tag byte is its key's tag, no entry is indexed that no slot points
// at, and the tombstone count is exact and within its bound.
func checkIndex(t *testing.T, s *Sketch) {
	t.Helper()
	full, tombs := 0, 0
	for e := range s.ids {
		b := byte(s.ctrl[e/groupSize] >> (e % groupSize * 8))
		switch {
		case b == 0:
		case b == ctrlDeleted:
			tombs++
		case b&0x80 == 0:
			t.Fatalf("n=%d entry %d: byte %#x is not empty, a tombstone or a tag", s.n, e, b)
		default:
			full++
			id := s.ids[e]
			if id < 0 || int(id) >= s.k || s.pos[id] != int32(e) {
				t.Fatalf("n=%d entry %d: stray entry for slot %d", s.n, e, id)
			}
			if _, tag := s.hash(s.slots[id].key); byte(tag) != b {
				t.Fatalf("n=%d entry %d: tag %#x, key %d hashes to %#x", s.n, e, b, s.slots[id].key, tag)
			}
		}
	}
	if full != s.k {
		t.Fatalf("n=%d: %d indexed entries for k=%d slots", s.n, full, s.k)
	}
	if tombs != s.tombs {
		t.Fatalf("n=%d: %d tombstones, counted %d", s.n, tombs, s.tombs)
	}
	// At most k/4 survive a census and an epoch evicts at most k keys.
	if tombs > s.k/4+s.k {
		t.Fatalf("n=%d: %d tombstones exceed k/4+k for k=%d", s.n, tombs, s.k)
	}
	for id := range s.slots {
		key := s.slots[id].key
		g, tag := s.hash(key)
		if got, e := s.probe(key, g, tag); got != int32(id) || e != uint64(s.pos[id]) {
			t.Fatalf("n=%d: key %d found at slot %d entry %d, want slot %d entry %d", s.n, key, got, e, id, s.pos[id])
		}
	}
}

// indexStats records what the index did over a stream.
type indexStats struct {
	overflowed bool // a key sat outside its home group
	tombstones bool // a removal left a tombstone
	rebuilds   int  // census rebuilds (the tombstone count fell)
}

// runIndexed drives the flat sketch and the reference with str, checking
// the index after every update and equivalence every checkpoint-th step
// and at the end.
func runIndexed(t *testing.T, k int, d uint64, str stream.Stream, checkpoint int) indexStats {
	t.Helper()
	flat, ref := New(k, d), mgref.NewRef(k, d)
	checkIndex(t, flat)
	var st indexStats
	for i, x := range str {
		tombs := flat.tombs
		flat.Update(x)
		ref.Update(x)
		checkIndex(t, flat)
		if flat.tombs < tombs {
			st.rebuilds++
		}
		st.tombstones = st.tombstones || flat.tombs > 0
		for id := range flat.slots {
			if g, _ := flat.hash(flat.slots[id].key); uint64(flat.pos[id])/groupSize != g {
				st.overflowed = true
			}
		}
		if (i+1)%checkpoint == 0 {
			assertEquivalent(t, flat, ref)
		}
	}
	assertEquivalent(t, flat, ref)
	return st
}

// TestIndexInvariants checks the index after every update of short streams
// that cover all three Algorithm 1 branches at small and serving k.
func TestIndexInvariants(t *testing.T) {
	cases := []struct {
		name string
		k    int
		d    uint64
		str  stream.Stream
	}{
		{"zipf-skewed", 16, 1000, workload.Zipf(5000, 1000, 1.5, 2)},
		{"adversarial-tiny-k", 1, 64, workload.Adversarial(2000, 1)},
		{"uniform", 24, 300, workload.Uniform(5000, 300, 3)},
		{"single-key", 4, 10, workload.Adversarial(500, 1)},
		{"serving-shape", 256, 1 << 20, workload.Zipf(6000, 1<<20, 1.05, 5)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { runIndexed(t, c.k, c.d, c.str, 97) })
	}
	rng := rand.New(rand.NewPCG(19, 23))
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.IntN(12)
		d := uint64(2 + rng.IntN(30))
		str := make(stream.Stream, 50+rng.IntN(400))
		for i := range str {
			str[i] = stream.Item(rng.Uint64N(d) + 1)
		}
		runIndexed(t, k, d, str, 37)
	}
}

// collidingKeys returns n distinct items whose hashes share their top 32
// bits, so they share one home group and one tag at every k below 2^25.
// Each is the hash value it needs times the inverse of the odd multiplier.
func collidingKeys(n int) []stream.Item {
	inv := uint64(hashMul) // Newton's iteration doubles the correct low bits
	for i := 0; i < 6; i++ {
		inv *= 2 - hashMul*inv
	}
	keys := make([]stream.Item, 0, n)
	for i := uint64(1); len(keys) < n; i++ {
		keys = append(keys, stream.Item((0x5bd1e995<<32|i*0x9e37)*inv))
	}
	return keys
}

// TestIndexCollisions is the adversarial-collision differential: every
// item shares one home group and one tag, so each probe meets false tag
// matches, keys overflow into later groups, removals from full groups
// leave tombstones, and the census must rebuild the index.
func TestIndexCollisions(t *testing.T) {
	for _, c := range []struct{ k, keys, n int }{{16, 48, 20000}, {256, 600, 5000}} {
		keys := collidingKeys(c.keys)
		d := math.MaxUint64 - uint64(c.k)
		s := New(c.k, d)
		g0, tag0 := s.hash(keys[0])
		for _, x := range keys {
			if g, tag := s.hash(x); g != g0 || tag != tag0 || uint64(x) > d {
				t.Fatalf("k=%d: key %d hashes to group %d tag %#x, want %d %#x, in [1,%d]", c.k, x, g, tag, g0, tag0, d)
			}
		}
		rng := rand.New(rand.NewPCG(uint64(c.k), 29))
		str := make(stream.Stream, c.n)
		for i := range str {
			// Half the draws come from a few heavy keys, so counters grow
			// and censuses happen; the rest churn through the key set.
			if rng.IntN(2) == 0 {
				str[i] = keys[rng.IntN(c.k/2)]
			} else {
				str[i] = keys[rng.IntN(len(keys))]
			}
		}
		st := runIndexed(t, c.k, d, str, 499)
		if !st.overflowed || !st.tombstones || st.rebuilds == 0 {
			t.Fatalf("k=%d: stream did not exercise the index: %+v", c.k, st)
		}
	}
}
