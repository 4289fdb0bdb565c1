package mg

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"dpmg/internal/stream"
)

// zeroOrderTotals are values of d+k on both sides of every point where
// orderZeros gains a radix pass, plus universes wider than 32 bits.
var zeroOrderTotals = []uint64{
	1<<8 - 1, 1 << 8, 1<<16 - 1, 1 << 16, 1<<24 - 1, 1 << 24, 1<<32 - 1, 1 << 32,
	1<<40 + 12345, 1<<48 - 1, 1 << 56, 1<<63 + 99,
}

// zeroListSketch returns a sketch with d+k = total whose slots hold keys
// and whose epoch zero list is every slot id, in slot order. orderZeros
// reads only the slot keys and the zero list, so the index is left alone.
func zeroListSketch(total uint64, keys []uint64) *Sketch {
	k := len(keys)
	s := New(k, total-uint64(k))
	s.zeros = s.zeros[:0]
	for i, key := range keys {
		s.slots[i].key = stream.Item(key)
		s.zeros = append(s.zeros, int32(i))
	}
	return s
}

// checkZeroOrder runs orderZeros and compares with a comparison sort of
// the same ids by key.
func checkZeroOrder(t *testing.T, s *Sketch) {
	t.Helper()
	want := slices.Clone(s.zeros)
	sort.Slice(want, func(i, j int) bool { return s.slots[want[i]].key < s.slots[want[j]].key })
	s.orderZeros()
	if !slices.Equal(s.zeros, want) {
		t.Fatalf("d+k=%d passes=%d n=%d: order diverges from reference sort\ngot  %v\nwant %v",
			s.universe+uint64(s.k), s.passes, len(want), s.zeros, want)
	}
	if cap(s.zeros) != s.k || cap(s.zspare) != s.k {
		t.Fatalf("buffer swap lost capacity: zeros %d spare %d, want k=%d", cap(s.zeros), cap(s.zspare), s.k)
	}
}

// distinctKeys draws n distinct keys from [lo, hi].
func distinctKeys(rng *rand.Rand, n int, lo, hi uint64) []uint64 {
	seen := make(map[uint64]bool, n)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		x := lo + rng.Uint64N(hi-lo+1)
		if !seen[x] {
			seen[x] = true
			keys = append(keys, x)
		}
	}
	return keys
}

func TestZeroOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for _, total := range zeroOrderTotals {
		wantPasses := 1
		for total>>(8*wantPasses) != 0 {
			wantPasses++
		}
		spreads := map[string]func(n int) []uint64{
			"full": func(n int) []uint64 { return distinctKeys(rng, n, 1, total) },
			// At most the low two bytes differ: every higher pass is skipped.
			"low-bytes": func(n int) []uint64 { return distinctKeys(rng, n, total-254, total) },
		}
		if total>>8 > 254 {
			// Byte 0 is shared, so the skipped pass is the first one.
			spreads["high-bytes"] = func(n int) []uint64 {
				keys := distinctKeys(rng, n, 0, total>>8-1)
				for i := range keys {
					keys[i] = keys[i]<<8 | 7
				}
				return keys
			}
		}
		for name, gen := range spreads {
			for _, n := range []int{1, 2, zeroInsertionMax, zeroInsertionMax + 1, 64, 205, 254} {
				t.Run(fmt.Sprintf("total=%d/%s/n=%d", total, name, n), func(t *testing.T) {
					s := zeroListSketch(total, gen(n))
					if s.passes != wantPasses {
						t.Fatalf("%d passes, want %d", s.passes, wantPasses)
					}
					checkZeroOrder(t, s)
					rng.Shuffle(len(s.zeros), func(i, j int) { s.zeros[i], s.zeros[j] = s.zeros[j], s.zeros[i] })
					s.zeros = s.zeros[:len(s.zeros)*2/3] // a partial zero list, as after recoveries
					checkZeroOrder(t, s)
				})
			}
		}
	}
}

// FuzzZeroOrder compares orderZeros with a comparison sort on arbitrary key
// sets: sel picks d+k from zeroOrderTotals, so every pass count is fuzzed,
// and each 8 bytes of data give one key, so the fuzzer controls both the
// digits the keys share and the arrival order of the list.
func FuzzZeroOrder(f *testing.F) {
	rng := rand.New(rand.NewPCG(11, 13))
	for sel := range zeroOrderTotals {
		for _, n := range []int{3, 40, 250} {
			data := make([]byte, 8*n)
			for i := range data {
				data[i] = byte(rng.Uint32())
			}
			f.Add(uint8(sel), data)
		}
	}
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		total := zeroOrderTotals[int(sel)%len(zeroOrderTotals)]
		seen := make(map[uint64]bool)
		var keys []uint64
		for ; len(data) >= 8 && len(keys) < 254; data = data[8:] {
			x := binary.LittleEndian.Uint64(data)%total + 1
			if !seen[x] {
				seen[x] = true
				keys = append(keys, x)
			}
		}
		if len(keys) == 0 {
			return
		}
		checkZeroOrder(t, zeroListSketch(total, keys))
	})
}

// BenchmarkZeroOrder is one epoch's ordering on the serving shape (k=256,
// d=2^20, three radix passes) at zero-list lengths from a nearly consumed
// epoch to a full table; 205 is the mean census of the zipf-tcp workload.
// Iterations cycle through 512 different lists, because a comparison sort
// timed on one repeated list has its branches learned by the predictor and
// looks several times faster than it is on a stream. Each iteration copies
// its list in first.
func BenchmarkZeroOrder(b *testing.B) {
	const k, d, lists = 256, 1 << 20, 512
	rng := rand.New(rand.NewPCG(1, 2))
	s := zeroListSketch(d+k, distinctKeys(rng, k, 1, d))
	var ids [lists][]int32
	for l := range ids {
		ids[l] = slices.Clone(s.zeros)
		rng.Shuffle(k, func(i, j int) { ids[l][i], ids[l][j] = ids[l][j], ids[l][i] })
	}
	for _, n := range []int{16, 64, 205, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.zeros = append(s.zeros[:0], ids[i%lists][:n]...)
				s.orderZeros()
			}
		})
	}
}
