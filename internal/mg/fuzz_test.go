package mg

import (
	"math"
	"math/rand/v2"
	"testing"

	"dpmg/internal/hist"
	"dpmg/internal/mg/mgref"
	"dpmg/internal/stream"
)

// decodeStream maps fuzz bytes to a stream over a small universe plus the
// sketch parameters, so the fuzzer explores branch interleavings densely.
func decodeStream(data []byte) (k int, d uint64, str stream.Stream) {
	if len(data) < 2 {
		return 1, 2, nil
	}
	k = int(data[0]%8) + 1
	d = uint64(data[1]%12) + 2
	for _, b := range data[2:] {
		str = append(str, stream.Item(uint64(b)%d+1))
	}
	return k, d, str
}

// FuzzSketchInvariants drives Algorithm 1 with arbitrary inputs and checks
// every structural invariant: exactly k stored keys, Fact 7 estimate
// bounds, decrement accounting, and estimate equality with the standard
// variant.
func FuzzSketchInvariants(f *testing.F) {
	f.Add([]byte{3, 5, 1, 2, 3, 4, 5, 1, 1, 2})
	f.Add([]byte{1, 2, 0, 1, 0, 1, 0})
	f.Add([]byte{7, 11, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		k, d, str := decodeStream(data)
		paper := New(k, d)
		std := NewStandard(k)
		for _, x := range str {
			paper.Update(x)
			std.Update(x)
		}
		if paper.Len() != k {
			t.Fatalf("stored %d keys, want exactly k=%d", paper.Len(), k)
		}
		if paper.Decrements() != std.Decrements() {
			t.Fatalf("decrement mismatch: %d vs %d", paper.Decrements(), std.Decrements())
		}
		n := int64(len(str))
		if paper.Decrements() > n/int64(k+1) {
			t.Fatalf("decrements %d exceed n/(k+1)", paper.Decrements())
		}
		f := hist.Exact(str)
		slack := n / int64(k+1)
		for x := stream.Item(1); uint64(x) <= d; x++ {
			est := paper.Estimate(x)
			if est != std.Estimate(x) {
				t.Fatalf("variant estimates differ at %d: %d vs %d", x, est, std.Estimate(x))
			}
			if est > f[x] || est < f[x]-slack {
				t.Fatalf("Fact 7 violated at %d: est %d true %d slack %d", x, est, f[x], slack)
			}
		}
	})
}

// decodeEquivalence is decodeStream, except that a first byte with its high
// bit set selects k = (byte&31)+1 and maps each following byte to one of
// 3k collidingKeys over the widest universe k admits. Those items share one
// home group and one tag, so the fuzzer drives the index's overflow,
// tombstone and rebuild paths. probes are the items whose estimates are
// compared: the whole universe of a small one, the key set of a wide one.
func decodeEquivalence(data []byte) (k int, d uint64, str stream.Stream, probes []stream.Item) {
	if len(data) < 2 || data[0] < 0x80 {
		k, d, str = decodeStream(data)
		for y := stream.Item(1); uint64(y) <= d; y++ {
			probes = append(probes, y)
		}
		return k, d, str, probes
	}
	k = int(data[0]&31) + 1
	probes = collidingKeys(3 * k)
	for _, b := range data[1:] {
		str = append(str, probes[int(b)%len(probes)])
	}
	return k, math.MaxUint64 - uint64(k), str, probes
}

// FuzzUpdateEquivalence is the differential-fuzzing half of the flat-core
// harness: the fuzzer explores streams over tiny universes (dense branch
// interleavings, constant eviction churn) and over colliding keys, and the
// flat Sketch must stay byte-identical to the map-based Ref at every step —
// counters, estimates, decrement count, and release key order — with a
// consistent index. Divergence on any input is a bug in the flat rewrite,
// found without knowing the expected output.
func FuzzUpdateEquivalence(f *testing.F) {
	f.Add([]byte{3, 5, 1, 2, 3, 4, 5, 1, 1, 2})
	f.Add([]byte{1, 2, 0, 1, 0, 1, 0})
	f.Add([]byte{4, 3, 0, 1, 2, 0, 1, 2, 0, 1, 2})
	f.Add([]byte{7, 11, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	// Colliding keys: half the draws from k/2 heavy keys, so censuses run,
	// the rest churning through all 3k.
	rng := rand.New(rand.NewPCG(31, 37))
	for _, k := range []int{8, 16, 32} {
		data := []byte{0x80 | byte(k-1)}
		for i := 0; i < 1500; i++ {
			if rng.IntN(2) == 0 {
				data = append(data, byte(rng.IntN(k/2)))
			} else {
				data = append(data, byte(rng.IntN(3*k)))
			}
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		k, d, str, probes := decodeEquivalence(data)
		flat := New(k, d)
		ref := mgref.NewRef(k, d)
		for i, x := range str {
			flat.Update(x)
			ref.Update(x)
			checkIndex(t, flat)
			if flat.Decrements() != ref.Decrements() {
				t.Fatalf("step %d: decrements flat %d ref %d", i, flat.Decrements(), ref.Decrements())
			}
			for _, y := range probes {
				if flat.Estimate(y) != ref.Estimate(y) {
					t.Fatalf("step %d item %d: estimate flat %d ref %d",
						i, y, flat.Estimate(y), ref.Estimate(y))
				}
			}
		}
		fc, rc := flat.Counters(), ref.Counters()
		if len(fc) != len(rc) {
			t.Fatalf("counter tables differ in size: %v vs %v", fc, rc)
		}
		for x, c := range rc {
			if fc[x] != c {
				t.Fatalf("counter[%d]: flat %d ref %d", x, fc[x], c)
			}
		}
		fk, rk := flat.SortedKeys(), ref.SortedKeys()
		for i := range rk {
			if fk[i] != rk[i] {
				t.Fatalf("sorted key %d: flat %d ref %d", i, fk[i], rk[i])
			}
		}
	})
}

// FuzzLemma8 drives random neighbor pairs through Algorithm 1 and checks
// the full Lemma 8 structure.
func FuzzLemma8(f *testing.F) {
	f.Add([]byte{3, 5, 1, 2, 3, 4, 5, 1, 1, 2}, uint16(3))
	f.Add([]byte{2, 3, 0, 1, 2, 0, 1, 2, 0}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, pos uint16) {
		k, d, str := decodeStream(data)
		if len(str) == 0 {
			return
		}
		idx := int(pos) % len(str)
		a := New(k, d)
		a.Process(str)
		b := New(k, d)
		b.Process(str.RemoveAt(idx))
		if err := CheckNeighborStructure(k, a.Counters(), b.Counters()); err != nil {
			t.Fatalf("k=%d d=%d idx=%d: %v\nstream=%v", k, d, idx, err, str)
		}
	})
}
