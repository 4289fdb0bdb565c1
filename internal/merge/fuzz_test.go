package merge

import (
	"testing"

	"dpmg/internal/hist"
	"dpmg/internal/mg"
	"dpmg/internal/stream"
)

// FuzzMergeErrorBound splits arbitrary bytes into two streams, merges their
// summaries, and checks the Lemma 29 bound plus the size cap.
func FuzzMergeErrorBound(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5}, []byte{3, 5, 4, 3, 2, 1})
	f.Add([]byte{1, 0}, []byte{1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, d1, d2 []byte) {
		if len(d1) < 1 || len(d2) < 1 {
			return
		}
		k := int(d1[0]%6) + 1
		d := uint64(8)
		mkStream := func(raw []byte) stream.Stream {
			var s stream.Stream
			for _, b := range raw {
				s = append(s, stream.Item(uint64(b)%d+1))
			}
			return s
		}
		s1, s2 := mkStream(d1[1:]), mkStream(d2)
		sum := func(s stream.Stream) *Summary {
			sk := mg.New(k, d)
			sk.Process(s)
			out, err := FromCounters(k, d, sk.Counters())
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		merged, err := Merge(sum(s1), sum(s2))
		if err != nil {
			t.Fatal(err)
		}
		if merged.Len() > k {
			t.Fatalf("merged holds %d > k counters", merged.Len())
		}
		all := append(append(stream.Stream{}, s1...), s2...)
		f := hist.Exact(all)
		slack := int64(len(all)) / int64(k+1)
		for x, fx := range f {
			est := merged.Estimate(x)
			if est > fx || est < fx-slack {
				t.Fatalf("Lemma 29 violated at %d: est %d true %d slack %d", x, est, fx, slack)
			}
		}
		for _, c := range merged.Counts() {
			if c <= 0 {
				t.Fatal("non-positive merged counter")
			}
		}
	})
}

// FuzzMergeEquivalence is the merge-tier analogue of mg's
// FuzzUpdateEquivalence: it builds a random set of summaries from arbitrary
// bytes and checks that the flat MergeAll produces exactly the counter
// table of the map-based reference implementation (ref_test.go), and that a
// reused Merger agrees with the package function. The seeds cover 1, 2, 3,
// 5 and 33 inputs: odd counts leave a lone input at some tree level.
func FuzzMergeEquivalence(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 0, 9, 9, 9, 1, 2})
	f.Add([]byte{1, 7, 0, 7, 0, 7})
	f.Add([]byte{6, 1, 1, 2, 2, 3, 3, 0, 4, 4, 0, 5, 5, 6})
	f.Add([]byte{4, 1, 2, 3, 1, 2, 1})
	f.Add([]byte{2, 1, 2, 3, 0, 4, 5, 0, 6, 7, 0, 1, 1, 0, 3, 8})
	wide := []byte{5}
	for part := 0; part < 33; part++ {
		wide = append(wide, byte(part%7+1), byte(part%5+1), byte(part%3+1), 0)
	}
	f.Add(wide)
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 2 {
			return
		}
		k := int(raw[0]%6) + 1
		d := uint64(8)
		// Split the remaining bytes into parts at zero bytes; each part is
		// one stream, each stream one summary.
		var summaries []*Summary
		sk := mg.New(k, d)
		n := 0
		flush := func() {
			if n == 0 {
				return
			}
			out, err := FromCounters(k, d, sk.Counters())
			if err != nil {
				t.Fatal(err)
			}
			summaries = append(summaries, out)
			sk = mg.New(k, d)
			n = 0
		}
		for _, b := range raw[1:] {
			if b == 0 {
				flush()
				continue
			}
			sk.Update(stream.Item(uint64(b)%d + 1))
			n++
		}
		flush()
		if len(summaries) == 0 {
			return
		}
		want := mergeAllRef(summaries)
		got, err := MergeAll(summaries)
		if err != nil {
			t.Fatal(err)
		}
		if err := equalToRef(got, want); err != nil {
			t.Fatalf("flat MergeAll diverges from map reference: %v", err)
		}
		// A reused Merger must agree with the one-shot path call after call.
		var m Merger
		for rep := 0; rep < 2; rep++ {
			res, err := m.MergeAll(summaries)
			if err != nil {
				t.Fatal(err)
			}
			if err := equalToRef(res, want); err != nil {
				t.Fatalf("rep %d: Merger diverges from reference: %v", rep, err)
			}
		}
	})
}
