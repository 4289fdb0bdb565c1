package encoding

import (
	"bytes"
	"reflect"
	"testing"

	"dpmg/internal/merge"
	"dpmg/internal/mg"
	"dpmg/internal/stream"
)

// FuzzUnmarshalSummary throws arbitrary bytes at the decoder: it must
// either return an error or a structurally valid summary, never panic and
// never allocate unboundedly (entries are capped by k and by the bytes
// actually present).
func FuzzUnmarshalSummary(f *testing.F) {
	f.Add([]byte("DPMG"))
	f.Add([]byte("DPMG\x01\x01" + string(make([]byte, 40))))
	f.Add([]byte{})
	// A bare header announcing k = entries = 2^30: must be refused before
	// anything is sized from it (TestHeaderCannotDriveAllocation).
	f.Add(appendHeader(nil, header{Kind: KindSummary, K: 1 << 30, Entries: 1 << 30}, formatFixed))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalSummary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if s.K <= 0 || s.Len() > s.K {
			t.Fatalf("decoder returned invalid summary: k=%d entries=%d", s.K, s.Len())
		}
		for _, c := range s.Counts() {
			if c <= 0 {
				t.Fatal("decoder returned non-positive counter")
			}
		}
		// A decoded summary must re-encode and decode to itself.
		var buf bytes.Buffer
		if err := MarshalSummary(&buf, s); err != nil {
			t.Fatal(err)
		}
		s2, err := UnmarshalSummary(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if s2.K != s.K || s2.Len() != s.Len() {
			t.Fatal("re-encode not stable")
		}
	})
}

// FuzzRoundTrip drives fuzz-shaped streams through a real Algorithm 1
// sketch and asserts that every wire kind round-trips losslessly:
// marshal(state) → unmarshal → identical state. Together with
// FuzzUnmarshalSummary (decoder robustness on arbitrary bytes) this pins
// the wire format from both directions.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{3, 5, 1, 2, 3, 4, 5, 1, 1, 2})
	f.Add([]byte{1, 9, 0, 0, 0, 7, 7, 7})
	f.Add([]byte{8, 2, 1, 0, 1, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := int(data[0]%8) + 1
		d := uint64(data[1]%12) + 2
		sk := mg.New(k, d)
		items := make([]stream.Item, 0, len(data)-2)
		for _, b := range data[2:] {
			x := stream.Item(uint64(b)%d + 1)
			items = append(items, x)
			sk.Update(x)
		}

		// Full Algorithm 1 state (KindCounters).
		var buf bytes.Buffer
		if err := MarshalSketch(&buf, sk); err != nil {
			t.Fatal(err)
		}
		wire, err := UnmarshalSketch(&buf)
		if err != nil {
			t.Fatalf("sketch round trip failed: %v", err)
		}
		if wire.K != sk.K() || wire.Universe != sk.Universe() ||
			wire.N != sk.N() || wire.Decrements != sk.Decrements() {
			t.Fatalf("sketch header mutated: %+v vs k=%d d=%d n=%d decs=%d",
				wire, sk.K(), sk.Universe(), sk.N(), sk.Decrements())
		}
		if !reflect.DeepEqual(wireCounts(wire), sk.Counters()) {
			t.Fatalf("sketch counters mutated: %v vs %v", wireCounts(wire), sk.Counters())
		}

		// Mergeable summary (KindSummary).
		sum, err := merge.FromCounters(k, d, sk.Counters())
		if err != nil {
			t.Fatal(err)
		}
		buf.Reset()
		if err := MarshalSummary(&buf, sum); err != nil {
			t.Fatal(err)
		}
		sum2, err := UnmarshalSummary(&buf)
		if err != nil {
			t.Fatalf("summary round trip failed: %v", err)
		}
		if sum2.K != sum.K || !reflect.DeepEqual(sum2.CountsMap(), sum.CountsMap()) {
			t.Fatalf("summary mutated: %+v vs %+v", sum2.CountsMap(), sum.CountsMap())
		}

		// Raw item batch (the /v1/batch body format).
		buf.Reset()
		if err := MarshalItems(&buf, items); err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalItems(&buf, len(items)+1)
		if err != nil {
			t.Fatalf("items round trip failed: %v", err)
		}
		if len(got) != len(items) {
			t.Fatalf("items length mutated: %d vs %d", len(got), len(items))
		}
		for i := range got {
			if got[i] != items[i] {
				t.Fatalf("item %d mutated: %d vs %d", i, got[i], items[i])
			}
		}
	})
}
