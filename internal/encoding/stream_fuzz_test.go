package encoding

import (
	"bytes"
	"testing"

	"dpmg/internal/mg"
	"dpmg/internal/stream"
)

// FuzzUnmarshalStream is FuzzUnmarshalManager's sibling for standalone
// offload records: the decoder must never panic, and any accepted record
// whose shard states also pass the deep mg.RestoreColumns validation must
// re-encode to exactly the bytes it decoded from.
func FuzzUnmarshalStream(f *testing.F) {
	sk := mg.New(3, 9)
	for _, x := range []stream.Item{1, 2, 2, 3, 9, 9, 9} {
		sk.Update(x)
	}
	var seed bytes.Buffer
	if err := MarshalStream(&seed, &StreamState{
		Name: "s0", K: 3, Universe: 9, Shards: 1,
		BudgetEps: 1, BudgetDelta: 0.25, SpentEps: 0.5, SpentDelta: 0.125,
		Releases: 1, Batches: 2, Ingested: 7,
		ShardSketches:  []*mg.Sketch{sk},
		AggCounters:    0,
		IngestCounters: 3,
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("DPMG"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeStream(data)
		if err != nil {
			return
		}
		remarshal, ok := remarshalable(*s)
		if !ok {
			// Structurally valid wire whose Algorithm 1 bookkeeping fails
			// the deep validation; dpmg's fault-in rejects it the same
			// way. Nothing to round-trip.
			return
		}
		out, err := appendStream(nil, &remarshal, format(data[4]))
		if err != nil {
			t.Fatalf("accepted record does not re-marshal: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("decode∘encode is not the identity:\n in  %x\n out %x", data, out)
		}
	})
}
