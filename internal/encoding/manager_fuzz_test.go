package encoding

import (
	"bytes"
	"testing"

	"dpmg/internal/mg"
	"dpmg/internal/stream"
)

// FuzzUnmarshalManager feeds arbitrary bytes — including mutations of a
// genuine snapshot seeded into the corpus — to the manager-snapshot
// decoder. The decoder must never panic, and any accepted document whose
// shard states also pass the deep mg.RestoreColumns validation (the full
// dpmg.RestoreManager acceptance bar) must re-encode to exactly the bytes
// it decoded from: canonical form means decode∘encode is the identity.
func FuzzUnmarshalManager(f *testing.F) {
	sk := mg.New(3, 9)
	for _, x := range []stream.Item{1, 2, 2, 3, 9, 9, 9} {
		sk.Update(x)
	}
	var seed bytes.Buffer
	if err := MarshalManager(&seed, []StreamState{{
		Name: "s0", K: 3, Universe: 9, Shards: 1,
		BudgetEps: 1, BudgetDelta: 0.25, SpentEps: 0.5, SpentDelta: 0.125,
		Releases: 1, Batches: 2, Ingested: 7,
		ShardSketches: []*mg.Sketch{sk},
	}}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("DPMG"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		states, err := decodeManager(data)
		if err != nil {
			return
		}
		// Accepted documents round-trip canonically: re-marshaling from the
		// decoded wires must reproduce the input bytes exactly.
		remarshal := make([]StreamState, len(states))
		for i, s := range states {
			var ok bool
			if remarshal[i], ok = remarshalable(s); !ok {
				// Structurally valid wire whose Algorithm 1 bookkeeping
				// fails the deep Fact 7 validation: the encoding layer
				// accepts it, dpmg.RestoreManager rejects it via the same
				// mg.RestoreColumns error. Nothing to round-trip.
				return
			}
		}
		out, err := appendManager(nil, remarshal)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-marshal: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted snapshot is not canonical:\n in %x\nout %x", data, out)
		}
	})
}
