package encoding

import (
	"bytes"
	"testing"

	"dpmg/internal/core"
	"dpmg/internal/mg"
	"dpmg/internal/noise"
	"dpmg/internal/stream"
)

// FuzzSketchSnapshotRoundTrip is the snapshot/restore safety net for the
// unified release API: for fuzz-shaped streams, a sketch restored from its
// wire state must (a) report identical observables, (b) release
// byte-identically to the original under the same seed — both the
// continuous and the discrete mechanism, which between them consume the
// noise source through every draw path — and (c) keep behaving identically
// when the stream continues after the restore.
func FuzzSketchSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte{3, 5, 1, 2, 3, 4, 5, 1, 1, 2})
	f.Add([]byte{1, 3, 9, 9, 9, 9})
	f.Add([]byte{8, 2, 1, 0, 1, 0, 1, 0, 1, 6, 6, 6, 6, 6, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		k := int(data[0]%8) + 1
		d := uint64(data[1]%12) + 2
		cut := int(data[2]) // stream position of the snapshot
		sk := mg.New(k, d)
		rest := make([]stream.Item, 0, len(data))
		for i, b := range data[3:] {
			x := stream.Item(uint64(b)%d + 1)
			if i < cut {
				sk.Update(x)
			} else {
				rest = append(rest, x)
			}
		}

		var buf bytes.Buffer
		if err := MarshalSketch(&buf, sk); err != nil {
			t.Fatal(err)
		}
		wire, err := UnmarshalSketch(&buf)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := restoreWire(wire)
		if err != nil {
			t.Fatalf("genuine snapshot rejected: %v", err)
		}

		compare := func(stage string, a, b *mg.Sketch) {
			t.Helper()
			if a.N() != b.N() || a.K() != b.K() || a.Universe() != b.Universe() ||
				a.Decrements() != b.Decrements() {
				t.Fatalf("%s: bookkeeping drift", stage)
			}
			for x := stream.Item(1); uint64(x) <= d; x++ {
				if a.Estimate(x) != b.Estimate(x) {
					t.Fatalf("%s: estimate drift at %d: %d vs %d", stage, x, a.Estimate(x), b.Estimate(x))
				}
			}
			p := core.Params{Eps: 1, Delta: 1e-6}
			seed := uint64(len(rest))*2654435761 + 42
			ra, errA := core.Release(a, p, noise.NewSource(seed))
			rb, errB := core.Release(b, p, noise.NewSource(seed))
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s: release error drift: %v vs %v", stage, errA, errB)
			}
			if len(ra) != len(rb) {
				t.Fatalf("%s: release support drift: %d vs %d", stage, len(ra), len(rb))
			}
			for x, v := range ra {
				if rb[x] != v {
					t.Fatalf("%s: release value drift at %d: %v vs %v", stage, x, rb[x], v)
				}
			}
			ga, errA := core.ReleaseGeometric(a, p, noise.NewSource(seed))
			gb, errB := core.ReleaseGeometric(b, p, noise.NewSource(seed))
			if (errA == nil) != (errB == nil) || len(ga) != len(gb) {
				t.Fatalf("%s: geometric release drift", stage)
			}
			for x, v := range ga {
				if gb[x] != v {
					t.Fatalf("%s: geometric value drift at %d", stage, x)
				}
			}
		}

		compare("at snapshot", sk, restored)
		for _, x := range rest {
			sk.Update(x)
			restored.Update(x)
		}
		compare("after continued ingest", sk, restored)
	})
}
