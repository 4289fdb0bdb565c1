package main

import (
	"bytes"
	"testing"

	"dpmg/internal/cluster"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

// itemsOf builds an item slice.
func itemsOf(xs ...stream.Item) []stream.Item { return xs }

// payloads concatenates the wire bytes of every frame.
func payloads(frames []frame) []byte {
	var b []byte
	for _, f := range frames {
		b = append(b, f.payload...)
	}
	return b
}

func TestSameSeedSamePayloadBytes(t *testing.T) {
	// A small universe keeps the Zipf table cheap; the generator code is the
	// same one the workloads call.
	zipf := func(seed uint64) []byte {
		return payloads(zipfFrames(workload.NewZipfian(1<<10, zipfSkew, subSeed(seed, "zipf-tcp")), 4, 512))
	}
	hot := func(seed uint64) []byte {
		return payloads(hotFrames(subSeed(seed, "ingest-0"), hotKeys, 4, hotFrameLen))
	}
	for name, gen := range map[string]func(uint64) []byte{"zipf": zipf, "hot": hot} {
		a, b, c := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different payload bytes", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same payload bytes", name)
		}
		if len(a) == 0 || len(a)%8 != 0 {
			t.Errorf("%s: %d payload bytes", name, len(a))
		}
	}
	if subSeed(1, "a") == subSeed(1, "b") || subSeed(1, "a") == subSeed(2, "a") {
		t.Error("subSeed must separate both seeds and tags")
	}
}

func TestHotFramesStayWithinTheirKeys(t *testing.T) {
	seen := make(map[uint64]bool)
	for _, f := range hotFrames(3, hotKeys, 8, hotFrameLen) {
		if len(f.items) != hotFrameLen {
			t.Fatalf("frame of %d items", len(f.items))
		}
		for _, x := range f.items {
			if x == 0 || uint64(x) > universe {
				t.Fatalf("item %d outside the universe", x)
			}
			seen[uint64(x)] = true
		}
	}
	if len(seen) > hotKeys || hotKeys >= sketchK {
		t.Errorf("%d distinct items from %d keys with k=%d: the workload must fit in the counters", len(seen), hotKeys, sketchK)
	}
}

func TestTruthAndTop(t *testing.T) {
	frames := []frame{{items: itemsOf(1, 1, 2)}, {items: itemsOf(2, 3, 3)}, {items: itemsOf(9)}}
	counts := truth(frames, []int64{2, 3, 0})
	if counts[1] != 4 || counts[2] != 5 || counts[3] != 6 || counts[9] != 0 {
		t.Errorf("counts 1:%d 2:%d 3:%d 9:%d", counts[1], counts[2], counts[3], counts[9])
	}
	top := topOf(counts, 2)
	if len(top) != 2 || top[0] != (itemCount{3, 6}) || top[1] != (itemCount{2, 5}) {
		t.Errorf("top = %v", top)
	}
}

func TestShipPayloadPatchRoundTrips(t *testing.T) {
	vs, err := summaryVariants(workload.NewZipfian(1<<10, zipfSkew, 5), 1, 2048)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newShipPayload(vs[0].sum, len("fold-00"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		seq  uint64
	}{{"fold-07", 1}, {"fold-63", 1 << 40}} {
		buf, err := p.patch(c.name, c.seq)
		if err != nil {
			t.Fatal(err)
		}
		name, seq, sum, err := cluster.DecodeSummaryPayload(buf)
		if err != nil {
			t.Fatal(err)
		}
		if name != c.name || seq != c.seq || sum.Len() != vs[0].sum.Len() || sum.K != sketchK {
			t.Errorf("decoded (%q, %d, %d counters); want (%q, %d, %d)", name, seq, sum.Len(), c.name, c.seq, vs[0].sum.Len())
		}
	}
	if _, err := p.patch("fold-100", 1); err == nil {
		t.Error("a name of another length must be refused: it would shift the sequence number")
	}
}
