package encoding

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"dpmg/internal/merge"
)

// The documents under testdata/golden were written by the io.Writer codec
// this package had before the slice codec replaced it (commit c3e84ea:
// MarshalSummary, MarshalSketch, MarshalManager and MarshalStream over
// managerFixture — summary = tenant-a's aggregate, counters = tenant-b's
// shard, stream = tenant-a with tallies (3, 7) in both entry formats). They
// are never regenerated: the bytes on the wire must not move.
var goldens = []struct {
	file string
	// reencode decodes the document and encodes the decoded state again.
	reencode func(p []byte) ([]byte, error)
}{
	{"summary_fixed.bin", func(p []byte) ([]byte, error) {
		k, keys, vals, err := DecodeSummaryColumns(p, nil, nil)
		if err != nil {
			return nil, err
		}
		s, err := merge.FromSorted(k, keys, vals)
		if err != nil {
			return nil, err
		}
		return AppendSummary(nil, s), nil
	}},
	{"counters_fixed.bin", func(p []byte) ([]byte, error) {
		w, err := UnmarshalSketch(bytes.NewReader(p))
		if err != nil {
			return nil, err
		}
		sk, err := restoreWire(w)
		if err != nil {
			return nil, err
		}
		return appendSketch(nil, sk, formatFixed), nil
	}},
	{"manager.bin", func(p []byte) ([]byte, error) {
		states, err := decodeManager(p)
		if err != nil {
			return nil, err
		}
		for i := range states {
			states[i], _ = remarshalable(states[i])
		}
		return appendManager(nil, states)
	}},
	{"stream_delta.bin", reencodeStream},
	// Decode-only in production: nothing writes a fixed-entry offload
	// record any more, but ones already on disk must keep loading.
	{"stream_fixed_legacy.bin", reencodeStream},
}

func reencodeStream(p []byte) ([]byte, error) {
	s, err := DecodeStream(p)
	if err != nil {
		return nil, err
	}
	re, _ := remarshalable(*s)
	return appendStream(nil, &re, format(p[4]))
}

func readGolden(t *testing.T, file string) []byte {
	t.Helper()
	p, err := os.ReadFile(filepath.Join("testdata", "golden", file))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWireGolden pins every kind's bytes against documents the previous
// codec wrote: each decodes and re-encodes to the identical bytes, and
// every strict prefix is refused without a panic — the decoders index
// their input directly, so truncation is where they would break.
func TestWireGolden(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.file, func(t *testing.T) {
			doc := readGolden(t, g.file)
			got, err := g.reencode(doc)
			if err != nil {
				t.Fatalf("golden rejected: %v", err)
			}
			if !bytes.Equal(got, doc) {
				t.Errorf("re-encoded bytes differ from the golden:\n got  %x\n want %x", got, doc)
			}
			for cut := 0; cut < len(doc); cut++ {
				if _, err := g.reencode(doc[:cut:cut]); err == nil {
					t.Fatalf("prefix of %d/%d bytes accepted", cut, len(doc))
				}
			}
		})
	}

	// The legacy record holds the same state as the delta one, and what it
	// decodes to is written back out as the delta record.
	legacy, err := DecodeStream(readGolden(t, "stream_fixed_legacy.bin"))
	if err != nil {
		t.Fatal(err)
	}
	delta := readGolden(t, "stream_delta.bin")
	current, err := DecodeStream(delta)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy, current) {
		t.Error("legacy fixed record and delta record decode to different states")
	}
	re, _ := remarshalable(*legacy)
	if got, err := AppendStream(nil, &re); err != nil || !bytes.Equal(got, delta) {
		t.Errorf("legacy record does not re-offload to the delta golden (err %v)", err)
	}

	// Fresh state still encodes to the goldens, so the encoders are pinned
	// independently of the decoders.
	states := managerFixture(t)
	var mgr bytes.Buffer
	if err := MarshalManager(&mgr, states); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mgr.Bytes(), readGolden(t, "manager.bin")) {
		t.Error("MarshalManager(fixture) differs from manager.bin")
	}
}

// TestHeaderCannotDriveAllocation: a bare 46-byte header announcing
// k = entries = 2^30 used to size the decode columns (16 GiB) before the
// first entry was read. Every kind goes through the one entry decoder,
// which bounds the count by the bytes present first.
func TestHeaderCannotDriveAllocation(t *testing.T) {
	const huge = 1 << 30
	for _, tc := range []struct {
		name   string
		doc    []byte
		decode func([]byte) error
	}{
		{"summary fixed", appendHeader(nil, header{Kind: KindSummary, K: huge, Entries: huge}, formatFixed),
			func(p []byte) error { _, err := UnmarshalSummary(bytes.NewReader(p)); return err }},
		{"summary delta", appendHeader(nil, header{Kind: KindSummary, K: huge, Entries: huge}, formatDelta),
			func(p []byte) error { _, _, _, err := DecodeSummaryColumns(p, nil, nil); return err }},
		{"counters fixed", appendHeader(nil, header{Kind: KindCounters, K: huge, Universe: 1, Entries: huge}, formatFixed),
			func(p []byte) error { _, err := UnmarshalSketch(bytes.NewReader(p)); return err }},
		{"counters delta", appendHeader(nil, header{Kind: KindCounters, K: huge, Universe: 1, Entries: huge}, formatDelta),
			func(p []byte) error { _, err := UnmarshalSketch(bytes.NewReader(p)); return err }},
		{"manager streams", appendHeader(nil, header{Kind: KindManager, Entries: maxStreams}, formatFixed),
			func(p []byte) error { _, err := decodeManager(p); return err }},
	} {
		if len(tc.doc) != headerWireLen {
			t.Fatalf("%s: document is %d bytes, want a bare header", tc.name, len(tc.doc))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.decode(tc.doc)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: bare header accepted", tc.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: refusing a %d-byte document allocated %d bytes, want < 1 MiB", tc.name, len(tc.doc), got)
		}
	}
}
