package encoding

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"dpmg/internal/merge"
	"dpmg/internal/mg"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

// remarshalable returns s with ShardSketches rebuilt from its decoded
// wires, ready to be encoded again; ok is false when a wire is structurally
// valid but fails mg's deep Algorithm 1 validation.
func remarshalable(s StreamState) (StreamState, bool) {
	s.ShardSketches = make([]*mg.Sketch, len(s.ShardWires))
	for j, w := range s.ShardWires {
		sk, err := restoreWire(w)
		if err != nil {
			return s, false
		}
		s.ShardSketches[j] = sk
	}
	return s, true
}

// TestDeltaStreamRoundTrip: an offload record is written delta-varint,
// decodes to the same state as the fixed-entry form earlier builds wrote,
// and re-marshals byte-identically (the double-offload idempotence
// property); a decoded legacy record re-marshals to the delta bytes.
func TestDeltaStreamRoundTrip(t *testing.T) {
	s := streamFixture(t)
	delta, err := AppendStream(nil, &s)
	if err != nil {
		t.Fatal(err)
	}
	if format(delta[4]) != formatDelta {
		t.Fatalf("offload record written as version %d, want %d", delta[4], formatDelta)
	}
	fixed, err := appendStream(nil, &s, formatFixed)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fixed, delta) {
		t.Fatal("formats produced identical bytes")
	}

	df, err := DecodeStream(delta)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := DecodeStream(fixed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(df, ff) {
		t.Errorf("formats decode to different states:\n delta %+v\n fixed %+v", df, ff)
	}

	for name, dec := range map[string]*StreamState{"delta": df, "fixed": ff} {
		re, ok := remarshalable(*dec)
		if !ok {
			t.Fatalf("%s: decoded wires do not restore", name)
		}
		again, err := AppendStream(nil, &re)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, delta) {
			t.Errorf("%s: decode∘encode does not reproduce the delta record", name)
		}
	}
}

// TestDeltaRecordSmaller pins the cold-tier win this format exists for: on
// the Zipf(1.05) k=256 acceptance workload the delta record must be at
// least 3x smaller than the fixed one.
func TestDeltaRecordSmaller(t *testing.T) {
	const k, d = 256, 1 << 16
	const shards = 8
	s := StreamState{
		Name: "zipf", K: k, Universe: d, Shards: shards,
		BudgetEps: 1, BudgetDelta: 1e-6,
		Batches: 1, Ingested: shards << 18,
	}
	for i := 0; i < shards; i++ {
		sk := mg.New(k, d)
		sk.Process(workload.Zipf(1<<18, d, 1.05, uint64(i+1)))
		s.ShardSketches = append(s.ShardSketches, sk)
	}
	fixed, err := appendStream(nil, &s, formatFixed)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := AppendStream(nil, &s)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(fixed)) / float64(len(delta))
	t.Logf("fixed %d B, delta %d B, ratio %.2fx", len(fixed), len(delta), ratio)
	if ratio < 3 {
		t.Errorf("delta record only %.2fx smaller, want >= 3x", ratio)
	}
}

// TestDeltaRejectsNonMinimalVarint: a padded varint (0x80 0x00 prefix for
// what fits in one byte) decodes to the same value, so accepting it would
// give two byte strings for one state — the decoder must refuse.
func TestDeltaRejectsNonMinimalVarint(t *testing.T) {
	raw := appendHeader(nil, header{Kind: KindSummary, K: 4, Entries: 1}, formatDelta)
	raw = append(raw, 0x83, 0x00) // key 3, non-minimal
	raw = append(raw, 0x05)       // count 5
	if _, err := UnmarshalSummary(bytes.NewReader(raw)); err == nil {
		t.Error("non-minimal varint accepted")
	}

	raw = appendHeader(nil, header{Kind: KindSummary, K: 4, Entries: 2}, formatDelta)
	raw = append(raw, 0x03, 0x05) // key 3, count 5
	raw = append(raw, 0x00, 0x07) // zero delta: keys not strictly ascending
	if _, err := UnmarshalSummary(bytes.NewReader(raw)); err == nil {
		t.Error("zero key delta accepted")
	}
}

// TestDeltaSummaryDecodesEqual: the same summary serialized both ways
// decodes to identical columns through the public decoder.
func TestDeltaSummaryDecodesEqual(t *testing.T) {
	sk := mg.New(32, 1000)
	sk.Process(workload.Zipf(20000, 1000, 1.2, 9))
	sum, err := merge.FromCounters(32, 1000, sk.RealCounters())
	if err != nil {
		t.Fatal(err)
	}
	a, err := UnmarshalSummary(bytes.NewReader(AppendSummary(nil, sum)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := UnmarshalSummary(bytes.NewReader(appendSummary(nil, sum, formatDelta)))
	if err != nil {
		t.Fatal(err)
	}
	if a.K != b.K || !reflect.DeepEqual(a.Keys(), b.Keys()) || !reflect.DeepEqual(a.Counts(), b.Counts()) {
		t.Error("formats decode to different summaries")
	}
}

// TestManagerRejectsDeltaFormat: manager snapshots are pinned to the fixed
// format; a version-2 KindManager header must be refused, not decoded.
func TestManagerRejectsDeltaFormat(t *testing.T) {
	states := managerFixture(t)
	var buf bytes.Buffer
	if err := MarshalManager(&buf, states); err != nil {
		t.Fatal(err)
	}
	doc := buf.Bytes()
	doc[4] = byte(formatDelta) // version byte lives after the 4-byte magic
	if _, err := UnmarshalManager(bytes.NewReader(doc)); err == nil {
		t.Error("delta-format manager snapshot accepted")
	}
}

// TestStreamRejectsMixedFormats: a record whose nested blob disagrees with
// the outer header's format must be refused — re-encoding would normalize
// it, breaking the canonical-bytes property.
func TestStreamRejectsMixedFormats(t *testing.T) {
	s := streamFixture(t)
	doc, err := AppendStream(nil, &s)
	if err != nil {
		t.Fatal(err)
	}
	// Find the first nested header (magic recurs) and flip its version
	// byte back to fixed.
	inner := bytes.Index(doc[4:], []byte("DPMG"))
	if inner < 0 {
		t.Fatal("no nested blob found")
	}
	doc[4+inner+4] = byte(formatFixed)
	if _, err := DecodeStream(doc); err == nil {
		t.Error("mixed-format record accepted")
	}
}

// FuzzOffloadRecordRoundTrip is the delta-codec sibling of
// FuzzUnmarshalStream: arbitrary bytes — seeded with records in both
// format versions — must either be rejected or decode to a state that
// re-encodes to exactly the input bytes in the input's format version
// (legacy fixed records included: the decoder takes them, so it must take
// only their canonical form), and through AppendStream to a delta record.
func FuzzOffloadRecordRoundTrip(f *testing.F) {
	sk := mg.New(3, 9)
	for _, x := range []stream.Item{1, 2, 2, 3, 9, 9, 9} {
		sk.Update(x)
	}
	st := StreamState{
		Name: "s0", K: 3, Universe: 9, Shards: 1,
		BudgetEps: 1, BudgetDelta: 0.25, SpentEps: 0.5, SpentDelta: 0.125,
		Releases: 1, Batches: 2, Ingested: 7,
		ShardSketches:  []*mg.Sketch{sk},
		IngestCounters: 3,
	}
	for _, version := range []format{formatFixed, formatDelta} {
		seed, err := appendStream(nil, &st, version)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte("DPMG\x02\x05"))
	f.Add([]byte{0x80, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeStream(data)
		if err != nil {
			return
		}
		re, ok := remarshalable(*s)
		if !ok {
			return
		}
		out, err := appendStream(nil, &re, format(data[4]))
		if err != nil {
			t.Fatalf("accepted record does not re-marshal: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("decode∘encode is not the identity:\n in  %x\n out %x", data, out)
		}
		if out, err = AppendStream(nil, &re); err != nil || format(out[4]) != formatDelta {
			t.Fatalf("AppendStream wrote version %d (err %v), want delta", out[4], err)
		}
	})
}

// TestUvarintCanonicalMatchesStdlib: for every minimally encoded value the
// canonical reader agrees with encoding/binary; it only diverges by
// rejecting padded forms.
func TestUvarintCanonicalMatchesStdlib(t *testing.T) {
	vals := []uint64{0, 1, 127, 128, 16383, 16384, 1<<32 - 1, 1 << 32, 1<<64 - 1}
	for _, v := range vals {
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(buf[:], v)
		got, w, err := uvarintCanonical(buf[:n])
		if err != nil || got != v || w != n {
			t.Errorf("value %d: got %d in %d bytes, err %v", v, got, w, err)
		}
	}
	// 10-byte encoding with final group > 1 overflows 64 bits.
	over := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}
	if _, _, err := uvarintCanonical(over); err == nil {
		t.Error("overflowing varint accepted")
	}
}
