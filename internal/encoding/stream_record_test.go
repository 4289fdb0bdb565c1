package encoding

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"dpmg/internal/mg"
	"dpmg/internal/stream"
)

// streamFixture is one stream state with data in both tiers plus the
// offload-only counter trailer.
func streamFixture(t *testing.T) StreamState {
	t.Helper()
	states := managerFixture(t)
	s := states[0] // tenant-b: mechanism, spend history, one shard
	s.AggCounters, s.IngestCounters = 0, 12
	return s
}

func TestStreamRecordRoundTrip(t *testing.T) {
	s := streamFixture(t)
	var buf bytes.Buffer
	if err := MarshalStream(&buf, &s); err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != s.Name || got.K != s.K || got.Universe != s.Universe || got.Shards != s.Shards {
		t.Errorf("identity fields: %+v", got)
	}
	if got.Mechanism != s.Mechanism || got.SpentEps != s.SpentEps || got.Releases != s.Releases {
		t.Errorf("account fields: %+v", got)
	}
	if got.AggCounters != 0 || got.IngestCounters != 12 {
		t.Errorf("counter trailer: agg=%d ingest=%d", got.AggCounters, got.IngestCounters)
	}
	if len(got.ShardWires) != s.Shards {
		t.Fatalf("shard wires: %d", len(got.ShardWires))
	}
	// The decoded wire reconstructs a behaviorally identical sketch.
	w := got.ShardWires[0]
	restored, err := restoreWire(w)
	if err != nil {
		t.Fatal(err)
	}
	if restored.N() != s.ShardSketches[0].N() {
		t.Errorf("restored N = %d, want %d", restored.N(), s.ShardSketches[0].N())
	}

	// Canonical: marshaling the same state twice is byte-identical.
	var buf2 bytes.Buffer
	if err := MarshalStream(&buf2, &s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("stream record is not canonical")
	}
}

func TestStreamRecordRejectsCorrupt(t *testing.T) {
	s := streamFixture(t)
	var buf bytes.Buffer
	if err := MarshalStream(&buf, &s); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Truncations at every prefix must error.
	for cut := 0; cut < len(raw); cut += 13 {
		if _, err := UnmarshalStream(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing bytes rejected.
	if _, err := UnmarshalStream(bytes.NewReader(append(append([]byte{}, raw...), 0))); err == nil {
		t.Error("trailing byte accepted")
	}
	// Kind confusion rejected in both directions: a manager table is not a
	// stream record, and vice versa.
	var mgrBuf bytes.Buffer
	if err := MarshalManager(&mgrBuf, []StreamState{managerFixture(t)[0]}); err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalStream(bytes.NewReader(mgrBuf.Bytes())); err == nil {
		t.Error("manager snapshot accepted as stream record")
	}
	if _, err := UnmarshalManager(bytes.NewReader(raw)); err == nil {
		t.Error("stream record accepted as manager snapshot")
	}
}

func TestMarshalStreamValidatesTrailer(t *testing.T) {
	for _, tc := range []struct {
		name string
		agg  int
		ing  int
	}{
		{"negative agg", -1, 0},
		{"agg beyond k", 1 << 20, 0},
		{"ingest beyond k", 0, 1 << 20},
	} {
		s := streamFixture(t)
		s.AggCounters, s.IngestCounters = tc.agg, tc.ing
		if err := MarshalStream(&bytes.Buffer{}, &s); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Decode side: corrupt the trailer of a valid record so a tally
	// exceeds k.
	s := streamFixture(t)
	var buf bytes.Buffer
	if err := MarshalStream(&buf, &s); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-9] = 0xff // high byte of IngestCounters
	if _, err := UnmarshalStream(bytes.NewReader(raw)); err == nil {
		t.Error("oversized counter tally accepted on decode")
	}
}

// TestStreamRecordRefusesWrappingUniverse decodes records whose stream and
// shard universes were rewritten to 2^64-2: with k=4 the dummy keys d+1..d+k
// would wrap past 2^64 into the universe, so both the offload record and
// the manager table must refuse the record on decode.
func TestStreamRecordRefusesWrappingUniverse(t *testing.T) {
	const k, d = 4, 0x5a5a5a5a5a5a5a5a
	sk := mg.New(k, d)
	sk.UpdateBatch([]stream.Item{7, 7, 9})
	s := StreamState{
		Name: "wide", K: k, Universe: d, Shards: 1,
		BudgetEps: 1, BudgetDelta: 1e-5,
		ShardSketches: []*mg.Sketch{sk},
	}
	var rec, tbl bytes.Buffer
	if err := MarshalStream(&rec, &s); err != nil {
		t.Fatal(err)
	}
	if err := MarshalManager(&tbl, []StreamState{s}); err != nil {
		t.Fatal(err)
	}
	wrap := func(raw []byte) []byte {
		from := binary.LittleEndian.AppendUint64(nil, d)
		to := binary.LittleEndian.AppendUint64(nil, math.MaxUint64-1)
		if n := bytes.Count(raw, from); n != 2 { // the stream and its one shard
			t.Fatalf("universe appears %d times, want 2", n)
		}
		return bytes.ReplaceAll(raw, from, to)
	}
	if _, err := UnmarshalStream(bytes.NewReader(wrap(rec.Bytes()))); err == nil {
		t.Error("stream record with a wrapping universe accepted")
	}
	if _, err := UnmarshalManager(bytes.NewReader(wrap(tbl.Bytes()))); err == nil {
		t.Error("manager table with a wrapping universe accepted")
	}
}
