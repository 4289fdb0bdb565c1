package encoding

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/quick"

	"dpmg/internal/merge"
	"dpmg/internal/mg"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

func TestSummaryRoundTrip(t *testing.T) {
	sk := mg.New(16, 1000)
	sk.Process(workload.Zipf(20000, 1000, 1.1, 1))
	s, err := merge.FromCounters(16, 1000, sk.Counters())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := MarshalSummary(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSummary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != s.K || !reflect.DeepEqual(got.CountsMap(), s.CountsMap()) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got.CountsMap(), s.CountsMap())
	}
}

// mustSummary builds a summary from a counter table, failing on invalid
// input.
func mustSummary(t *testing.T, k int, counts map[stream.Item]int64) *merge.Summary {
	t.Helper()
	s, err := merge.FromCounters(k, 0, counts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// wireCounts is the decoded counter table as a map, for comparison against
// mg.Sketch.Counters.
func wireCounts(w *SketchWire) map[stream.Item]int64 {
	out := make(map[stream.Item]int64, len(w.Keys))
	for i, x := range w.Keys {
		out[x] = w.Vals[i]
	}
	return out
}

// restoreWire rebuilds a live sketch from a decoded wire.
func restoreWire(w *SketchWire) (*mg.Sketch, error) {
	return mg.RestoreColumns(w.K, w.Universe, w.N, w.Decrements, w.Keys, w.Vals)
}

func TestSummaryRoundTripProperty(t *testing.T) {
	f := func(kRaw uint8, items []uint16, vals []uint8) bool {
		k := int(kRaw%32) + 1
		counts := map[stream.Item]int64{}
		for i, it := range items {
			if len(counts) >= k || len(vals) == 0 {
				break
			}
			counts[stream.Item(it)+1] = int64(vals[i%len(vals)]%100) + 1
		}
		s, err := merge.FromCounters(k, 0, counts)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := MarshalSummary(&buf, s); err != nil {
			return false
		}
		got, err := UnmarshalSummary(&buf)
		if err != nil {
			return false
		}
		return got.K == k && reflect.DeepEqual(got.CountsMap(), counts)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCanonicalBytes(t *testing.T) {
	// Two equal tables built in different insertion orders must serialize
	// identically (no history side channel).
	a := mustSummary(t, 4, map[stream.Item]int64{1: 5, 2: 3, 9: 1})
	bMap := map[stream.Item]int64{}
	for _, x := range []stream.Item{9, 1, 2} {
		bMap[x] = a.Estimate(x)
	}
	b := mustSummary(t, 4, bMap)
	var ba, bb bytes.Buffer
	if err := MarshalSummary(&ba, a); err != nil {
		t.Fatal(err)
	}
	if err := MarshalSummary(&bb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Error("encoding not canonical")
	}
}

func TestSketchRoundTrip(t *testing.T) {
	sk := mg.New(8, 500)
	sk.Process(workload.Zipf(5000, 500, 1.2, 3))
	var buf bytes.Buffer
	if err := MarshalSketch(&buf, sk); err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSketch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != 8 || got.Universe != 500 || got.N != sk.N() || got.Decrements != sk.Decrements() {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if !reflect.DeepEqual(wireCounts(got), sk.Counters()) {
		t.Fatal("counter mismatch")
	}
}

func TestRejectsForeignBytes(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("XXXX\x01\x01" + string(make([]byte, 48))),
		append([]byte("DPMG\x02\x01"), make([]byte, 48)...), // bad version
	}
	for i, b := range cases {
		if _, err := UnmarshalSummary(bytes.NewReader(b)); err == nil {
			t.Errorf("case %d: foreign bytes accepted", i)
		}
	}
}

func TestRejectsKindMismatch(t *testing.T) {
	// Kind 2 is reserved (the retired PAMG table): no decoder may take it.
	raw := appendHeader(nil, header{Kind: 2, K: 4, N: 1, Entries: 1}, formatFixed)
	raw = appendEntries(raw, []stream.Item{1}, []int64{1}, formatFixed)
	if _, err := UnmarshalSummary(bytes.NewReader(raw)); err == nil {
		t.Error("kind-2 bytes accepted as summary")
	}
	if _, err := UnmarshalSketch(bytes.NewReader(raw)); err == nil {
		t.Error("kind-2 bytes accepted as sketch")
	}
	if _, err := decodeManager(raw); err == nil {
		t.Error("kind-2 bytes accepted as manager snapshot")
	}
	if _, err := DecodeStream(raw); err == nil {
		t.Error("kind-2 bytes accepted as stream record")
	}
}

func TestRejectsCorruptEntries(t *testing.T) {
	s := mustSummary(t, 4, map[stream.Item]int64{1: 5, 2: 3})
	var buf bytes.Buffer
	if err := MarshalSummary(&buf, s); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Truncated payload.
	if _, err := UnmarshalSummary(bytes.NewReader(raw[:len(raw)-4])); err == nil {
		t.Error("truncated payload accepted")
	}
	// Zero out a counter (violates positivity).
	corrupt := append([]byte(nil), raw...)
	for i := len(corrupt) - 8; i < len(corrupt); i++ {
		corrupt[i] = 0
	}
	if _, err := UnmarshalSummary(bytes.NewReader(corrupt)); err == nil {
		t.Error("non-positive counter accepted")
	}
}

func TestRejectsOverfullSummary(t *testing.T) {
	// Entries beyond k must be refused (resource exhaustion guard). The
	// constructors cannot build such a summary, so hand-craft the bytes.
	raw := appendHeader(nil, header{Kind: KindSummary, K: 2, Entries: 3}, formatFixed)
	raw = appendEntries(raw, []stream.Item{1, 2, 3}, []int64{1, 1, 1}, formatFixed)
	if _, err := UnmarshalSummary(bytes.NewReader(raw)); err == nil {
		t.Error("summary with more than k entries accepted")
	}
}

func TestRejectsUnsortedEntries(t *testing.T) {
	// Keys out of ascending order must be refused (the wire order is the
	// canonical storage order of the flat summary).
	raw := appendHeader(nil, header{Kind: KindSummary, K: 4, Entries: 2}, formatFixed)
	raw = appendEntries(raw, []stream.Item{9, 3}, []int64{1, 1}, formatFixed)
	if _, err := UnmarshalSummary(bytes.NewReader(raw)); err == nil {
		t.Error("descending entries accepted")
	}
}

func TestSketchWireRequiresExactlyK(t *testing.T) {
	// Hand-craft a counters blob with fewer than k entries.
	raw := appendHeader(nil, header{Kind: KindCounters, K: 4, Universe: 10, Entries: 2}, formatFixed)
	raw = appendEntries(raw, []stream.Item{1, 2}, []int64{0, 1}, formatFixed)
	if _, err := UnmarshalSketch(bytes.NewReader(raw)); err == nil {
		t.Error("sketch state with entries != k accepted")
	}
}

func TestMergeAfterWire(t *testing.T) {
	// End-to-end distributed flow: marshal two summaries, unmarshal, merge;
	// must equal merging the originals.
	mk := func(seed uint64) *merge.Summary {
		sk := mg.New(8, 200)
		sk.Process(workload.Zipf(5000, 200, 1.2, seed))
		s, err := merge.FromCounters(8, 200, sk.Counters())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(5), mk(6)
	want, err := merge.Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var ba, bb bytes.Buffer
	if err := MarshalSummary(&ba, a); err != nil {
		t.Fatal(err)
	}
	if err := MarshalSummary(&bb, b); err != nil {
		t.Fatal(err)
	}
	a2, err := UnmarshalSummary(&ba)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := UnmarshalSummary(&bb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := merge.Merge(a2, b2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.CountsMap(), want.CountsMap()) {
		t.Error("merge after wire differs from direct merge")
	}
}

// failingWriter errors after n bytes, exercising every write error path.
type failingWriter struct{ left int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		n := w.left
		w.left = 0
		return n, errShort
	}
	w.left -= len(p)
	return len(p), nil
}

var errShort = fmt.Errorf("short write")

func TestMarshalWriteErrors(t *testing.T) {
	sum := mustSummary(t, 4, map[stream.Item]int64{1: 2, 3: 4})
	sk := mg.New(2, 10)
	sk.Update(1)
	// Try every truncation point; each must surface an error.
	for budget := 0; budget < 60; budget += 7 {
		if err := MarshalSummary(&failingWriter{left: budget}, sum); err == nil {
			t.Errorf("summary: no error at budget %d", budget)
		}
		if err := MarshalSketch(&failingWriter{left: budget}, sk); err == nil {
			t.Errorf("sketch: no error at budget %d", budget)
		}
	}
}

func TestUnmarshalWrongKindEverywhere(t *testing.T) {
	sum := mustSummary(t, 2, map[stream.Item]int64{1: 1})
	var buf bytes.Buffer
	if err := MarshalSummary(&buf, sum); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := UnmarshalSketch(bytes.NewReader(raw)); err == nil {
		t.Error("summary accepted as sketch")
	}
}

// MarshalSummary writes AppendSummary's bytes to w in one Write.
func MarshalSummary(w io.Writer, s *merge.Summary) error {
	_, err := w.Write(AppendSummary(nil, s))
	return err
}

// UnmarshalItems reads a raw item batch until EOF, rejecting bodies whose
// length is not a multiple of 8 and batches larger than maxItems (DoS
// guard; pass the caller's request-size budget). Items are not range
// checked here — the ingesting sketch's universe bound is the caller's to
// enforce before applying the batch (or pass it to AppendItems to validate
// during the decode).
func UnmarshalItems(r io.Reader, maxItems int) ([]stream.Item, error) {
	out, err := AppendItems(make([]stream.Item, 0, 64), r, maxItems, 0)
	if err != nil {
		return nil, err
	}
	return out, nil
}
