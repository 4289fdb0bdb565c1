package encoding

import (
	"bytes"
	"testing"

	"dpmg/internal/merge"
	"dpmg/internal/stream"
)

// TestAppendSummaryMatchesMarshal pins the allocation-free encoder against
// the io.Writer one byte for byte: spooled records, wire frames, and HTTP
// bodies must stay interchangeable regardless of which path produced them.
func TestAppendSummaryMatchesMarshal(t *testing.T) {
	for _, tc := range []struct {
		name   string
		keys   []stream.Item
		counts []int64
	}{
		{"empty", nil, nil},
		{"one", []stream.Item{7}, []int64{3}},
		{"several", []stream.Item{1, 5, 9, 1 << 40}, []int64{2, 4, 6, 8}},
	} {
		sum, err := merge.FromSorted(64, tc.keys, tc.counts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := MarshalSummary(&buf, sum); err != nil {
			t.Fatal(err)
		}
		got := AppendSummary(nil, sum)
		if !bytes.Equal(got, buf.Bytes()) {
			t.Errorf("%s: AppendSummary diverges from MarshalSummary (%d vs %d bytes)", tc.name, len(got), buf.Len())
		}
		// Append semantics: existing dst bytes are preserved.
		withPrefix := AppendSummary([]byte("prefix"), sum)
		if !bytes.HasPrefix(withPrefix, []byte("prefix")) || !bytes.Equal(withPrefix[6:], buf.Bytes()) {
			t.Errorf("%s: AppendSummary clobbered dst", tc.name)
		}
	}
}

// TestDecodeSummaryColumnsReuse pins the scratch contract of the zero-alloc
// decode path: the decoder appends into caller storage, reuses capacity on
// the steady state, and returns columns FromSorted accepts verbatim.
func TestDecodeSummaryColumnsReuse(t *testing.T) {
	sum, err := merge.FromSorted(32, []stream.Item{2, 4, 8, 16}, []int64{1, 3, 5, 7})
	if err != nil {
		t.Fatal(err)
	}
	blob := AppendSummary(nil, sum)

	k, keys, vals, err := DecodeSummaryColumns(blob, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k != 32 || len(keys) != 4 || len(vals) != 4 {
		t.Fatalf("decoded k=%d with %d/%d entries", k, len(keys), len(vals))
	}
	for i := range keys {
		wk, wv := sum.Keys()[i], sum.Counts()[i]
		if keys[i] != wk || vals[i] != wv {
			t.Fatalf("entry %d: (%d, %d), want (%d, %d)", i, keys[i], vals[i], wk, wv)
		}
	}

	// Steady-state decodes into warmed scratch are allocation-free.
	if avg := testing.AllocsPerRun(100, func() {
		var err error
		_, keys, vals, err = DecodeSummaryColumns(blob, keys[:0], vals[:0])
		if err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("steady-state decode allocates %.1f per op, want 0", avg)
	}

	// The columns satisfy the summary invariants without re-validation.
	if _, err := merge.FromSorted(k, keys, vals); err != nil {
		t.Fatalf("decoded columns rejected by FromSorted: %v", err)
	}

	// A truncated blob refuses rather than decoding short columns (the
	// structural corruption space is fuzz-covered by FuzzUnmarshalSummary
	// and FuzzDecodeSummaryPayload).
	if _, _, _, err := DecodeSummaryColumns(blob[:len(blob)-1], nil, nil); err == nil {
		t.Error("truncated blob accepted")
	}
}
