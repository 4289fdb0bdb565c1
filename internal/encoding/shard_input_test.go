package encoding

import (
	"bytes"
	"slices"
	"testing"

	"dpmg/internal/mg"
)

// withInput returns s carrying its shard states as wires only, as sketches
// only, or as both (each sketch restored from its own wire).
func withInput(t *testing.T, s StreamState, wires, sketches bool) StreamState {
	t.Helper()
	re, ok := remarshalable(s)
	if !ok {
		t.Fatal("golden shard state fails Algorithm 1 validation")
	}
	if !wires {
		re.ShardWires = nil
	}
	if !sketches {
		re.ShardSketches = nil
	}
	return re
}

// TestShardWiresEncodeLikeSketches: the flat-column input encodes every
// golden state to the same bytes as the sketch input (and as both inputs
// together), which are the golden's own bytes.
func TestShardWiresEncodeLikeSketches(t *testing.T) {
	inputs := []struct {
		name            string
		wires, sketches bool
	}{{"wires", true, false}, {"sketches", false, true}, {"both", true, true}}

	delta := readGolden(t, "stream_delta.bin")
	for _, file := range []string{"stream_delta.bin", "stream_fixed_legacy.bin"} {
		s, err := DecodeStream(readGolden(t, file))
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range inputs {
			re := withInput(t, *s, in.wires, in.sketches)
			if got, err := AppendStream(nil, &re); err != nil || !bytes.Equal(got, delta) {
				t.Errorf("%s from %s: err %v, bytes equal to stream_delta.bin: %v", file, in.name, err, bytes.Equal(got, delta))
			}
		}
	}

	manager := readGolden(t, "manager.bin")
	states, err := decodeManager(manager)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range inputs {
		re := make([]StreamState, len(states))
		for i := range states {
			re[i] = withInput(t, states[i], in.wires, in.sketches)
		}
		if got, err := appendManager(nil, re); err != nil || !bytes.Equal(got, manager) {
			t.Errorf("manager.bin from %s: err %v, bytes equal: %v", in.name, err, bytes.Equal(got, manager))
		}
	}

	counters := readGolden(t, "counters_fixed.bin")
	w, err := UnmarshalSketch(bytes.NewReader(counters))
	if err != nil {
		t.Fatal(err)
	}
	if got := appendCounters(nil, w, formatFixed); !bytes.Equal(got, counters) {
		t.Error("counters_fixed.bin re-encoded from its wire differs")
	}
}

// TestShardWireRefusals: the encoder refuses malformed shard input before
// its first append, so the destination comes back exactly as it went in.
func TestShardWireRefusals(t *testing.T) {
	golden, err := DecodeStream(readGolden(t, "stream_delta.bin"))
	if err != nil {
		t.Fatal(err)
	}
	// base returns the golden record with wires it may mutate freely.
	base := func() StreamState {
		s := *golden
		s.ShardWires = make([]*SketchWire, len(golden.ShardWires))
		for i, w := range golden.ShardWires {
			cp := *w
			cp.Keys, cp.Vals = slices.Clone(w.Keys), slices.Clone(w.Vals)
			s.ShardWires[i] = &cp
		}
		return s
	}
	if golden.K < 3 {
		t.Fatalf("fixture has k=%d; the cases below assume k >= 3", golden.K)
	}
	// fresh returns n empty sketches of the stream's shape.
	fresh := func(s *StreamState, n int) []*mg.Sketch {
		sks := make([]*mg.Sketch, n)
		for i := range sks {
			sks[i] = mg.New(s.K, s.Universe)
		}
		return sks
	}
	cases := []struct {
		name   string
		mutate func(s *StreamState, w *SketchWire)
	}{
		{"sketch and wire disagree", func(s *StreamState, w *SketchWire) { s.ShardSketches = fresh(s, s.Shards) }},
		{"sketch count beside wires", func(s *StreamState, w *SketchWire) { s.ShardSketches = fresh(s, s.Shards+1) }},
		{"wire count", func(s *StreamState, w *SketchWire) { s.ShardWires = append(s.ShardWires, w) }},
		{"nil wire", func(s *StreamState, w *SketchWire) { s.ShardWires[0] = nil }},
		{"short wire", func(s *StreamState, w *SketchWire) { w.Keys, w.Vals = w.Keys[1:], w.Vals[1:] }},
		{"ragged columns", func(s *StreamState, w *SketchWire) { w.Vals = w.Vals[1:] }},
		{"descending keys", func(s *StreamState, w *SketchWire) { w.Keys[1], w.Keys[2] = w.Keys[2], w.Keys[1] }},
		{"repeated key", func(s *StreamState, w *SketchWire) { w.Keys[1] = w.Keys[0] }},
		{"negative counter", func(s *StreamState, w *SketchWire) { w.Vals[0] = -1 }},
		{"wire k", func(s *StreamState, w *SketchWire) { w.K++ }},
		{"wire universe", func(s *StreamState, w *SketchWire) { w.Universe++ }},
	}
	prefix := []byte("prefix")
	for _, tc := range cases {
		s := base()
		tc.mutate(&s, s.ShardWires[0])
		out, err := AppendStream(prefix, &s)
		if err == nil {
			t.Errorf("%s: offload record accepted", tc.name)
		}
		if !bytes.Equal(out, prefix) || cap(out) != cap(prefix) {
			t.Errorf("%s: refusal appended to the destination", tc.name)
		}
		if err := MarshalManager(&bytes.Buffer{}, []StreamState{s}); err == nil {
			t.Errorf("%s: manager snapshot accepted", tc.name)
		}
	}
	s := base()
	if _, err := AppendStream(nil, &s); err != nil {
		t.Fatalf("unmutated record refused: %v", err)
	}
}
