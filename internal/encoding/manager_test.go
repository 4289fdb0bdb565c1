package encoding

import (
	"bytes"
	"math"
	"testing"

	"dpmg/internal/merge"
	"dpmg/internal/mg"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

func managerFixture(t *testing.T) []StreamState {
	t.Helper()
	mkShard := func(k int, d uint64, seed uint64, n int) *mg.Sketch {
		sk := mg.New(k, d)
		sk.Process(workload.Zipf(n, int(d), 1.1, seed))
		return sk
	}
	sumA, err := merge.FromCounters(8, 100, map[stream.Item]int64{3: 5, 9: 2, 41: 11})
	if err != nil {
		t.Fatal(err)
	}
	return []StreamState{
		{
			Name: "tenant-b", K: 16, Universe: 1 << 12, Shards: 1,
			Mechanism: "laplace",
			BudgetEps: 2, BudgetDelta: 1e-5, SpentEps: 0.5, SpentDelta: 1e-6,
			Releases: 1, Nodes: 0, Batches: 3, Ingested: 3000,
			ShardSketches: []*mg.Sketch{mkShard(16, 1<<12, 7, 3000)},
		},
		{
			Name: "tenant-a", K: 8, Universe: 100, Shards: 2,
			BudgetEps: 1, BudgetDelta: 1e-4,
			Nodes: 4, Merged: sumA,
			ShardSketches: []*mg.Sketch{mkShard(8, 100, 1, 500), mkShard(8, 100, 2, 700)},
		},
	}
}

func TestManagerRoundTrip(t *testing.T) {
	states := managerFixture(t)
	var buf bytes.Buffer
	if err := MarshalManager(&buf, states); err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalManager(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d streams", len(got))
	}
	// Canonical record order: ascending name, regardless of input order.
	if got[0].Name != "tenant-a" || got[1].Name != "tenant-b" {
		t.Fatalf("record order %q, %q", got[0].Name, got[1].Name)
	}
	a, b := got[0], got[1]
	if a.K != 8 || a.Universe != 100 || a.Shards != 2 || a.Mechanism != "" || a.Nodes != 4 {
		t.Errorf("tenant-a fields: %+v", a)
	}
	if a.Merged == nil || a.Merged.Len() != 3 || a.Merged.Estimate(41) != 11 {
		t.Errorf("tenant-a aggregate: %+v", a.Merged)
	}
	if b.Mechanism != "laplace" || b.SpentEps != 0.5 || b.Releases != 1 || b.Ingested != 3000 {
		t.Errorf("tenant-b fields: %+v", b)
	}
	if b.Merged != nil {
		t.Error("tenant-b aggregate should be absent")
	}
	if len(a.ShardWires) != 2 || len(b.ShardWires) != 1 {
		t.Fatalf("shard wires: %d, %d", len(a.ShardWires), len(b.ShardWires))
	}
	// Shard wires must reconstruct behaviorally identical sketches.
	for i, wire := range a.ShardWires {
		restored, err := restoreWire(wire)
		if err != nil {
			t.Fatalf("shard %d restore: %v", i, err)
		}
		orig := states[1].ShardSketches[i]
		if restored.N() != orig.N() {
			t.Errorf("shard %d N = %d, want %d", i, restored.N(), orig.N())
		}
		for x := stream.Item(1); x <= 100; x++ {
			if restored.Estimate(x) != orig.Estimate(x) {
				t.Errorf("shard %d estimate(%d) = %d, want %d", i, x, restored.Estimate(x), orig.Estimate(x))
			}
		}
	}
}

func TestManagerCanonicalBytes(t *testing.T) {
	states := managerFixture(t)
	var b1, b2 bytes.Buffer
	if err := MarshalManager(&b1, states); err != nil {
		t.Fatal(err)
	}
	// Reversed input order must serialize to identical bytes.
	rev := []StreamState{states[1], states[0]}
	if err := MarshalManager(&b2, rev); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("manager snapshot is not canonical under input reordering")
	}
}

func TestManagerRejectsCorruptSnapshots(t *testing.T) {
	states := managerFixture(t)
	var buf bytes.Buffer
	if err := MarshalManager(&buf, states); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Truncations at every prefix must error, never decode garbage.
	for cut := 0; cut < len(raw); cut += 97 {
		if _, err := UnmarshalManager(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing bytes rejected.
	if _, err := UnmarshalManager(bytes.NewReader(append(append([]byte{}, raw...), 0))); err == nil {
		t.Error("trailing byte accepted")
	}
	// A non-manager document is rejected by kind.
	var sk bytes.Buffer
	if err := MarshalSketch(&sk, mg.New(4, 50)); err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalManager(bytes.NewReader(sk.Bytes())); err == nil {
		t.Error("counters document accepted as manager snapshot")
	}
}

func TestMarshalManagerValidation(t *testing.T) {
	base := func() StreamState {
		return StreamState{
			Name: "s", K: 4, Universe: 50, Shards: 1,
			BudgetEps: 1, BudgetDelta: 1e-5,
			ShardSketches: []*mg.Sketch{mg.New(4, 50)},
		}
	}
	cases := []struct {
		name   string
		mutate func(*StreamState)
	}{
		{"empty name", func(s *StreamState) { s.Name = "" }},
		{"zero k", func(s *StreamState) { s.K = 0 }},
		{"zero universe", func(s *StreamState) { s.Universe = 0 }},
		{"zero shards", func(s *StreamState) { s.Shards = 0; s.ShardSketches = nil }},
		{"shard count mismatch", func(s *StreamState) { s.Shards = 2 }},
		{"nan budget", func(s *StreamState) { s.BudgetEps = math.NaN() }},
		{"negative releases", func(s *StreamState) { s.Releases = -1 }},
		{"shard k mismatch", func(s *StreamState) { s.ShardSketches = []*mg.Sketch{mg.New(8, 50)} }},
		{"shard universe mismatch", func(s *StreamState) { s.ShardSketches = []*mg.Sketch{mg.New(4, 60)} }},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(&s)
		if err := MarshalManager(&bytes.Buffer{}, []StreamState{s}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := MarshalManager(&bytes.Buffer{}, []StreamState{base(), base()}); err == nil {
		t.Error("duplicate names accepted")
	}
	if err := MarshalManager(&bytes.Buffer{}, nil); err != nil {
		t.Errorf("empty manager rejected: %v", err)
	}
}
