package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildIntervalsOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: 20..30 counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent's end
		{ID: 5, Parent: 3, Name: "b.inner", Start: 25, End: 45},
		{ID: 6, Name: "other-op", Start: 0, End: 40},
	}
	self := selfTimes(spans)
	want := map[int32]int64{
		1: 100 - (20 + 20 + 10), // a, the part of b after a, the part of c inside
		2: 20,
		3: 30 - 20,
		4: 30,
		5: 20,
		6: 40,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d; want %d", id, self[id], w)
		}
	}
}

func TestTracerRecordsParentOpAndUnits(t *testing.T) {
	tr := newTracer(time.Now(), 3)
	op := tr.begin("client.op", 0, 42)
	tr.timed("mg.update", op, 42, 4096, func() { time.Sleep(time.Millisecond) })
	tr.end(op, 1)
	if len(tr.spans) != 2 {
		t.Fatalf("%d spans; want 2", len(tr.spans))
	}
	root, child := tr.spans[0], tr.spans[1]
	if child.Parent != root.ID || child.Op != 42 || child.Units != 4096 || root.Parent != 0 {
		t.Errorf("root %+v child %+v", root, child)
	}
	if root.ID>>24 != 3 || child.ID == root.ID {
		t.Errorf("span IDs %d, %d must be unique and carry the goroutine index", root.ID, child.ID)
	}
	if child.Start < root.Start || child.End > root.End || child.dur() < int64(time.Millisecond) {
		t.Errorf("child [%d, %d] not inside root [%d, %d] or shorter than its sleep", child.Start, child.End, root.Start, root.End)
	}
	if got := medianPerUnit(tr.spans, "mg.update"); got < float64(time.Millisecond)/4096 {
		t.Errorf("per-unit cost %v ns below sleep/units", got)
	}
	if self := selfTimes(tr.spans); self[root.ID] != root.dur()-child.dur() {
		t.Errorf("root self time %d; want %d", self[root.ID], root.dur()-child.dur())
	}
	// A nil tracer is the untraced window: every call is a no-op.
	var none *tracer
	none.timed("x", none.begin("y", 0, 0), 0, 1, func() {})
}
