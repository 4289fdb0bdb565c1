package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval of the traced run. Spans of one op share Op;
// Parent is the ID of the span that caused this one (0 for an op's root
// span). Units is the work counted at the same boundary (items in a batch,
// calls in a timing loop), so per-unit costs divide where the work happens.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Units  int64  `json:"units"`
}

// dur is the span's inclusive duration in nanoseconds.
func (s span) dur() int64 { return s.End - s.Start }

// tracer collects the spans of one generator goroutine in memory; nothing
// is written until the run ends. A nil tracer records nothing, so the
// untraced window pays one nil check per op.
type tracer struct {
	base   time.Time
	client int32
	spans  []span
}

// newTracer returns a tracer whose span times count from base. IDs are
// unique across goroutines (goroutine index in the high bits).
func newTracer(base time.Time, client int) *tracer {
	return &tracer{base: base, client: int32(client), spans: make([]span, 0, 1<<14)}
}

// begin opens a span now and returns its ID (0 from a nil tracer).
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return 0
	}
	id := t.client<<24 | int32(len(t.spans)+1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(t.base).Nanoseconds()})
	return id
}

// end closes the span now, recording the work it covered.
func (t *tracer) end(id int32, units int64) {
	if t == nil {
		return
	}
	s := &t.spans[id&(1<<24-1)-1]
	s.End, s.Units = time.Since(t.base).Nanoseconds(), units
}

// timed runs f as a child span of parent covering `units` units of work.
func (t *tracer) timed(name string, parent int32, op int64, units int64, f func()) {
	id := t.begin(name, parent, op)
	f()
	t.end(id, units)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval its child spans cover (overlapping children are counted once,
// and a child is clipped to its parent's interval).
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// medianPerUnit is the median, over the spans called name, of duration per
// unit of work in nanoseconds; 0 when the name never occurred.
func medianPerUnit(spans []span, name string) float64 {
	var v []float64
	for _, s := range spans {
		if s.Name == name && s.Units > 0 {
			v = append(v, float64(s.dur())/float64(s.Units))
		}
	}
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

// medianDurUS is the median inclusive duration, in microseconds, of the
// spans called name; 0 when the name never occurred.
func medianDurUS(spans []span, name string) float64 {
	var v []float64
	for _, s := range spans {
		if s.Name == name {
			v = append(v, float64(s.dur())/1e3)
		}
	}
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

// writeSpans writes the spans, each with its self time, as one JSON array
// to path.
func writeSpans(path string, spans []span) error {
	type selfSpan struct {
		span
		Self int64 `json:"self_ns"`
	}
	self := selfTimes(spans)
	out := make([]selfSpan, len(spans))
	for i, s := range spans {
		out[i] = selfSpan{s, self[s.ID]}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
