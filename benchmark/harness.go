package main

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// replayEvery is the sampling stride of the traced run: every 32nd op's
// input is replayed in-process through the layers' public calls.
const replayEvery = 32

// sliceLen is the granularity throughput is reported at: ops completed are
// counted per slice and the median slice is reported, so one stalled slice
// (a GC cycle, a noisy neighbour) does not move the number.
const sliceLen = 500 * time.Millisecond

// opSeries is the latency series of a workload's primary op.
const opSeries = "op"

// recorder collects what one generator goroutine measured in one window.
// Each goroutine owns its recorder; they are merged after the window.
type recorder struct {
	t0     time.Time
	series map[string][]int64 // latency in ns by series name
	slices []int64            // ops completed per slice since t0
	late   []int64            // open-loop send lateness in ns

	attempted, failed int64
	firstErr          error
	replayErr         error // first failed layer replay of a traced window

	// paced marks a goroutine whose ops run on a fixed schedule. Their rate
	// is the schedule's whatever the server does, so they are accounted as
	// attempts but kept out of the throughput count.
	paced bool
	// counted is the number of ops that succeeded and count as throughput.
	counted int64

	tr *tracer // nil when the window is untraced
}

// newRecorder returns a recorder for a window that starts at t0 and lasts d.
func newRecorder(t0 time.Time, d time.Duration, tr *tracer) *recorder {
	return &recorder{
		t0: t0, tr: tr,
		series: make(map[string][]int64),
		slices: make([]int64, int(d/sliceLen)+1),
	}
}

// observe adds one latency sample to a series.
func (r *recorder) observe(name string, d time.Duration) {
	r.series[name] = append(r.series[name], d.Nanoseconds())
}

// finish accounts one attempted op that ended at `at`: a failed op (a
// refusal, an error, a failed check) counts against the attempts and
// contributes no latency sample and no throughput.
func (r *recorder) finish(at time.Time, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	if r.paced {
		return
	}
	r.counted++
	if i := int(at.Sub(r.t0) / sliceLen); i >= 0 && i < len(r.slices) {
		r.slices[i]++
	}
}

// noteReplay keeps the first error of a layer replay. A replay that cannot
// run leaves a hole in the per-layer numbers, so the run reports it as a
// failed check.
func (r *recorder) noteReplay(err error) {
	if err != nil && r.replayErr == nil {
		r.replayErr = err
	}
}

// window is the merged measurement of one window across all goroutines.
type window struct {
	dur               time.Duration
	series            map[string][]int64
	slices            []int64
	late              []int64
	attempted, failed int64
	counted           int64 // succeeded ops that count as throughput
	firstErr          error
	replayErr         error
	spans             []span
}

// mergeRecorders folds the goroutines' recorders into one window of length d.
func mergeRecorders(recs []*recorder, d time.Duration) *window {
	w := &window{dur: d, series: make(map[string][]int64)}
	for _, r := range recs {
		for name, s := range r.series {
			w.series[name] = append(w.series[name], s...)
		}
		if len(w.slices) < len(r.slices) {
			w.slices = append(w.slices, make([]int64, len(r.slices)-len(w.slices))...)
		}
		for i, n := range r.slices {
			w.slices[i] += n
		}
		w.late = append(w.late, r.late...)
		w.attempted += r.attempted
		w.failed += r.failed
		w.counted += r.counted
		if w.firstErr == nil {
			w.firstErr = r.firstErr
		}
		if w.replayErr == nil {
			w.replayErr = r.replayErr
		}
		if r.tr != nil {
			w.spans = append(w.spans, r.tr.spans...)
		}
	}
	return w
}

// warmErr reports a warm-up whose ops did not all succeed: a set-up that
// cannot complete its warm-up must not be measured.
func warmErr(recs []*recorder) error {
	if warm := mergeRecorders(recs, 0); warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed: %w", warm.failed, warm.attempted, warm.firstErr)
	}
	return nil
}

// opsPerSecond is the median full slice's completion rate. The last slice
// is cut short by the window's end and is left out.
func (w *window) opsPerSecond() float64 {
	full := int(w.dur / sliceLen)
	if full > len(w.slices) {
		full = len(w.slices)
	}
	if full == 0 {
		return 0
	}
	rates := make([]float64, full)
	for i := range rates {
		rates[i] = float64(w.slices[i]) / sliceLen.Seconds()
	}
	return median(rates)
}

// limit ends a closed-loop drive: after d has passed, or after each client
// has issued ops ops (warm-up, which must cost what the server's speed makes
// it cost), whichever is set.
type limit struct {
	d   time.Duration
	ops int64
}

// closedLoop drives `clients` goroutines that each keep exactly one op in
// flight. next holds each client's op index; it continues across warm-up
// and windows so the acked history is one deterministic sequence.
type closedLoop struct {
	next []int64
}

// closedOp issues client c's i-th op, recording any sub-op latencies on r
// and child spans under parent.
type closedOp func(c int, i int64, r *recorder, parent int32) error

// replayFunc replays the input of client c's i-th op in-process through the
// layers' public calls, as child spans of parent.
type replayFunc func(c int, i int64, r *recorder, parent int32) error

// drive runs the loop until lim is reached and returns one recorder per
// client. With traced set every op gets a span and every replayEvery-th op
// is replayed.
func (cl *closedLoop) drive(ctx context.Context, lim limit, traced bool, op closedOp, replay replayFunc) ([]*recorder, time.Duration) {
	t0 := time.Now()
	d := lim.d
	if d == 0 {
		d = time.Hour
	}
	end := t0.Add(d)
	recs := make([]*recorder, len(cl.next))
	var wg sync.WaitGroup
	for c := range cl.next {
		var tr *tracer
		if traced {
			tr = newTracer(t0, c)
		}
		r := newRecorder(t0, lim.d, tr)
		recs[c] = r
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := int64(0); lim.ops == 0 || n < lim.ops; n++ {
				start := time.Now()
				if !start.Before(end) || ctx.Err() != nil {
					return
				}
				i := cl.next[c]
				cl.next[c]++
				id := tr.begin("client.op", 0, opID(c, i))
				err := op(c, i, r, id)
				now := time.Now()
				tr.end(id, 1)
				if err == nil {
					r.observe(opSeries, now.Sub(start))
				}
				r.finish(now, err)
				if traced && replay != nil && i%replayEvery == 0 {
					r.noteReplay(replay(c, i, r, id))
				}
			}
		}(c)
	}
	wg.Wait()
	return recs, time.Since(t0)
}

// opID names client c's i-th op across the whole trace.
func opID(c int, i int64) int64 { return int64(c)<<40 | i }
