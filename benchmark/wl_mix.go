package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpmg/internal/framing"
	"dpmg/internal/workload"
)

// release-mix is the one open-loop workload: independent analysts, dashboards
// and scrapers do not wait for each other, so each class runs on a fixed
// schedule and every op is timed from when it was due.
const (
	mixStreams     = 8
	mixPool        = 64 // 4096-item frames per stream, cycled
	mixPreloadPass = 4  // passes of the pool preloaded: 1 Mi items per stream
)

// The fixed rates of the read classes, in ops per second over all workers of
// the class. The writes beside them are a closed loop, not a rate: a paced
// mix leaves a small machine idle between ops, and every op then pays to
// wake sleeping CPUs and threads — 2 to 3 times a hot round trip on a
// 2-vCPU guest, and as variable as the host. A writer that always has a
// frame in flight keeps the server as busy as a loaded server is, so the
// reads measure the read path under write pressure.
const (
	rateRelease  = 500
	rateEstimate = 1000
	rateStats    = 50
	rateScrape   = 10
)

// releaseSample is what one release returned for the stream's top items,
// kept for the end-of-run envelope check (which needs the final N).
type releaseSample struct {
	stream     int
	sigma, tau float64
	vals       [topCheck]float64 // NaN where the item was not released
}

// mixWL is the release-mix workload.
type mixWL struct {
	base
	names   []string
	frames  [][]frame     // per stream
	sends   [][]int64     // per stream, per frame: acked sends (preload included)
	nextFr  []int         // per stream: next pool frame to send
	top     [][]itemCount // per stream: top items by preload truth
	topKeys [][]string    // the same items as JSON object keys
	conns   []*framing.Client
	workers int

	released []atomic.Int64 // per stream: acked releases
	mu       sync.Mutex
	samples  []releaseSample

	// twins holds one twin per op class that replays, by the class's series.
	twins map[string]*twin
}

// setupMix launches a server, creates and preloads the streams over the
// TCP datapath, and warms every op class up.
func setupMix(ctx context.Context, e *env) (instance, error) {
	srv, err := launchServer(ctx, e.bin, false)
	if err != nil {
		return nil, err
	}
	w := &mixWL{base: base{env: e, srv: srv, ctx: ctx}, workers: e.clients, released: make([]atomic.Int64, mixStreams)}
	z := workload.NewZipfian(universe, zipfSkew, subSeed(e.seed, "release-mix"))
	for s := 0; s < mixStreams; s++ {
		name := fmt.Sprintf("mix-%d", s)
		if err := createStream(ctx, srv.api, name); err != nil {
			w.close()
			return nil, err
		}
		w.names = append(w.names, name)
		w.frames = append(w.frames, zipfFrames(z, mixPool, zipfFrameLen))
		w.sends = append(w.sends, make([]int64, mixPool))
		conn, err := dialBound(srv.target.IngestAddr, name)
		if err != nil {
			w.close()
			return nil, err
		}
		w.conns = append(w.conns, conn)
	}
	w.nextFr = make([]int, mixStreams)
	// Preload in parallel, each stream by one goroutine.
	errs := make([]error, w.workers)
	var wg sync.WaitGroup
	for wk := 0; wk < w.workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for s := wk; s < mixStreams; s += w.workers {
				for n := 0; n < mixPreloadPass*mixPool; n++ {
					if _, err := w.ingestOne(s); err != nil {
						errs[wk] = fmt.Errorf("preload %s: %w", w.names[s], err)
						return
					}
				}
			}
		}(wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			w.close()
			return nil, err
		}
	}
	for s := range w.names {
		top := topOf(truth(w.frames[s], w.sends[s]), topCheck)
		keys := make([]string, len(top))
		for i, ic := range top {
			keys[i] = strconv.FormatUint(uint64(ic.item), 10)
		}
		w.top, w.topKeys = append(w.top, top), append(w.topKeys, keys)
	}
	// Warm-up: a short stretch of the mix itself.
	recs, _ := w.drive(ctx, 300*time.Millisecond, false)
	if err := warmErr(recs); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// ingestOne sends stream s its next pool frame and returns the frame.
func (w *mixWL) ingestOne(s int) (frame, error) {
	f := w.nextFr[s]
	fr := w.frames[s][f]
	if err := sendFrame(w.conns[s], fr.payload); err != nil {
		return fr, err
	}
	w.sends[s][f]++
	w.nextFr[s] = (f + 1) % mixPool
	return fr, nil
}

// releaseOne requests one release of stream s and keeps what it returned
// for the stream's top items.
func (w *mixWL) releaseOne(s int) error {
	// A method value, here and in the twin: scripts/check_deprecated.sh takes
	// every method call named Release outside internal/ for one of the
	// library's deprecated per-type wrappers, and this is the HTTP client's.
	release := w.srv.api.Release
	doc, err := release(w.ctx, w.names[s], releaseParams.Eps, releaseParams.Delta)
	if err != nil {
		return err
	}
	w.released[s].Add(1)
	smp := releaseSample{stream: s, sigma: doc.NoiseScale(), tau: doc.Meta["tau"]}
	for i, key := range w.topKeys[s] {
		v, ok := doc.Items[key]
		if !ok {
			v = math.NaN()
		}
		smp.vals[i] = v
	}
	w.mu.Lock()
	w.samples = append(w.samples, smp)
	w.mu.Unlock()
	return nil
}

// mixClass is one op class of the mix: its rate (0 for the closed-loop
// writer), its worker count, the latency series it reports to, and what
// worker wk's i-th op does. replay, when set, runs the input of the class's
// first worker's i-th op through the class's twin, on that worker's
// goroutine and straight after the op.
type mixClass struct {
	series  string
	rate    float64
	workers int
	op      func(wk, i int) error
	replay  func(t *twin, tr *tracer, parent int32, op int64, i int) error
}

// classes lays the mix out. Slots of a class are dealt to its workers in
// turn, and streams to slots in turn, so every stream sees every class.
func (w *mixWL) classes() []mixClass {
	slotStream := func(wk, i, workers int) int { return (i*workers + wk) % mixStreams }
	var sent frame // the frame the writer's last op sent, for its replay
	return []mixClass{
		{
			series: opSeries, rate: rateRelease, workers: w.workers,
			op: func(wk, i int) error { return w.releaseOne(slotStream(wk, i, w.workers)) },
			replay: func(t *twin, tr *tracer, parent int32, op int64, _ int) error {
				return t.replayRelease(tr, parent, op)
			},
		},
		{
			series: "estimate", rate: rateEstimate, workers: w.workers,
			op: func(wk, i int) error {
				s := slotStream(wk, i, w.workers)
				_, err := w.srv.api.Estimate(w.ctx, w.names[s], w.top[s][i%len(w.top[s])].item)
				return err
			},
			replay: func(t *twin, tr *tracer, parent int32, op int64, i int) error {
				s := slotStream(0, i, w.workers)
				return t.replayRead(tr, parent, op, w.top[s][i%len(w.top[s])].item)
			},
		},
		{
			// Writes beside the reads: one closed-loop writer that takes the
			// streams in turn.
			series: "mix_ingest", workers: 1,
			op: func(_, i int) (err error) {
				sent, err = w.ingestOne(i % mixStreams)
				return err
			},
			replay: func(t *twin, tr *tracer, parent int32, op int64, _ int) error {
				t.replayIngest(tr, parent, op, sent)
				return nil
			},
		},
		{
			series: "stats", rate: rateStats, workers: 1,
			op: func(_, i int) error {
				_, err := w.srv.api.Stats(w.ctx, w.names[i%mixStreams])
				return err
			},
		},
		{
			series: "scrape", rate: rateScrape, workers: 1,
			op: func(_, _ int) error {
				_, err := w.srv.scrape(w.ctx)
				return err
			},
		},
	}
}

// prepareTrace builds one twin per class that replays, each loaded with one
// pass of a stream's pool.
func (w *mixWL) prepareTrace() error {
	w.twins = make(map[string]*twin)
	for g, cl := range w.classes() {
		if cl.replay == nil {
			continue
		}
		t, err := newTwin(w.env.dir, g)
		if err != nil {
			return err
		}
		for _, fr := range w.frames[g] {
			if err := t.ingest(fr.items); err != nil {
				return err
			}
		}
		w.twins[cl.series] = t
	}
	return nil
}

func (w *mixWL) drive(ctx context.Context, d time.Duration, traced bool) ([]*recorder, time.Duration) {
	t0 := time.Now()
	end := t0.Add(d)
	var (
		recs   []*recorder
		scheds []schedule
		queues []chan job
		wg     sync.WaitGroup
	)
	for _, cl := range w.classes() {
		var open []schedule
		if cl.rate > 0 {
			open = workerSchedules(t0, cl.rate, cl.workers)
		}
		for wk := 0; wk < cl.workers; wk++ {
			g := len(recs) // generator goroutine index, for span and op IDs
			var tr *tracer
			if traced {
				tr = newTracer(t0, g)
			}
			r := newRecorder(t0, d, tr)
			r.paced = open != nil
			recs = append(recs, r)
			var id int32
			op := func(i int) error {
				id = tr.begin("client."+cl.series, 0, opID(g, int64(i)))
				err := cl.op(wk, i)
				tr.end(id, 1)
				return err
			}
			observe := func(i int, latency time.Duration, err error) {
				if err == nil {
					r.observe(cl.series, latency)
				}
				r.finish(time.Now(), err)
				if traced && cl.replay != nil && wk == 0 && i%replayEvery == 0 {
					r.noteReplay(cl.replay(w.twins[cl.series], tr, id, opID(g, int64(i)), i))
				}
			}
			wg.Add(1)
			if open == nil {
				go func() {
					defer wg.Done()
					for i := 0; ctx.Err() == nil; i++ {
						start := time.Now()
						if !start.Before(end) {
							return
						}
						err := op(i)
						observe(i, time.Since(start), err)
					}
				}()
				continue
			}
			// Room for the worker's whole window: the dispatcher must never
			// wait for a worker, or the loop would stop being open.
			q := make(chan job, open[wk].jobsUntil(end))
			scheds, queues = append(scheds, open[wk]), append(queues, q)
			go func() {
				defer wg.Done()
				work(wallClock{}, q, op, func(i int, fromDue, late time.Duration, err error) {
					r.late = append(r.late, late.Nanoseconds())
					observe(i, fromDue, err)
				})
			}()
		}
	}
	// The dispatcher keeps its thread: it sleeps in a system call, and a
	// goroutine that had to win a thread back after every sleep would send
	// late.
	wg.Add(1)
	go func() {
		defer wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		dispatch(wallClock{}, scheds, end, queues)
	}()
	wg.Wait()
	return recs, time.Since(t0)
}

func (w *mixWL) check(ctx context.Context) *checkResult {
	cr := &checkResult{}
	type bounds struct {
		lo, hi [topCheck]float64
	}
	per := make([]bounds, mixStreams)
	for s, name := range w.names {
		n := sum(w.sends[s]) * zipfFrameLen
		st := checkConserved(ctx, cr, w.srv.api, name, n)
		if st != nil {
			rel := w.released[s].Load()
			wantEps := releaseBudget.Eps - float64(rel)*releaseParams.Eps
			wantDelta := releaseBudget.Delta - float64(rel)*releaseParams.Delta
			if int64(st.Releases) != rel || st.RemainingEps != wantEps || st.RemainingDelta != wantDelta {
				cr.failf("%s: ledger (releases=%d, eps=%v, delta=%v), want exactly (%d, %v, %v)",
					name, st.Releases, st.RemainingEps, st.RemainingDelta, rel, wantEps, wantDelta)
			}
		}
		final := truth(w.frames[s], w.sends[s])
		end := make([]itemCount, len(w.top[s]))
		envelope := float64(n) / float64(sketchK+1)
		for i, ic := range w.top[s] {
			end[i] = itemCount{ic.item, final[ic.item]}
			// A release saw some state between preload and now: its
			// counters were at least the preload truth less the final
			// envelope, and at most the final truth.
			per[s].lo[i], per[s].hi[i] = float64(ic.count)-envelope, float64(final[ic.item])
		}
		checkEnvelope(ctx, cr, w.srv.api, name, end, n)
	}
	for _, smp := range w.samples {
		slack := 40 * smp.sigma
		for i, v := range smp.vals[:len(w.top[smp.stream])] {
			lo, hi := per[smp.stream].lo[i], per[smp.stream].hi[i]
			switch {
			case math.IsNaN(v):
				// Withheld: the noisy counter fell below the threshold 1+τ.
				if lo-slack > 1+smp.tau {
					cr.failf("%s: item %d withheld though its counter is at least %.0f (threshold %.1f, 40σ=%.1f)",
						w.names[smp.stream], w.top[smp.stream][i].item, lo, 1+smp.tau, slack)
				}
			case v < lo-slack || v > hi+slack:
				cr.failf("%s: item %d released as %.1f outside [%.0f, %.0f] ± 40σ (σ=%.2f)",
					w.names[smp.stream], w.top[smp.stream][i].item, v, lo, hi, smp.sigma)
			}
		}
	}
	return cr
}

func (w *mixWL) layerCounts() map[string]float64 {
	out := map[string]float64{
		"framing.bytes_per_item": float64(framing.HeaderSize+8*zipfFrameLen) / zipfFrameLen,
	}
	if t := w.twins["mix_ingest"]; t != nil {
		out["mg.decrements_per_kitem"] = t.decrementsPerKItem()
	}
	return out
}

func (w *mixWL) close() {
	for _, c := range w.conns {
		c.Close() //nolint:errcheck // the server is about to stop anyway
	}
	w.base.close()
}
