package main

import (
	"context"
	"fmt"
	"time"

	"dpmg"
	"dpmg/internal/cluster"
	"dpmg/internal/framing"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

// fanin-fold loads only the root: real edges spend their time sketching and
// leave a root idle, so the generator runs synthetic edges that ship
// pre-encoded summaries as fast as the root acks them. An edge keeps one ship
// in flight (cluster.Conn has no pipelined ship), and with one edge per
// client the loop measures the loopback round trip: the root used 24 µs of
// CPU per ship, 10 of them on decode and fold, and sat idle between ships.
// Four edges per client keep it busy — 16 µs per ship, half of it decode and
// fold — which is also the shape a root serves: many edges, one ship each.
const (
	foldStreams        = 64
	foldEdgesPerClient = 4
	foldVariants       = 31   // summaries per edge, cycled; coprime to the stream count
	foldSegment        = 8192 // items sketched into each summary
	foldDupEvery       = 20   // every 20th ship re-sends an already-folded sequence: 5%
	foldTwins          = 1    // streams per edge replayed exactly by the in-process twin
	foldWarmOps        = 100  // per edge
)

// foldWL is the fanin-fold workload.
type foldWL struct {
	base
	closedLoop
	names    []string
	owned    [][]int // per edge: the streams it alone ships to
	variants [][]summaryVariant
	payloads [][]shipPayload
	conns    []*cluster.Conn
	seq      []uint64 // per stream: highest acked ship sequence
	unique   []int64  // per stream: ships acked as folded
	dups     []int64  // per edge: ships acked as duplicates
	feed     []stream.Item

	twins []*twin
}

// setupFold launches a root, pre-creates the streams, sketches each edge's
// summaries from the seed and warms the fold path up.
func setupFold(ctx context.Context, e *env) (instance, error) {
	srv, err := launchServer(ctx, e.bin, true)
	if err != nil {
		return nil, err
	}
	w := &foldWL{base: base{env: e, srv: srv, ctx: ctx}, seq: make([]uint64, foldStreams), unique: make([]int64, foldStreams)}
	edges := foldEdgesPerClient * e.clients
	w.next, w.dups, w.owned = make([]int64, edges), make([]int64, edges), make([][]int, edges)
	for s := 0; s < foldStreams; s++ {
		name := fmt.Sprintf("fold-%02d", s)
		if err := createStream(ctx, srv.api, name); err != nil {
			w.close()
			return nil, err
		}
		w.names = append(w.names, name)
		w.owned[s%edges] = append(w.owned[s%edges], s)
	}
	z := workload.NewZipfian(universe, zipfSkew, subSeed(e.seed, "fanin-fold"))
	w.feed = z.Stream(zipfFrameLen)
	for c := 0; c < edges; c++ {
		vs, err := summaryVariants(z, foldVariants, foldSegment)
		if err != nil {
			w.close()
			return nil, err
		}
		ps := make([]shipPayload, len(vs))
		for i, v := range vs {
			if ps[i], err = newShipPayload(v.sum, len(w.names[0])); err != nil {
				w.close()
				return nil, err
			}
		}
		w.variants, w.payloads = append(w.variants, vs), append(w.payloads, ps)
		fc, err := framing.DialTimeout(srv.fanin, 10*time.Second)
		if err != nil {
			w.close()
			return nil, err
		}
		conn, err := cluster.NewConn(fc, fmt.Sprintf("bench-edge-%d", c))
		if err != nil {
			w.close()
			return nil, err
		}
		w.conns = append(w.conns, conn)
	}
	recs, _ := w.closedLoop.drive(ctx, limit{ops: foldWarmOps}, false, w.op, nil)
	if err := warmErr(recs); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// plan says what edge c's i-th op ships: which stream, which variant, and
// whether the slot is a deliberate re-ship of the stream's current
// high-water sequence (which it can only be once the stream has one).
func (w *foldWL) plan(c int, i int64) (s, v int, reship bool) {
	return w.owned[c][i%int64(len(w.owned[c]))], int(i % foldVariants), i%foldDupEvery == foldDupEvery-1
}

// op ships one summary and requires the ack the plan predicts: folded for a
// new sequence, duplicate for a re-ship.
func (w *foldWL) op(c int, i int64, _ *recorder, _ int32) error {
	s, v, dup := w.plan(c, i)
	dup = dup && w.seq[s] > 0
	seq, want := w.seq[s]+1, framing.AckOK
	if dup {
		seq, want = w.seq[s], framing.AckDuplicate
	}
	payload, err := w.payloads[c][v].patch(w.names[s], seq)
	if err != nil {
		return err
	}
	ack, err := w.conns[c].ShipPayload(payload)
	if err != nil {
		return err
	}
	if ack.Code != want {
		return fmt.Errorf("ship %s seq %d: ack %s, want %s: %w", w.names[s], seq, ack.Code, want, &framing.AckError{Ack: ack})
	}
	if dup {
		w.dups[c]++
	} else {
		w.seq[s], w.unique[s] = seq, w.unique[s]+1
	}
	return nil
}

// replay runs the op's payload through the twin's fan-in layers.
func (w *foldWL) replay(c int, i int64, r *recorder, parent int32) error {
	v := int(i % foldVariants)
	p := w.payloads[c][v]
	return w.twins[c].replayFold(r.tr, parent, opID(c, i), p.buf, w.variants[c][v], p.blob(), w.feed)
}

func (w *foldWL) prepareTrace() error {
	for c := range w.next {
		t, err := newTwin(w.env.dir, c)
		if err != nil {
			return err
		}
		w.twins = append(w.twins, t)
	}
	return nil
}

func (w *foldWL) drive(ctx context.Context, d time.Duration, traced bool) ([]*recorder, time.Duration) {
	return w.closedLoop.drive(ctx, limit{d: d}, traced, w.op, w.replay)
}

// check requires the root's fold and dedup counts to equal the unique and
// duplicate ships, every stream to hold as many summaries as were acked,
// and — on a sample of streams — the root's estimates to equal those of an
// in-process twin that folded the same summaries in the same order.
func (w *foldWL) check(ctx context.Context) *checkResult {
	cr := &checkResult{}
	m, err := w.srv.scrape(ctx)
	if err != nil {
		cr.failf("scrape: %v", err)
		return cr
	}
	if got, want := int64(m["dpmg_cluster_folded_total"]), sum(w.unique); got != want {
		cr.failf("root folded %d summaries, %d unique ships were acked", got, want)
	}
	if got, want := int64(m["dpmg_cluster_deduped_total"]), sum(w.dups); got != want {
		cr.failf("root deduplicated %d ships, %d re-ships were acked", got, want)
	}
	for s, name := range w.names {
		st, err := w.srv.api.Stats(ctx, name)
		if err != nil {
			cr.failf("%s: stats: %v", name, err)
			continue
		}
		if int64(st.Nodes) != w.unique[s] {
			cr.failf("%s: root merged %d summaries, %d were acked as folded", name, st.Nodes, w.unique[s])
		}
	}
	mgr, err := dpmg.NewManager(streamConfig())
	if err != nil {
		cr.failf("twin: %v", err)
		return cr
	}
	for c := range w.next {
		twinOf := make(map[int]*dpmg.Stream)
		for _, s := range w.owned[c][:min(foldTwins, len(w.owned[c]))] {
			st, _, err := mgr.CreateStream(w.names[s], dpmg.StreamConfig{})
			if err != nil {
				cr.failf("twin: %v", err)
				return cr
			}
			twinOf[s] = st
		}
		// Re-run the edge's plan: the op sequence is a function of the op
		// index alone, so the twin folds exactly what the root acked.
		folded := make([]uint64, foldStreams)
		for i := int64(0); i < w.next[c]; i++ {
			s, v, dup := w.plan(c, i)
			if dup && folded[s] > 0 {
				continue
			}
			folded[s]++
			if st := twinOf[s]; st != nil {
				if err := st.FoldSummary(w.variants[c][v].wrapped); err != nil {
					cr.failf("twin fold: %v", err)
					return cr
				}
			}
		}
		for s, st := range twinOf {
			if folded[s] != uint64(w.unique[s]) {
				cr.failf("%s: plan replays %d folds, %d were acked (an op failed mid-run)", w.names[s], folded[s], w.unique[s])
				continue
			}
			view, err := st.ReleaseView()
			if err != nil {
				cr.failf("%s: twin view: %v", w.names[s], err)
				continue
			}
			counters := make([]itemCount, len(view.Keys))
			for i, x := range view.Keys {
				counters[i] = itemCount{x, view.Vals[i]}
			}
			for _, ic := range largest(counters, topCheck) {
				got, err := w.srv.api.Estimate(ctx, w.names[s], ic.item)
				if err != nil {
					cr.failf("%s: estimate(%d): %v", w.names[s], ic.item, err)
				} else if got != ic.count {
					cr.failf("%s: item %d: root estimates %d, twin %d", w.names[s], ic.item, got, ic.count)
				}
			}
		}
	}
	return cr
}

func (w *foldWL) layerCounts() map[string]float64 {
	return map[string]float64{"cluster.payload_bytes": float64(len(w.payloads[0][0].buf))}
}

func (w *foldWL) close() {
	for _, c := range w.conns {
		c.Close() //nolint:errcheck // the root is about to stop anyway
	}
	w.base.close()
}
