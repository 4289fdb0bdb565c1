package main

import (
	"context"
	"fmt"
	"time"

	"dpmg/internal/framing"
	"dpmg/internal/workload"
)

// The two ingest workloads differ only in datapath and input shape, which
// is the point: the same closed loop, one loading mg and one bypassing it.
const (
	ingestPool    = 128 // pre-encoded frames per client, cycled
	zipfFrameLen  = 4096
	hotFrameLen   = 512
	hotKeys       = 64
	ingestWarmOps = 400
)

// ingestWL is zipf-tcp (http false) or hot-http (http true).
type ingestWL struct {
	base
	closedLoop
	http   bool
	names  []string
	frames [][]frame // per client
	sends  [][]int64 // per client, per frame: acked sends
	conns  []*framing.Client
	twins  []*twin // per client, traced runs only
}

// setupIngest launches a server, creates one stream per client, generates
// each client's frame pool from the seed and warms the path up.
func setupIngest(ctx context.Context, e *env, http bool) (instance, error) {
	srv, err := launchServer(ctx, e.bin, false)
	if err != nil {
		return nil, err
	}
	w := &ingestWL{base: base{env: e, srv: srv, ctx: ctx}, http: http}
	w.next = make([]int64, e.clients)
	var z *workload.Zipfian
	if !http {
		z = workload.NewZipfian(universe, zipfSkew, subSeed(e.seed, "zipf-tcp"))
	}
	for c := 0; c < e.clients; c++ {
		name := fmt.Sprintf("ingest-%d", c)
		if err := createStream(ctx, srv.api, name); err != nil {
			w.close()
			return nil, err
		}
		w.names = append(w.names, name)
		if http {
			w.frames = append(w.frames, hotFrames(subSeed(e.seed, name), hotKeys, ingestPool, hotFrameLen))
		} else {
			w.frames = append(w.frames, zipfFrames(z, ingestPool, zipfFrameLen))
			conn, err := dialBound(srv.target.IngestAddr, name)
			if err != nil {
				w.close()
				return nil, err
			}
			w.conns = append(w.conns, conn)
		}
		w.sends = append(w.sends, make([]int64, ingestPool))
	}
	recs, _ := w.closedLoop.drive(ctx, limit{ops: ingestWarmOps}, false, w.op, nil)
	if err := warmErr(recs); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// op sends client c's next frame and waits for its ack.
func (w *ingestWL) op(c int, i int64, _ *recorder, _ int32) error {
	f := int(i % ingestPool)
	var err error
	if w.http {
		err = w.srv.api.PostBatch(w.ctx, w.names[c], w.frames[c][f].payload)
	} else {
		err = sendFrame(w.conns[c], w.frames[c][f].payload)
	}
	if err == nil {
		w.sends[c][f]++
	}
	return err
}

// replay runs the op's frame through the twin's ingest layers.
func (w *ingestWL) replay(c int, i int64, r *recorder, parent int32) error {
	w.twins[c].replayIngest(r.tr, parent, opID(c, i), w.frames[c][i%ingestPool])
	return nil
}

// prepareTrace builds one twin per client and loads it with one pass of the
// client's pool, so replays meet counters as full as the server's.
func (w *ingestWL) prepareTrace() error {
	for c := range w.next {
		t, err := newTwin(w.env.dir, c)
		if err != nil {
			return err
		}
		for _, fr := range w.frames[c] {
			if err := t.ingest(fr.items); err != nil {
				return err
			}
		}
		w.twins = append(w.twins, t)
	}
	return nil
}

func (w *ingestWL) drive(ctx context.Context, d time.Duration, traced bool) ([]*recorder, time.Duration) {
	return w.closedLoop.drive(ctx, limit{d: d}, traced, w.op, w.replay)
}

func (w *ingestWL) check(ctx context.Context) *checkResult {
	cr := &checkResult{}
	for c, name := range w.names {
		frameLen := int64(len(w.frames[c][0].items))
		n := sum(w.sends[c]) * frameLen
		checkConserved(ctx, cr, w.srv.api, name, n)
		checkEnvelope(ctx, cr, w.srv.api, name, topOf(truth(w.frames[c], w.sends[c]), topCheck), n)
	}
	return cr
}

func (w *ingestWL) layerCounts() map[string]float64 {
	out := map[string]float64{"framing.bytes_per_item": 8}
	if !w.http {
		out["framing.bytes_per_item"] = float64(framing.HeaderSize+len(w.frames[0][0].payload)) / float64(len(w.frames[0][0].items))
	}
	if len(w.twins) > 0 {
		out["mg.decrements_per_kitem"] = w.twins[0].decrementsPerKItem()
	}
	return out
}

func (w *ingestWL) close() {
	for _, c := range w.conns {
		c.Close() //nolint:errcheck // the server is about to stop anyway
	}
	w.base.close()
}
