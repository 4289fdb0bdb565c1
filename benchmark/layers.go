package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"dpmg"
	"dpmg/internal/accountant"
	"dpmg/internal/cluster"
	"dpmg/internal/encoding"
	"dpmg/internal/framing"
	"dpmg/internal/merge"
	"dpmg/internal/mg"
	"dpmg/internal/qos"
	"dpmg/internal/stream"
)

// The traced run times each layer from the outside: a twin holds one
// in-process instance of every layer, fed the same inputs as the server,
// and a replay runs one op's input through the layers' public calls as
// child spans of that op. Inclusive times only — where two nested layers
// are both timed (manager ⊃ sharded ⊃ mg) the report subtracts.

// timingLoop is how many calls a span covers when one call is too short
// for the clock (tens of nanoseconds): the span's Units carries the count.
const timingLoop = 256

// releaseParams is the (ε, δ) every benchmark release spends. Both are
// dyadic, so any number of spends sums exactly in float64 and the budget
// ledger can be checked with ==.
var releaseParams = dpmg.Params{Eps: 1, Delta: 1.0 / (1 << 23)}

// releaseBudget is a stream's total allowance: 2^20 releases of
// releaseParams fit, far more than a run issues.
var releaseBudget = dpmg.Budget{Eps: 1 << 20, Delta: 1.0 / (1 << 3)}

// streamConfig is the config every benchmark stream is created with, on the
// server and in twins alike.
func streamConfig() dpmg.StreamConfig {
	return dpmg.StreamConfig{
		K: sketchK, Universe: universe, Shards: shards, Budget: releaseBudget,
		MaxIngestRate: -1, IngestBurst: -1, MaxInflightReleases: -1,
	}
}

// shardGroup routes an item to one of the twin's per-shard sketches with
// the same mix ShardedSketch routes with (its shardOf is private), so the mg
// layer is timed on the load a real shard sees. The mix must stay unrelated
// to mg's own index hash: grouping by that hash's top bits would pile a
// group's keys into one corner of the index table.
func shardGroup(x stream.Item) int {
	h := (uint64(x) + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return int(h % shards)
}

// twin is one generator goroutine's in-process copy of the layers.
type twin struct {
	mgr     *dpmg.Manager
	stream  *dpmg.Stream
	sharded *dpmg.ShardedSketch
	mgs     [shards]*mg.Sketch
	groups  [shards][]stream.Item

	bucket *qos.Bucket
	buf    []stream.Item
	hdr    []byte

	merger merge.Merger
	acct   *accountant.Accountant
	mech   dpmg.Mechanism

	// sink keeps the results of timing loops alive so the compiler cannot
	// drop the calls being timed.
	sink any

	dec     *cluster.SummaryDecoder
	fold    *dpmg.Stream // receives replayed folds
	edge    *dpmg.Stream // is fed and cut like an edge's local stream
	cold    *dpmg.Stream // is evicted and faulted in through store
	spool   *cluster.Spool
	store   *dpmg.DirStore
	sumBuf  []byte
	keys    []stream.Item
	vals    []int64
	replays int64
}

// newTwin builds a twin whose scratch files live under dir.
func newTwin(dir string, c int) (*twin, error) {
	mgr, err := dpmg.NewManager(streamConfig())
	if err != nil {
		return nil, err
	}
	t := &twin{
		mgr:     mgr,
		sharded: dpmg.NewShardedSketch(shards, sketchK, universe),
		// A ceiling far above any offered rate: Allow runs its full
		// compare-and-swap path and always admits.
		bucket: qos.NewBucket(1e15, 1<<30),
		hdr:    framing.AppendHeader(nil, framing.Header{Type: framing.TypeData, Seq: 1, Len: 8}),
		dec:    cluster.NewSummaryDecoder(),
	}
	for name, dst := range map[string]**dpmg.Stream{"twin": &t.stream, "twin-fold": &t.fold, "twin-edge": &t.edge, "twin-cold": &t.cold} {
		if *dst, _, err = mgr.CreateStream(name, dpmg.StreamConfig{}); err != nil {
			return nil, err
		}
	}
	for i := range t.mgs {
		t.mgs[i] = mg.New(sketchK, universe)
	}
	if t.acct, err = accountant.New(accountant.Budget{Eps: 1 << 40, Delta: 0.5}); err != nil {
		return nil, err
	}
	t.mech, _ = dpmg.MechanismByName(dpmg.MechanismGaussian)
	sub := filepath.Join(dir, fmt.Sprintf("twin-%d", c))
	if t.spool, err = cluster.OpenSpool(filepath.Join(sub, "spool")); err != nil {
		return nil, err
	}
	if t.store, err = dpmg.NewDirStore(filepath.Join(sub, "store")); err != nil {
		return nil, err
	}
	if err := mgr.SetOffloadStore(t.store); err != nil {
		return nil, err
	}
	return t, nil
}

// ingest applies items to every ingest-side layer of the twin untimed
// (preload, so replays run against server-like state).
func (t *twin) ingest(items []stream.Item) error {
	if err := t.stream.UpdateBatch(items); err != nil {
		return err
	}
	t.sharded.UpdateBatch(items)
	t.route(items)
	for i, g := range t.groups {
		t.mgs[i].UpdateBatch(g)
	}
	return nil
}

// route partitions items into the per-shard groups.
func (t *twin) route(items []stream.Item) {
	for i := range t.groups {
		t.groups[i] = t.groups[i][:0]
	}
	for _, x := range items {
		g := shardGroup(x)
		t.groups[g] = append(t.groups[g], x)
	}
}

// replayIngest runs one ingest frame through the ingest path's layers:
// header parse, item decode and validation, QoS admission, then the
// manager, sharded and mg update calls on the same items.
func (t *twin) replayIngest(tr *tracer, parent int32, op int64, fr frame) {
	n := int64(len(fr.items))
	rp := tr.begin("replay.ingest", parent, op)
	tr.timed("framing.parse_header", rp, op, timingLoop, func() {
		var h framing.Header
		for i := 0; i < timingLoop; i++ {
			h = framing.ParseHeader(t.hdr)
		}
		t.sink = h
	})
	tr.timed("encoding.decode_items", rp, op, n, func() {
		t.buf, _ = encoding.AppendItems(t.buf[:0], bytes.NewReader(fr.payload), framing.MaxDataItems, universe)
	})
	tr.timed("qos.admit", rp, op, timingLoop, func() {
		now := time.Now().UnixNano()
		ok := true
		for i := 0; i < timingLoop; i++ {
			ok = t.bucket.Allow(len(fr.items), now) && ok
		}
		t.sink = ok
	})
	tr.timed("manager.update_batch", rp, op, n, func() { t.sink = t.stream.UpdateBatch(fr.items) })
	tr.timed("sharded.update_batch", rp, op, n, func() { t.sharded.UpdateBatch(fr.items) })
	t.route(fr.items)
	tr.timed("mg.update", rp, op, n, func() {
		for i, g := range t.groups {
			t.mgs[i].UpdateBatch(g)
		}
	})
	tr.end(rp, n)
}

// shardSummaries extracts the per-shard summaries the release path merges.
func (t *twin) shardSummaries() ([]*merge.Summary, error) {
	sums := make([]*merge.Summary, len(t.mgs))
	for i, sk := range t.mgs {
		keys, vals := sk.AppendReal(nil, nil)
		s, err := merge.FromSorted(sketchK, keys, vals)
		if err != nil {
			return nil, err
		}
		sums[i] = s
	}
	return sums, nil
}

// replayRelease runs one release through the release path's layers:
// summarize, merge, calibrate, spend, noise, and the whole
// Stream.ReleaseDetailed beside them.
func (t *twin) replayRelease(tr *tracer, parent int32, op int64) error {
	rp := tr.begin("replay.release", parent, op)
	defer tr.end(rp, 1)
	var err error
	tr.timed("sharded.summary", rp, op, 1, func() { _, err = t.sharded.Summary() })
	if err != nil {
		return err
	}
	tr.timed("sharded.publish", rp, op, 1, func() { err = t.sharded.Publish() })
	if err != nil {
		return err
	}
	sums, err := t.shardSummaries()
	if err != nil {
		return err
	}
	tr.timed("merge.merge_all", rp, op, 1, func() { _, err = t.merger.MergeAll(sums) })
	if err != nil {
		return err
	}
	view, err := t.sharded.ReleaseView()
	if err != nil {
		return err
	}
	var cal *dpmg.Calibration
	tr.timed("release.calibrate", rp, op, 1, func() { cal, err = t.mech.Calibrate(releaseParams, view.Sens) })
	if err != nil {
		return err
	}
	tr.timed("accountant.spend", rp, op, timingLoop, func() {
		for i := 0; i < timingLoop && err == nil; i++ {
			err = t.acct.Spend(releaseParams.Eps, releaseParams.Delta)
		}
	})
	if err != nil {
		return err
	}
	noise := t.mech.Release // the mechanism's own method; see releaseOne on why not called in place
	tr.timed("release.noise", rp, op, 1, func() { t.sink = noise(view, cal, uint64(op)) })
	tr.timed("release.detailed", rp, op, 1, func() {
		_, err = t.stream.ReleaseDetailed(releaseParams, dpmg.WithSeed(uint64(op)))
	})
	return err
}

// replayRead times the two read calls: the point estimate and stats.
func (t *twin) replayRead(tr *tracer, parent int32, op int64, x stream.Item) error {
	rp := tr.begin("replay.read", parent, op)
	defer tr.end(rp, 1)
	tr.timed("manager.estimate", rp, op, timingLoop, func() {
		var e int64
		for i := 0; i < timingLoop; i++ {
			e += t.stream.Estimate(x)
		}
		t.sink = e
	})
	var err error
	tr.timed("manager.stats", rp, op, 1, func() { _, err = t.stream.Stats() })
	return err
}

// replayFold runs one shipped summary through the fan-in path's layers:
// the root's payload decode and fold, the summary codec both ways, the
// two-way merge, and the edge's side of the same ship (cut, spool).
func (t *twin) replayFold(tr *tracer, parent int32, op int64, payload []byte, v summaryVariant, blob []byte, edgeFeed []stream.Item) error {
	rp := tr.begin("replay.fold", parent, op)
	defer tr.end(rp, 1)
	t.replays++
	var (
		sum *dpmg.MergeableSummary
		err error
	)
	tr.timed("cluster.decode", rp, op, 1, func() { _, _, sum, err = t.dec.Decode(payload) })
	if err != nil {
		return err
	}
	tr.timed("manager.fold_summary", rp, op, 1, func() { err = t.fold.FoldSummary(sum) })
	if err != nil {
		return err
	}
	tr.timed("encoding.summary_decode", rp, op, 1, func() {
		_, t.keys, t.vals, err = encoding.DecodeSummaryColumns(blob, t.keys[:0], t.vals[:0])
	})
	if err != nil {
		return err
	}
	tr.timed("encoding.summary_encode", rp, op, 1, func() { t.sumBuf = encoding.AppendSummary(t.sumBuf[:0], v.sum) })
	pair := []*merge.Summary{v.sum, v.sum}
	tr.timed("merge.merge_all", rp, op, 1, func() { _, err = t.merger.MergeAll(pair) })
	if err != nil {
		return err
	}
	if err := t.edge.UpdateBatch(edgeFeed); err != nil {
		return err
	}
	tr.timed("manager.cut_summary", rp, op, 1, func() { _, err = t.edge.CutSummary(nil) })
	if err != nil {
		return err
	}
	// The spool write is two fsyncs; sampling it on every replay would
	// make the generator, not the root, the busiest process.
	if t.replays%8 == 1 {
		tr.timed("cluster.spool_save", rp, op, 1, func() { err = t.spool.Save("twin-edge", uint64(t.replays), v.sum) })
		if err != nil {
			return err
		}
		return t.spool.Delete(t.spool.Record("twin-edge", uint64(t.replays)))
	}
	return nil
}

// coldPreload loads the twin's cold-tier stream with a tenant's preload.
func (t *twin) coldPreload(frames []frame) error {
	for _, fr := range frames {
		if err := t.cold.UpdateBatch(fr.items); err != nil {
			return err
		}
	}
	return nil
}

// replayChurn runs one evict + fault-in cycle through the cold tier's
// layers: the manager's Evict and FaultIn on a directory store, and beside
// them the store's save and load, the record codec both ways, and the
// per-shard sketch restore.
func (t *twin) replayChurn(tr *tracer, parent int32, op int64, fr frame) (recordBytes int, err error) {
	rp := tr.begin("replay.churn", parent, op)
	defer tr.end(rp, 1)
	tr.timed("lifecycle.evict", rp, op, 1, func() { _, err = t.mgr.Evict(t.cold.Name()) })
	if err != nil {
		return 0, err
	}
	var data []byte
	tr.timed("lifecycle.store_load", rp, op, 1, func() { data, err = t.store.Load(t.cold.Name()) })
	if err != nil {
		return 0, err
	}
	tr.timed("lifecycle.faultin", rp, op, 1, func() { _, err = t.mgr.FaultIn(t.cold.Name()) })
	if err != nil {
		return 0, err
	}
	tr.timed("lifecycle.store_save", rp, op, 1, func() { err = t.store.Save("twin-scratch", data) })
	if err != nil {
		return 0, err
	}
	var state *encoding.StreamState
	tr.timed("encoding.stream_record_decode", rp, op, 1, func() { state, err = encoding.UnmarshalStream(bytes.NewReader(data)) })
	if err != nil {
		return 0, err
	}
	state.ShardSketches = make([]*mg.Sketch, len(state.ShardWires))
	tr.timed("lifecycle.restore", rp, op, int64(len(state.ShardWires)), func() {
		for i, w := range state.ShardWires {
			if state.ShardSketches[i], err = mg.RestoreColumns(w.K, w.Universe, w.N, w.Decrements, w.Keys, w.Vals); err != nil {
				return
			}
		}
	})
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	tr.timed("encoding.stream_record_encode", rp, op, 1, func() { err = encoding.MarshalStream(&buf, state) })
	if err != nil {
		return 0, err
	}
	return len(data), t.cold.UpdateBatch(fr.items)
}

// decrementsPerKItem is the exact Algorithm 1 decrement count of the
// twin's per-shard sketches per thousand items they ingested.
func (t *twin) decrementsPerKItem() float64 {
	var decs, n int64
	for _, sk := range t.mgs {
		decs += sk.Decrements()
		n += sk.N()
	}
	if n == 0 {
		return 0
	}
	return 1000 * float64(decs) / float64(n)
}
