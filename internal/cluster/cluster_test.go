package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpmg"
	"dpmg/internal/framing"
	"dpmg/internal/merge"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

// testDefaults is the stream config every manager in these tests shares —
// edge and root must agree on (k, universe) for folds to compose.
func testDefaults() dpmg.StreamConfig {
	return dpmg.StreamConfig{
		K: 64, Universe: 1000, Shards: 2,
		Budget: dpmg.Budget{Eps: 16, Delta: 1e-3},
	}
}

func testManager(t testing.TB) *dpmg.Manager {
	t.Helper()
	m, err := dpmg.NewManager(testDefaults())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// foldLog records the root's folds for differential replay. Hooks run
// under the folded stream's lane, so for any one stream the log's
// subsequence is that stream's exact fold order — the order the twin
// replays; the interleaving *across* streams is arbitrary and irrelevant
// (streams are independent).
type foldLog struct {
	mu    sync.Mutex
	folds []loggedFold
}

type loggedFold struct {
	stream string
	keys   []stream.Item
	counts []int64
}

// hook clones the folded summary (the root's stream owns the original).
func (l *foldLog) hook(edge, name string, seq uint64, sum *dpmg.MergeableSummary) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.folds = append(l.folds, loggedFold{
		stream: name,
		keys:   append([]stream.Item(nil), sum.Keys()...),
		counts: append([]int64(nil), sum.Counts()...),
	})
}

// twin replays the fold log into a fresh single-process manager: the
// differential twin the root must match byte-for-byte under a shared seed.
func (l *foldLog) twin(t testing.TB) *dpmg.Manager {
	t.Helper()
	m := testManager(t)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, f := range l.folds {
		st, _, err := m.CreateStream(f.stream, dpmg.StreamConfig{})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := dpmg.NewMergeableSummarySorted(testDefaults().K, f.keys, f.counts)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.FoldSummary(sum); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// startRoot serves a Root on a loopback listener, returning it, its
// address, and a stopper.
func startRoot(t testing.TB, mgr *dpmg.Manager, log *foldLog) (*Root, string, func()) {
	t.Helper()
	cfg := RootConfig{Manager: mgr, AutoCreate: true}
	if log != nil {
		cfg.FoldHook = log.hook
	}
	return startRootCfg(t, cfg)
}

// startRootCfg is startRoot with full config control (lane counts, hooks).
func startRootCfg(t testing.TB, cfg RootConfig) (*Root, string, func()) {
	t.Helper()
	root, err := NewRoot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		root.Serve(ln) //nolint:errcheck // shutdown closes the listener
	}()
	return root, ln.Addr().String(), func() { root.Shutdown(); <-done }
}

// dialConn connects and says hello as edge id.
func dialConn(t testing.TB, addr, id string) *Conn {
	t.Helper()
	c, err := framing.DialTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := NewConn(c, id)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// mustShip ships and asserts the ack code.
func mustShip(t *testing.T, c *Conn, name string, seq uint64, sum *merge.Summary, want framing.AckCode) framing.Ack {
	t.Helper()
	ack, err := c.ShipSummary(name, seq, sum)
	if err != nil {
		t.Fatalf("ship %s/%d: %v", name, seq, err)
	}
	if ack.Code != want {
		t.Fatalf("ship %s/%d: ack %s (%s), want %s", name, seq, ack.Code, ack.Msg, want)
	}
	return ack
}

// assertSameRelease pins the differential contract: the two managers'
// streams release byte-identically under a shared seed.
func assertSameRelease(t testing.TB, a, b *dpmg.Manager, name string, seed uint64) {
	t.Helper()
	sa, ok := a.Stream(name)
	if !ok {
		t.Fatalf("stream %q missing on first manager", name)
	}
	sb, ok := b.Stream(name)
	if !ok {
		t.Fatalf("stream %q missing on second manager", name)
	}
	p := dpmg.Params{Eps: 1, Delta: 1e-6}
	ra, err := sa.ReleaseDetailed(p, dpmg.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := sb.ReleaseDetailed(p, dpmg.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Histogram) != len(rb.Histogram) {
		t.Fatalf("%q: releases have %d vs %d keys", name, len(ra.Histogram), len(rb.Histogram))
	}
	for k, v := range ra.Histogram {
		if rb.Histogram[k] != v {
			t.Fatalf("%q key %d: %v vs %v", name, k, v, rb.Histogram[k])
		}
	}
}

// TestRootDedupHostileInputs drives the fold path with hostile sequences —
// duplicate re-ships, out-of-order arrivals, per-edge namespaces, a
// partial fleet — and pins the surviving folds differentially against a
// single-process replay of the root's fold log.
func TestRootDedupHostileInputs(t *testing.T) {
	var log foldLog
	rootMgr := testManager(t)
	root, addr, stop := startRoot(t, rootMgr, &log)
	defer stop()

	sumA := testSummary(t, 64, []stream.Item{2, 5}, []int64{10, 3})
	sumB := testSummary(t, 64, []stream.Item{7}, []int64{4})
	sumC := testSummary(t, 64, []stream.Item{2}, []int64{1})
	sumD := testSummary(t, 64, []stream.Item{9}, []int64{6})

	e1 := dialConn(t, addr, "edge-1")
	defer e1.Close()
	e2 := dialConn(t, addr, "edge-2")
	defer e2.Close()

	mustShip(t, e1, "s", 1, sumA, framing.AckOK)
	// Exact duplicate re-ship (restarted edge): absorbed, not folded.
	mustShip(t, e1, "s", 1, sumA, framing.AckDuplicate)
	// Gap: acceptable (the root never sees what was never shipped).
	mustShip(t, e1, "s", 5, sumB, framing.AckOK)
	// Out-of-order arrival below the high-water mark: deduped.
	mustShip(t, e1, "s", 3, sumC, framing.AckDuplicate)
	// A different edge's seq 1 is a different namespace: folded.
	mustShip(t, e2, "s", 1, sumD, framing.AckOK)
	// edge-3 never ships at all — a partial fleet is not an error.

	if got := root.Stats(); got.Folded != 3 || got.Deduped != 2 {
		t.Fatalf("root folded %d / deduped %d, want 3 / 2", got.Folded, got.Deduped)
	}
	es := root.Stats().Edges
	if len(es) != 2 || es[0].Folded != 2 || es[0].Deduped != 2 || es[1].Folded != 1 {
		t.Fatalf("edge stats %+v", es)
	}

	// Seq queries answer the per-edge high-water marks.
	if last, err := e1.LastSeq("s"); err != nil || last != 5 {
		t.Fatalf("edge-1 LastSeq = (%d, %v), want 5", last, err)
	}
	if last, err := e2.LastSeq("s"); err != nil || last != 1 {
		t.Fatalf("edge-2 LastSeq = (%d, %v), want 1", last, err)
	}
	if last, err := e2.LastSeq("unshipped"); err != nil || last != 0 {
		t.Fatalf("LastSeq(unshipped) = (%d, %v), want 0", last, err)
	}

	// The root's node tier must equal a single-process replay of its fold
	// log — and the exact counts of the surviving folds (k is above the
	// distinct-key count, so sketches are exact here).
	st, _ := rootMgr.Stream("s")
	if got := st.Estimate(2); got != 10 {
		t.Fatalf("estimate(2) = %d, want 10 (duplicate folded?)", got)
	}
	assertSameRelease(t, rootMgr, log.twin(t), "s", 42)
}

// TestRootRefusesOverflowingFold is the regression test for wrapped fold
// sums: a summary whose fold would push a counter past int64 acks
// AckBadItem, and the edge's high-water sequence stays at the last fold
// that happened, so the refused sequence is never deduplicated as folded.
func TestRootRefusesOverflowingFold(t *testing.T) {
	rootMgr := testManager(t)
	root, addr, stop := startRoot(t, rootMgr, nil)
	defer stop()
	const big = int64(1) << 62
	sum := testSummary(t, 64, []stream.Item{7}, []int64{big})
	e := dialConn(t, addr, "edge-1")
	defer e.Close()

	mustShip(t, e, "s", 1, sum, framing.AckOK)
	mustShip(t, e, "s", 2, sum, framing.AckBadItem)
	if last, err := e.LastSeq("s"); err != nil || last != 1 {
		t.Fatalf("LastSeq = (%d, %v) after the refused fold, want 1", last, err)
	}
	if got := root.Stats().Folded; got != 1 {
		t.Fatalf("root folded %d summaries, want 1", got)
	}
	st := mustStream(t, rootMgr, "s")
	if got := st.Estimate(7); got != big {
		t.Fatalf("estimate(7) = %d after the refused fold, want %d", got, big)
	}
	if got := st.Nodes(); got != 1 {
		t.Fatalf("nodes = %d after the refused fold, want 1", got)
	}
}

// TestRootRequiresHello pins the protocol gate: aggregation-tier frames
// before hello refuse with AckNotHello.
func TestRootRequiresHello(t *testing.T) {
	_, addr, stop := startRoot(t, testManager(t), nil)
	defer stop()
	c, err := framing.DialTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload, err := AppendSummaryPayload(nil, "s", 1, testSummary(t, 64, []stream.Item{1}, []int64{1}))
	if err != nil {
		t.Fatal(err)
	}
	ack, err := c.Exchange(framing.TypeSummary, payload)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Code != framing.AckNotHello {
		t.Fatalf("summary before hello acked %s, want not-hello", ack.Code)
	}
}

// edgeHarness is one edge's full local stack for the failover tests.
type edgeHarness struct {
	mgr     *dpmg.Manager
	spool   *Spool
	shipper *Shipper
}

// newEdge builds an edge with a fresh manager and a spool in dir.
func newEdge(t *testing.T, id, upstream, dir string) *edgeHarness {
	t.Helper()
	mgr := testManager(t)
	sp, err := OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewShipper(ShipperConfig{
		Manager: mgr, EdgeID: id, Upstream: upstream, Spool: sp,
		DialTimeout: 2 * time.Second, BackoffMin: 10 * time.Millisecond, BackoffMax: 100 * time.Millisecond,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &edgeHarness{mgr: mgr, spool: sp, shipper: sh}
}

// ingest pushes a batch into the edge's (auto-created) stream.
func (e *edgeHarness) ingest(t *testing.T, name string, items []stream.Item) {
	t.Helper()
	st, _, err := e.mgr.CreateStream(name, dpmg.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateBatch(items); err != nil {
		t.Fatal(err)
	}
}

// TestClusterFailover is the end-to-end failover pin: 1 root + 2 edges;
// one edge "crashes" with a cut spooled but unshipped and comes back (same
// id, same spool) — the re-ship folds exactly once; a second incarnation
// re-ships again and is absorbed as a duplicate; an edge that loses its
// spool but keeps its id re-syncs its sequence baseline and never reuses a
// folded sequence; and throughout, the root equals its single-process
// differential twin and keeps serving from the surviving edge.
func TestClusterFailover(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var log foldLog
	rootMgr := testManager(t)
	_, addr, stop := startRoot(t, rootMgr, &log)
	defer stop()

	dir1, dir2 := t.TempDir(), t.TempDir()
	edge1 := newEdge(t, "edge-1", addr, dir1)
	edge2 := newEdge(t, "edge-2", addr, dir2)

	edge1.ingest(t, "s", workload.HeavyTail(5000, 100, 3, 0.9, 1))
	edge2.ingest(t, "s", workload.HeavyTail(5000, 100, 3, 0.9, 2))
	if err := edge1.shipper.ShipCycle(ctx); err != nil {
		t.Fatal(err)
	}
	if err := edge2.shipper.ShipCycle(ctx); err != nil {
		t.Fatal(err)
	}

	// Crash edge-1 after a cut that never ships: persist the cut directly
	// into its spool (exactly the on-disk state a crash between the cut's
	// persist and the ship leaves behind), then abandon the process state.
	edge1.ingest(t, "s", workload.HeavyTail(3000, 100, 3, 0.9, 3))
	st1, _ := edge1.mgr.Stream("s")
	seq := edge1.shipper.nextSeq["s"]
	if _, err := st1.CutSummary(func(out *dpmg.MergeableSummary) error {
		m, err := merge.FromSorted(out.K(), out.Keys(), out.Counts())
		if err != nil {
			return err
		}
		return edge1.spool.Save("s", seq, m)
	}); err != nil {
		t.Fatal(err)
	}
	edge1.shipper.Close()

	// The root keeps serving from the surviving edge while edge-1 is down.
	edge2.ingest(t, "s", workload.HeavyTail(2000, 100, 3, 0.9, 4))
	if err := edge2.shipper.ShipCycle(ctx); err != nil {
		t.Fatal(err)
	}
	foldedBefore := log.twinLen()
	if foldedBefore == 0 {
		t.Fatal("no folds before the restart")
	}
	if _, err := mustStream(t, rootMgr, "s").ReleaseDetailed(dpmg.Params{Eps: 0.5, Delta: 1e-6}, dpmg.WithSeed(7)); err != nil {
		t.Fatalf("root release with edge-1 down: %v", err)
	}

	// Restart edge-1: same id, same spool directory, fresh everything else.
	restarted := newEdge(t, "edge-1", addr, dir1)
	if restarted.spool.Pending() != 1 {
		t.Fatalf("restarted edge sees %d spooled records, want 1", restarted.spool.Pending())
	}
	if err := restarted.shipper.ShipCycle(ctx); err != nil {
		t.Fatal(err)
	}
	if restarted.spool.Pending() != 0 {
		t.Fatalf("re-ship left %d records spooled", restarted.spool.Pending())
	}

	// A second incarnation re-shipping the same record (the ack was lost
	// before the delete, say) must be absorbed, not folded twice. Rebuild
	// the record bytes and ship them raw.
	conn := dialConn(t, addr, "edge-1")
	defer conn.Close()
	if last, err := conn.LastSeq("s"); err != nil || last != seq {
		t.Fatalf("root high-water = (%d, %v), want %d", last, err, seq)
	}

	// Spool-loss restart: fresh spool dir, same id. The baseline re-sync
	// must place new cuts above the folded high-water mark.
	lost := newEdge(t, "edge-1", addr, t.TempDir())
	lost.ingest(t, "s", workload.HeavyTail(1000, 100, 3, 0.9, 5))
	if err := lost.shipper.ShipCycle(ctx); err != nil {
		t.Fatal(err)
	}
	if got := lost.shipper.nextSeq["s"]; got <= seq {
		t.Fatalf("post-loss nextSeq = %d, want > %d (folded work would be shadowed)", got, seq)
	}
	if got := lost.shipper.Stats(); got.Shipped != 1 || got.SpoolPending != 0 {
		t.Fatalf("post-loss shipper stats %+v, want 1 shipped, 0 pending", got)
	}

	// Differential pin over everything that happened.
	assertSameRelease(t, rootMgr, log.twin(t), "s", 99)
}

// twinLen returns the fold count without building the twin.
func (l *foldLog) twinLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.folds)
}

// mustStream fetches a stream or fails.
func mustStream(t testing.TB, m *dpmg.Manager, name string) *dpmg.Stream {
	t.Helper()
	st, ok := m.Stream(name)
	if !ok {
		t.Fatalf("stream %q missing", name)
	}
	return st
}

// TestRootRestartResumesDedup pins the root-side failover: a root restarted
// from its manager snapshot plus its sequence table refuses re-shipped
// already-folded records and accepts the next fresh one, and the edge's
// redialer bridges the outage.
func TestRootRestartResumesDedup(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var log foldLog
	rootMgr := testManager(t)
	root, addr, stop := startRoot(t, rootMgr, &log)

	edge := newEdge(t, "edge-1", addr, t.TempDir())
	edge.ingest(t, "s", workload.HeavyTail(4000, 100, 3, 0.9, 6))
	if err := edge.shipper.ShipCycle(ctx); err != nil {
		t.Fatal(err)
	}

	// Quiesce and persist the root: manager snapshot + sequence table.
	var snap, seqs bytes.Buffer
	if err := rootMgr.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := root.SaveSeqs(&seqs); err != nil {
		t.Fatal(err)
	}
	stop()
	edge.shipper.dropConn()

	// Restart the root on the same address from the persisted state.
	restoredMgr, err := dpmg.RestoreManager(bytes.NewReader(snap.Bytes()), testDefaults())
	if err != nil {
		t.Fatal(err)
	}
	root2, err := NewRoot(RootConfig{Manager: restoredMgr, AutoCreate: true, FoldHook: log.hook})
	if err != nil {
		t.Fatal(err)
	}
	if err := root2.LoadSeqs(bytes.NewReader(seqs.Bytes())); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); root2.Serve(ln) }() //nolint:errcheck
	defer func() { root2.Shutdown(); <-done }()

	// A crash-leftover duplicate: re-ship seq 1's bytes raw.
	leftover := testSummary(t, 64, []stream.Item{1}, []int64{1})
	conn := dialConn(t, addr, "edge-1")
	defer conn.Close()
	ack, err := conn.ShipSummary("s", 1, leftover)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Code != framing.AckDuplicate {
		t.Fatalf("re-ship of folded seq after root restart acked %s, want duplicate", ack.Code)
	}

	// The edge's shipper survives the restart through its redialer and
	// ships fresh traffic at the next sequence.
	edge.ingest(t, "s", workload.HeavyTail(1500, 100, 3, 0.9, 7))
	if err := edge.shipper.ShipCycle(ctx); err != nil {
		t.Fatal(err)
	}
	if got := root2.Stats(); got.Folded != 1 || got.Deduped != 1 {
		t.Fatalf("restarted root folded %d / deduped %d, want 1 / 1", got.Folded, got.Deduped)
	}
}

// TestShipperRunLoop smoke-tests the background loop end to end on a short
// interval: traffic ingested after Run starts is cut, shipped, and folded
// without any manual cycles.
func TestShipperRunLoop(t *testing.T) {
	rootMgr := testManager(t)
	root, addr, stop := startRoot(t, rootMgr, nil)
	defer stop()
	edge := newEdge(t, "edge-1", addr, t.TempDir())
	edge.shipper.cfg.Interval = 20 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); edge.shipper.Run(ctx) }() //nolint:errcheck

	edge.ingest(t, "s", []stream.Item{4, 4, 4, 9})
	deadline := time.After(10 * time.Second)
	for root.Stats().Folded == 0 {
		select {
		case <-deadline:
			cancel()
			t.Fatal("shipper loop never folded the traffic upstream")
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	<-done
	if got := mustStream(t, rootMgr, "s").Estimate(4); got != 3 {
		t.Fatalf("root estimate(4) = %d, want 3", got)
	}
}

// TestShipperFlushDuringRun pins the admin-drain race: Flush called while
// the Run loop's ticker is live must serialize with the loop's cycles on
// the pump mutex — they share the sequence counters and the upstream
// connection, and an interleaved pair of cycles could cut the same
// sequence twice (Spool.Save atomically replaces the first record: silent
// loss). Run under -race this fails loudly without the mutex; the exact
// per-key counts at the root pin the no-double-cut, no-loss outcome.
func TestShipperFlushDuringRun(t *testing.T) {
	rootMgr := testManager(t)
	root, addr, stop := startRoot(t, rootMgr, nil)
	defer stop()
	edge := newEdge(t, "edge-1", addr, t.TempDir())
	edge.shipper.cfg.Interval = time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); edge.shipper.Run(ctx) }() //nolint:errcheck

	const rounds = 25
	want := make(map[stream.Item]int64)
	for i := 0; i < rounds; i++ {
		key := stream.Item(i%7 + 1)
		edge.ingest(t, "s", []stream.Item{key})
		want[key]++
		if err := edge.shipper.Flush(ctx); err != nil {
			cancel()
			<-done
			t.Fatal(err)
		}
	}
	cancel()
	<-done
	if got := edge.spool.Pending(); got != 0 {
		t.Fatalf("flush left %d records spooled", got)
	}
	if got := root.Stats(); got.Folded == 0 {
		t.Fatal("nothing folded at the root")
	}
	st := mustStream(t, rootMgr, "s")
	for key, count := range want {
		if got := st.Estimate(key); got != count {
			t.Fatalf("root estimate(%d) = %d, want exactly %d (k exceeds distinct keys)", key, got, count)
		}
	}
}

// benchSummary builds the 64-entry fold payload every fan-in bench ships.
// Summaries are read-only on the ship path, so workers may share one.
func benchSummary(b *testing.B) *merge.Summary {
	b.Helper()
	keys := make([]stream.Item, 64)
	counts := make([]int64, 64)
	for i := range keys {
		keys[i] = stream.Item(i + 1)
		counts[i] = int64(i%9 + 1)
	}
	sum, err := merge.FromSorted(64, keys, counts)
	if err != nil {
		b.Fatal(err)
	}
	return sum
}

// BenchmarkClusterFanIn measures root fold throughput over real loopback
// connections — the summaries-folded-per-second rows of BENCH_core.json.
// "single" is one edge shipping into one stream, the pre-lane shape kept as
// the serial-path regression guard. "parallel" is one connection per worker
// folding into its own stream on the default lane table; "serial" applies
// the same load to a single-lane root, the lock-convoy baseline the striped
// default is measured against. Run with -cpu 1,4,8 to see the scaling
// curve: the lanes only pay off when GOMAXPROCS and the worker count rise
// together.
func BenchmarkClusterFanIn(b *testing.B) {
	b.Run("single", benchFanInSingle)
	b.Run("parallel", func(b *testing.B) { benchFanInWorkers(b, 0) })
	b.Run("serial", func(b *testing.B) { benchFanInWorkers(b, 1) })
}

func benchFanInSingle(b *testing.B) {
	rootMgr := testManager(b)
	_, addr, stop := startRoot(b, rootMgr, nil)
	defer stop()
	c, err := framing.DialTimeout(addr, 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	conn, err := NewConn(c, "bench-edge")
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	sum := benchSummary(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ack, err := conn.ShipSummary("bench", uint64(i+1), sum)
		if err != nil {
			b.Fatal(err)
		}
		if ack.Code != framing.AckOK {
			b.Fatalf("ack %s: %s", ack.Code, ack.Msg)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "summaries/s")
}

// benchFanInWorkers drives one connection per parallel worker, each edge
// folding into its own stream — the multi-edge fleet shape the fold lanes
// exist for. lanes = 0 uses the striped default; lanes = 1 serializes every
// fold through one lane.
func benchFanInWorkers(b *testing.B, lanes int) {
	rootMgr := testManager(b)
	_, addr, stop := startRootCfg(b, RootConfig{Manager: rootMgr, AutoCreate: true, Lanes: lanes})
	defer stop()
	sum := benchSummary(b)
	var workers atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := workers.Add(1)
		c, err := framing.DialTimeout(addr, 5*time.Second)
		if err != nil {
			b.Error(err)
			return
		}
		conn, err := NewConn(c, fmt.Sprintf("edge-%d", id))
		if err != nil {
			b.Error(err)
			return
		}
		defer conn.Close()
		name := fmt.Sprintf("bench-%d", id)
		var seq uint64
		for pb.Next() {
			seq++
			ack, err := conn.ShipSummary(name, seq, sum)
			if err != nil {
				b.Error(err)
				return
			}
			if ack.Code != framing.AckOK {
				b.Errorf("ack %s: %s", ack.Code, ack.Msg)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "summaries/s")
}

// SaveSeqs writes the (edge, stream) → last-folded-seq table as JSON. The
// server persists it next to the manager snapshot: restoring both together
// resumes the exactly-once contract across a root restart. Callers who
// pair the table with a manager snapshot should use SnapshotSeqs instead,
// which captures both at the same quiesce point.
func (r *Root) SaveSeqs(w io.Writer) error {
	r.gate.Lock()
	defer r.gate.Unlock()
	return json.NewEncoder(w).Encode(seqTable{Seqs: r.captureSeqs()})
}
