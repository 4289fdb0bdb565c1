package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dpmg"
	"dpmg/internal/cluster"
	"dpmg/internal/stream"
)

// clusterDefaults is the shared edge/root stream config for these tests:
// folds compose only when (k, universe) agree across the tier.
func clusterDefaults() dpmg.StreamConfig {
	return dpmg.StreamConfig{K: 64, Universe: 1000, Budget: dpmg.Budget{Eps: 16, Delta: 1e-3}}
}

// serverFoldLog records the root's fold order for differential replay,
// exactly like the internal/cluster tests do.
type serverFoldLog struct {
	mu    sync.Mutex
	folds []serverLoggedFold
}

type serverLoggedFold struct {
	stream string
	keys   []stream.Item
	counts []int64
}

func (l *serverFoldLog) hook(edge, name string, seq uint64, sum *dpmg.MergeableSummary) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.folds = append(l.folds, serverLoggedFold{
		stream: name,
		keys:   append([]stream.Item(nil), sum.Keys()...),
		counts: append([]int64(nil), sum.Counts()...),
	})
}

// twin replays the fold log into a fresh single-process manager.
func (l *serverFoldLog) twin(t *testing.T) *dpmg.Manager {
	t.Helper()
	m, err := dpmg.NewManager(clusterDefaults())
	if err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, f := range l.folds {
		st, _, err := m.CreateStream(f.stream, dpmg.StreamConfig{})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := dpmg.NewMergeableSummarySorted(clusterDefaults().K, f.keys, f.counts)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.FoldSummary(sum); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// newRootServer builds a -role=root server: HTTP surface plus the fan-in
// listener, wired exactly as main does.
func newRootServer(t *testing.T, stateDir string, hook cluster.FoldHook) (*server, *httptest.Server, string) {
	t.Helper()
	mgr, err := dpmg.NewManager(clusterDefaults())
	if err != nil {
		t.Fatal(err)
	}
	s := &server{mgr: mgr}
	s.stateDir = stateDir
	root, err := cluster.NewRoot(cluster.RootConfig{Manager: mgr, AutoCreate: true, Logf: t.Logf, FoldHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if stateDir != "" {
		if err := loadClusterSeqs(root, stateDir); err != nil {
			t.Fatal(err)
		}
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
	s.attachRoot(root)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(func() { ts.Close(); root.Shutdown(); <-done })
	return s, ts, ln.Addr().String()
}

// newEdgeServer builds a -role=edge server shipping to upstream, holding
// one stream, "base". The shipper is driven manually (ShipCycle) for
// determinism.
func newEdgeServer(t *testing.T, id, upstream string) (*server, *httptest.Server) {
	t.Helper()
	mgr, err := dpmg.NewManager(clusterDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mgr.CreateStream("base", dpmg.StreamConfig{}); err != nil {
		t.Fatal(err)
	}
	s := &server{mgr: mgr}
	sp, err := cluster.OpenSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shipper, err := cluster.NewShipper(cluster.ShipperConfig{
		Manager: mgr, EdgeID: id, Upstream: upstream, Spool: sp,
		DialTimeout: 5 * time.Second, BackoffMin: 10 * time.Millisecond, BackoffMax: 100 * time.Millisecond,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.attachEdge(shipper, sp)
	s.drainGrace = 10 * time.Second
	t.Cleanup(shipper.Close)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestClusterSmoke drives the full topology through the public surfaces:
// raw traffic POSTed to two edges, summaries shipped upstream, releases
// served only by the root, /metrics rows on both roles, and the root's
// node tier pinned byte-identically against a single-process differential
// twin of its fold log.
func TestClusterSmoke(t *testing.T) {
	ctx := context.Background()
	var log serverFoldLog
	rootSrv, rootTS, rootAddr := newRootServer(t, "", log.hook)
	edge1, edge1TS := newEdgeServer(t, "edge-1", rootAddr)
	edge2, edge2TS := newEdgeServer(t, "edge-2", rootAddr)

	resp := post(t, edge1TS.URL+"/v1/streams/base/batch", batchBytes(t, []stream.Item{4, 4, 4, 9, 12}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("edge batch: %d", resp.StatusCode)
	}
	resp = post(t, edge2TS.URL+"/v1/streams/base/batch", batchBytes(t, []stream.Item{4, 7, 7}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("edge batch: %d", resp.StatusCode)
	}
	if err := edge1.clusterShipper.ShipCycle(ctx); err != nil {
		t.Fatal(err)
	}
	if err := edge2.clusterShipper.ShipCycle(ctx); err != nil {
		t.Fatal(err)
	}

	// Releases: refused on edges (no budget there), served by the root.
	resp = get(t, edge1TS.URL+"/v1/streams/base/release?eps=1&delta=1e-6")
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("edge release: %d, want 403", resp.StatusCode)
	}
	if !strings.Contains(bodyOf(t, resp), "root") {
		t.Fatal("edge release refusal should point the analyst at the root")
	}
	resp = get(t, rootTS.URL+"/v1/streams/base/release?eps=1&delta=1e-6")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("root release: %d: %s", resp.StatusCode, bodyOf(t, resp))
	}

	// The root's base stream holds the exact union (k far above the
	// distinct-key count, so no decrements).
	def, _ := rootSrv.mgr.Stream("base")
	if got := def.Estimate(4); got != 4 {
		t.Fatalf("root estimate(4) = %d, want 4", got)
	}

	// Differential pin: seeded root release == seeded twin release.
	twinDef, ok := log.twin(t).Stream("base")
	if !ok {
		t.Fatal("twin has no base stream")
	}
	p := dpmg.Params{Eps: 1, Delta: 1e-6}
	want, err := twinDef.ReleaseDetailed(p, dpmg.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	got, err := def.ReleaseDetailed(p, dpmg.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Histogram) != len(want.Histogram) {
		t.Fatalf("root vs twin: %d vs %d keys", len(got.Histogram), len(want.Histogram))
	}
	for k, v := range want.Histogram {
		if got.Histogram[k] != v {
			t.Fatalf("key %d: root %v, twin %v", k, got.Histogram[k], v)
		}
	}

	// /metrics rows on both roles.
	edgeMetrics := bodyOf(t, get(t, edge1TS.URL+"/metrics"))
	for _, row := range []string{
		"dpmg_cluster_connected 1",
		"dpmg_cluster_shipped_total 1",
		"dpmg_cluster_cuts_total 1",
		"dpmg_cluster_spool_pending 0",
		"dpmg_cluster_ship_failures_total 0",
	} {
		if !strings.Contains(edgeMetrics, row) {
			t.Errorf("edge /metrics missing %q", row)
		}
	}
	rootMetrics := bodyOf(t, get(t, rootTS.URL+"/metrics"))
	for _, row := range []string{
		"dpmg_cluster_folded_total 2",
		"dpmg_cluster_deduped_total 0",
		"dpmg_cluster_edges 2",
		`dpmg_cluster_edge_connected{edge="edge-1"} 1`,
		`dpmg_cluster_edge_folded_total{edge="edge-2"} 1`,
		`dpmg_cluster_edge_lag_seconds{edge="edge-1"}`,
	} {
		if !strings.Contains(rootMetrics, row) {
			t.Errorf("root /metrics missing %q", row)
		}
	}
}

// TestAdminEvictFaultIn exercises the lifecycle levers over HTTP: evict
// offloads, fault-in warms, both idempotent, 404 for unknown streams and
// 409 without a store.
func TestAdminEvictFaultIn(t *testing.T) {
	_, s, ts := lifecycleTestServer(t, t.TempDir(), dpmg.StreamConfig{K: 32, Universe: 1000, Budget: dpmg.Budget{Eps: 4, Delta: 1e-4}})
	s.hasStore = true
	createStream(t, ts.URL, `{"name":"t1"}`)
	resp := post(t, ts.URL+"/v1/streams/t1/batch", batchBytes(t, []stream.Item{1, 2, 3}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch: %d", resp.StatusCode)
	}

	var ack adminStreamResponse
	decode := func(resp *http.Response, wantStatus int) adminStreamResponse {
		t.Helper()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status %d, want %d: %s", resp.StatusCode, wantStatus, bodyOf(t, resp))
		}
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
		return ack
	}

	if got := decode(post(t, ts.URL+"/v1/admin/streams/t1/evict", nil), http.StatusOK); !got.Changed || got.Resident {
		t.Fatalf("evict: %+v, want changed && !resident", got)
	}
	if got := decode(post(t, ts.URL+"/v1/admin/streams/t1/evict", nil), http.StatusOK); got.Changed {
		t.Fatalf("second evict: %+v, want idempotent no-op", got)
	}
	if got := decode(post(t, ts.URL+"/v1/admin/streams/t1/faultin", nil), http.StatusOK); !got.Changed || !got.Resident {
		t.Fatalf("faultin: %+v, want changed && resident", got)
	}
	if got := decode(post(t, ts.URL+"/v1/admin/streams/t1/faultin", nil), http.StatusOK); got.Changed {
		t.Fatalf("second faultin: %+v, want idempotent no-op", got)
	}
	// The warmed stream still answers with its full state.
	var st statsResponse
	if st = decodeStats(t, get(t, ts.URL+"/v1/streams/t1/stats")); st.Items != 3 {
		t.Fatalf("post-cycle stats: %+v", st)
	}

	if resp := post(t, ts.URL+"/v1/admin/streams/nope/evict", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evict unknown: %d", resp.StatusCode)
	}
	if resp := post(t, ts.URL+"/v1/admin/streams/nope/faultin", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("faultin unknown: %d", resp.StatusCode)
	}

	// A server with no offload store refuses eviction with 409.
	bare := newTestServer(t, 32, 4, 1e-4)
	if resp := post(t, bare.URL+"/v1/admin/streams/base/evict", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("storeless evict: %d, want 409", resp.StatusCode)
	}
}

// TestAdminDrainEdge pins the edge drain: the report says flushed, the
// spool is empty, the root holds the traffic, and further ingest on both
// datapaths is refused.
func TestAdminDrainEdge(t *testing.T) {
	rootSrv, _, rootAddr := newRootServer(t, "", nil)
	_, edgeTS := newEdgeServer(t, "edge-1", rootAddr)

	resp := post(t, edgeTS.URL+"/v1/streams/base/batch", batchBytes(t, []stream.Item{5, 5, 8}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch: %d", resp.StatusCode)
	}
	var rep drainReport
	resp = post(t, edgeTS.URL+"/v1/admin/drain", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %d: %s", resp.StatusCode, bodyOf(t, resp))
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Role != roleEdge || rep.Edge == nil || !rep.Edge.Flushed || rep.Edge.SpoolPending != 0 || rep.Edge.Shipped != 1 {
		t.Fatalf("drain report: %+v / %+v", rep, rep.Edge)
	}
	def, _ := rootSrv.mgr.Stream("base")
	if got := def.Estimate(5); got != 2 {
		t.Fatalf("root estimate(5) after edge drain = %d, want 2", got)
	}
	if resp := post(t, edgeTS.URL+"/v1/streams/base/batch", batchBytes(t, []stream.Item{1})); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain batch: %d, want 503", resp.StatusCode)
	}
	if resp := post(t, edgeTS.URL+"/v1/streams/base/summary", summaryBytes(t, 64, 1)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain summary: %d, want 503", resp.StatusCode)
	}
}

// TestAdminDrainEdgeUpstreamDown pins the failure shape: with the root
// unreachable the drain reports the surviving backlog instead of lying
// about a flush, and the spool keeps the records for the next start.
func TestAdminDrainEdgeUpstreamDown(t *testing.T) {
	// Reserve a port, then close it: instant refusals, no live root.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	edgeSrv, edgeTS := newEdgeServer(t, "edge-1", deadAddr)
	edgeSrv.drainGrace = 300 * time.Millisecond
	resp := post(t, edgeTS.URL+"/v1/streams/base/batch", batchBytes(t, []stream.Item{5}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch: %d", resp.StatusCode)
	}
	var rep drainReport
	resp = post(t, edgeTS.URL+"/v1/admin/drain", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Edge == nil || rep.Edge.Flushed || rep.Edge.Error == "" {
		t.Fatalf("drain with dead upstream: %+v, want unflushed with error", rep.Edge)
	}
	// Nothing was cut (the shipper never cuts while disconnected), so the
	// traffic is still in the local sketch, not lost.
	def, _ := edgeSrv.mgr.Stream("base")
	if got := def.EstimateExact(5); got != 1 {
		t.Fatalf("undrained edge traffic: estimate(5) = %d, want 1", got)
	}
}

// TestAdminDrainRoot pins the root drain: fan-in stops, the quiesced
// snapshot and the cluster dedup table land in -state, and a restarted
// root refuses re-shipped folded sequences.
func TestAdminDrainRoot(t *testing.T) {
	ctx := context.Background()
	stateDir := t.TempDir()
	_, rootTS, rootAddr := newRootServer(t, stateDir, nil)
	edgeSrv, edgeTS := newEdgeServer(t, "edge-1", rootAddr)

	resp := post(t, edgeTS.URL+"/v1/streams/base/batch", batchBytes(t, []stream.Item{9, 9}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch: %d", resp.StatusCode)
	}
	if err := edgeSrv.clusterShipper.ShipCycle(ctx); err != nil {
		t.Fatal(err)
	}

	var rep drainReport
	resp = post(t, rootTS.URL+"/v1/admin/drain", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Role != roleRoot || !rep.Snapshotted {
		t.Fatalf("root drain report: %+v", rep)
	}
	for _, f := range []string{stateFileName, seqsFileName} {
		if _, err := os.Stat(filepath.Join(stateDir, f)); err != nil {
			t.Fatalf("drained root did not persist %s: %v", f, err)
		}
	}

	// Restart the root from the persisted pair on a fresh listener: the
	// restored dedup table must place the returning edge's baseline above
	// the folded sequence, so fresh traffic folds without reusing it.
	mgr2, restored, err := loadOrNewManager(stateDir, clusterDefaults())
	if err != nil || !restored {
		t.Fatalf("restore: restored=%v err=%v", restored, err)
	}
	root2, err := cluster.NewRoot(cluster.RootConfig{Manager: mgr2, AutoCreate: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := loadClusterSeqs(root2, stateDir); err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); root2.Serve(ln2) }() //nolint:errcheck
	defer func() { root2.Shutdown(); <-done }()

	edge2Srv, edge2TS := newEdgeServer(t, "edge-1", ln2.Addr().String())
	if err := edge2Srv.clusterShipper.ShipCycle(ctx); err != nil {
		t.Fatal(err)
	}
	resp = post(t, edge2TS.URL+"/v1/streams/base/batch", batchBytes(t, []stream.Item{9}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch: %d", resp.StatusCode)
	}
	if err := edge2Srv.clusterShipper.ShipCycle(ctx); err != nil {
		t.Fatal(err)
	}
	if got := root2.Stats(); got.Folded != 1 {
		t.Fatalf("restarted root folded %d, want 1 (seq baseline resumed)", got.Folded)
	}
	def, _ := mgr2.Stream("base")
	if got := def.Estimate(9); got != 3 {
		t.Fatalf("restarted root estimate(9) = %d, want 3 (2 restored + 1 fresh)", got)
	}
}
