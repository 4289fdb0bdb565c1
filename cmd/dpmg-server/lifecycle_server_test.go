package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dpmg"
	"dpmg/internal/workload"
)

// blockingMechanism holds a release in flight so HTTP-level interlocks
// (DELETE → 409) can be tested deterministically.
type blockingMechanism struct {
	mu      sync.Mutex
	started chan struct{}
	unblock chan struct{}
}

func (b *blockingMechanism) arm() (started, unblock chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.started = make(chan struct{})
	b.unblock = make(chan struct{})
	return b.started, b.unblock
}

func (b *blockingMechanism) Name() string { return "blocktest" }

func (b *blockingMechanism) Calibrate(p dpmg.Params, s dpmg.Sensitivity) (*dpmg.Calibration, error) {
	return dpmg.NewCalibration(map[string]float64{}, nil), nil
}

func (b *blockingMechanism) Release(view *dpmg.ReleaseView, cal *dpmg.Calibration, seed uint64) dpmg.Histogram {
	b.mu.Lock()
	started, unblock := b.started, b.unblock
	b.mu.Unlock()
	if started != nil {
		close(started)
		<-unblock
	}
	return dpmg.Histogram{}
}

var (
	blockMech     = &blockingMechanism{}
	blockMechOnce sync.Once
)

func registerBlockMech(t *testing.T) {
	t.Helper()
	blockMechOnce.Do(func() {
		if err := dpmg.RegisterMechanism(blockMech); err != nil {
			t.Fatal(err)
		}
	})
}

// lifecycleTestServer builds a server wired the way main() wires it with
// -state: durable snapshots plus an offload store under <dir>/streams.
func lifecycleTestServer(t *testing.T, dir string, defaults dpmg.StreamConfig) (*dpmg.Manager, *server, *httptest.Server) {
	t.Helper()
	mgr, _, err := loadOrNewManager(dir, defaults)
	if err != nil {
		t.Fatal(err)
	}
	store, err := dpmg.NewDirStore(filepath.Join(dir, "streams"))
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.SetOffloadStore(store); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.RecoverOffloaded(); err != nil {
		t.Fatal(err)
	}
	s := &server{mgr: mgr}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return mgr, s, ts
}

func bodyOf(t *testing.T, resp *http.Response) string {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMetricsEndpoint checks the Prometheus exposition: content type,
// HELP/TYPE headers, per-stream sample lines with correct values, and that
// scraping does not fault offloaded streams in.
func TestMetricsEndpoint(t *testing.T) {
	defaults := dpmg.StreamConfig{K: 32, Universe: 1000, Budget: dpmg.Budget{Eps: 4, Delta: 1e-4}}
	mgr, _, ts := lifecycleTestServer(t, t.TempDir(), defaults)

	createStream(t, ts.URL, `{"name":"cold"}`)
	createStream(t, ts.URL, `{"name":"hot"}`)
	post(t, ts.URL+"/v1/streams/cold/batch", batchBytes(t, workload.Zipf(1000, 1000, 1.2, 1)))
	post(t, ts.URL+"/v1/streams/hot/batch", batchBytes(t, workload.Zipf(500, 1000, 1.2, 2)))
	if resp := get(t, ts.URL+"/v1/streams/hot/release?eps=1&delta=1e-5"); resp.StatusCode != http.StatusOK {
		t.Fatalf("release status %d", resp.StatusCode)
	}
	if evicted, err := mgr.Evict("cold"); !evicted || err != nil {
		t.Fatalf("Evict = %v, %v", evicted, err)
	}

	resp := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	body := bodyOf(t, resp)
	for _, want := range []string{
		"# HELP dpmg_streams ",
		"# TYPE dpmg_streams gauge",
		"dpmg_streams 2\n", // cold + hot
		"dpmg_streams_resident 1\n",
		`dpmg_stream_items_ingested_total{stream="cold"} 1000`,
		`dpmg_stream_items_ingested_total{stream="hot"} 500`,
		`dpmg_stream_resident{stream="cold"} 0`,
		`dpmg_stream_resident{stream="hot"} 1`,
		`dpmg_stream_evictions_total{stream="cold"} 1`,
		`dpmg_stream_releases_total{stream="hot"} 1`,
		`dpmg_stream_budget_eps_spent{stream="hot"} 1`,
		`dpmg_stream_budget_eps_remaining{stream="hot"} 3`,
		`dpmg_stream_throttled_total{stream="hot",op="ingest"} 0`,
		`dpmg_stream_throttled_total{stream="hot",op="release"} 0`,
		"# TYPE dpmg_stream_budget_eps_spent gauge",
		"# TYPE dpmg_stream_evictions_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// The scrape is passive: the offloaded stream stays offloaded.
	cold, _ := mgr.Stream("cold")
	if cold.Resident() {
		t.Error("metrics scrape faulted the offloaded stream in")
	}
}

// TestQoSRateLimit429 drives the per-stream ingest ceiling end to end:
// over-rate batches get 429 with the JSON envelope and a Retry-After hint,
// ingest nothing, and show up in the throttle counters.
func TestQoSRateLimit429(t *testing.T) {
	defaults := dpmg.StreamConfig{K: 32, Universe: 1000, Budget: dpmg.Budget{Eps: 4, Delta: 1e-4}}
	_, _, ts := lifecycleTestServer(t, t.TempDir(), defaults)

	// 100 items/s with a 100-item burst; the first 100-item batch drains
	// the bucket, the second must be refused.
	createStream(t, ts.URL, `{"name":"limited","max_ingest_rate":100,"ingest_burst":100}`)
	batch := batchBytes(t, workload.Zipf(100, 1000, 1.1, 3))
	if resp := post(t, ts.URL+"/v1/streams/limited/batch", batch); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("burst batch status %d", resp.StatusCode)
	}
	resp := post(t, ts.URL+"/v1/streams/limited/batch", batch)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate batch status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	var envelope struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error == "" {
		t.Fatalf("429 body not the error envelope: %v %q", err, envelope.Error)
	}
	if !strings.Contains(envelope.Error, "rate limit") {
		t.Errorf("429 error = %q", envelope.Error)
	}
	stats := decodeStats(t, get(t, ts.URL+"/v1/streams/limited/stats"))
	if stats.Items != 100 || stats.ThrottledIngest != 1 {
		t.Errorf("after refusal: items=%d throttled=%d, want 100, 1", stats.Items, stats.ThrottledIngest)
	}
	// An unlimited stream on the same server is unaffected.
	createStream(t, ts.URL, `{"name":"free","max_ingest_rate":-1}`)
	if resp := post(t, ts.URL+"/v1/streams/free/batch", batchBytes(t, workload.Zipf(5000, 1000, 1.1, 4))); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("unlimited stream throttled: %d", resp.StatusCode)
	}
}

// TestQoSReleaseGate429: with the in-flight release ceiling at 1 and a
// release deterministically held open, the second release gets 429 and
// spends no budget.
func TestQoSReleaseGate429(t *testing.T) {
	registerBlockMech(t)
	defaults := dpmg.StreamConfig{K: 32, Universe: 1000, Budget: dpmg.Budget{Eps: 4, Delta: 1e-4}}
	_, _, ts := lifecycleTestServer(t, t.TempDir(), defaults)
	createStream(t, ts.URL, `{"name":"g","max_inflight_releases":1}`)
	post(t, ts.URL+"/v1/streams/g/batch", batchBytes(t, workload.Zipf(1000, 1000, 1.2, 5)))

	started, unblock := blockMech.arm()
	relDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/streams/g/release?eps=0.5&delta=1e-5&mech=blocktest")
		if err != nil {
			relDone <- -1
			return
		}
		resp.Body.Close()
		relDone <- resp.StatusCode
	}()
	<-started
	resp := get(t, ts.URL+"/v1/streams/g/release?eps=0.5&delta=1e-5")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("gated release status %d, want 429", resp.StatusCode)
	}
	close(unblock)
	if code := <-relDone; code != http.StatusOK {
		t.Fatalf("in-flight release finished with %d", code)
	}
	stats := decodeStats(t, get(t, ts.URL+"/v1/streams/g/stats"))
	if stats.ReleasesSoFar != 1 || stats.ThrottledReleases != 1 {
		t.Errorf("releases=%d throttled=%d, want 1, 1", stats.ReleasesSoFar, stats.ThrottledReleases)
	}
	if stats.RemainingEps != 3.5 { // exactly one 0.5 spend
		t.Errorf("remaining eps %v: the refused release spent budget", stats.RemainingEps)
	}
}

// TestDeleteMidRelease409: DELETE of a stream with a release in flight is
// refused with 409 and the stream survives; once quiet, DELETE succeeds.
func TestDeleteMidRelease409(t *testing.T) {
	registerBlockMech(t)
	defaults := dpmg.StreamConfig{K: 32, Universe: 1000, Budget: dpmg.Budget{Eps: 4, Delta: 1e-4}}
	_, _, ts := lifecycleTestServer(t, t.TempDir(), defaults)
	createStream(t, ts.URL, `{"name":"victim"}`)
	post(t, ts.URL+"/v1/streams/victim/batch", batchBytes(t, workload.Zipf(500, 1000, 1.2, 6)))

	started, unblock := blockMech.arm()
	relDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/streams/victim/release?eps=0.5&delta=1e-5&mech=blocktest")
		if err != nil {
			relDone <- -1
			return
		}
		resp.Body.Close()
		relDone <- resp.StatusCode
	}()
	<-started
	if code := deleteStream(t, ts.URL, "victim"); code != http.StatusConflict {
		t.Fatalf("mid-release DELETE status %d, want 409", code)
	}
	if resp := get(t, ts.URL+"/v1/streams/victim/stats"); resp.StatusCode != http.StatusOK {
		t.Fatalf("stream vanished after refused delete: %d", resp.StatusCode)
	}
	close(unblock)
	if code := <-relDone; code != http.StatusOK {
		t.Fatalf("in-flight release finished with %d", code)
	}
	if code := deleteStream(t, ts.URL, "victim"); code != http.StatusNoContent {
		t.Fatalf("post-release DELETE status %d, want 204", code)
	}
}

// TestServerEvictionRestartE2E is the full lifecycle loop through the
// server wiring: ingest → evict → stats from the stub → restart with
// recovery → transparent fault-in via the HTTP release path, with stats
// preserved exactly.
func TestServerEvictionRestartE2E(t *testing.T) {
	dir := t.TempDir()
	defaults := dpmg.StreamConfig{K: 32, Universe: 1000, Budget: dpmg.Budget{Eps: 4, Delta: 1e-4}}
	mgr1, s1, ts := lifecycleTestServer(t, dir, defaults)

	createStream(t, ts.URL, `{"name":"cold","mechanism":"laplace"}`)
	post(t, ts.URL+"/v1/streams/cold/batch", batchBytes(t, workload.HeavyTail(30000, 1000, 3, 0.9, 7)))
	post(t, ts.URL+"/v1/streams/cold/summary", summaryBytes(t, 32, 8))
	if resp := get(t, ts.URL+"/v1/streams/cold/release?eps=1&delta=1e-5"); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-evict release status %d", resp.StatusCode)
	}
	statsBefore := decodeStats(t, get(t, ts.URL+"/v1/streams/cold/stats"))
	if !statsBefore.Resident {
		t.Fatal("fresh stream not resident")
	}
	if evicted, err := mgr1.Evict("cold"); !evicted || err != nil {
		t.Fatalf("Evict = %v, %v", evicted, err)
	}
	statsOff := decodeStats(t, get(t, ts.URL+"/v1/streams/cold/stats"))
	if statsOff.Resident || statsOff.Evictions != 1 {
		t.Fatalf("offloaded stats: %+v", statsOff)
	}
	// Everything except residency/lifecycle is unchanged.
	norm := func(s statsResponse) statsResponse {
		s.Resident, s.Evictions, s.FaultIns = false, 0, 0
		return s
	}
	if norm(statsOff) != norm(statsBefore) {
		t.Fatalf("stub stats diverge:\n  before %+v\n  after  %+v", statsBefore, statsOff)
	}

	// Clean shutdown: offloaded stream stays on disk, resident table is
	// flushed.
	ts.Close()
	if err := s1.saveState(dir); err != nil {
		t.Fatal(err)
	}

	// Restart: the cold stream is recovered as a stub.
	mgr2, _, ts2 := lifecycleTestServer(t, dir, defaults)
	cold2, ok := mgr2.Stream("cold")
	if !ok {
		t.Fatal("cold stream missing after restart")
	}
	if cold2.Resident() {
		t.Fatal("recovered stream resident before first access")
	}
	statsRecovered := decodeStats(t, get(t, ts2.URL+"/v1/streams/cold/stats"))
	if norm(statsRecovered) != norm(statsBefore) {
		t.Fatalf("recovered stats diverge:\n  before %+v\n  after  %+v", statsBefore, statsRecovered)
	}
	// A release faults it in transparently and matches the original
	// (also offloaded, same record) byte for byte under the same seed.
	st1, _ := mgr1.Stream("cold")
	h1, err1 := st1.ReleaseDetailed(dpmg.Params{Eps: 0.5, Delta: 1e-5}, dpmg.WithSeed(42))
	h2, err2 := cold2.ReleaseDetailed(dpmg.Params{Eps: 0.5, Delta: 1e-5}, dpmg.WithSeed(42))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(h1.Histogram) != len(h2.Histogram) {
		t.Fatal("post-restart seeded release diverges")
	}
	for x, v := range h1.Histogram {
		if h2.Histogram[x] != v {
			t.Fatalf("post-restart seeded release value for %d diverges", x)
		}
	}
	if !cold2.Resident() {
		t.Error("release did not fault the recovered stream in")
	}
	// The HTTP path works on the faulted-in stream too.
	if resp := get(t, ts2.URL+"/v1/streams/cold/release?eps=0.5&delta=1e-5"); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fault-in release status %d", resp.StatusCode)
	}
}

// deleteStream issues DELETE /v1/streams/{name} and returns the status.
func deleteStream(t *testing.T, base, name string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/streams/%s", base, name), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}
