package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpmg"
	"dpmg/internal/encoding"
	"dpmg/internal/framing"
	"dpmg/internal/workload"
)

// BenchmarkServerBatchIngest drives the .../batch hot path end to end
// (HTTP routing, chunked validating decode into the pooled buffer, one
// locked UpdateBatch): the per-iteration allocations are the fixed
// net/http/httptest plumbing, not per-item work, so ns/op tracks the
// decode+ingest cost of a 4096-item batch.
func BenchmarkServerBatchIngest(b *testing.B) {
	const d = 1 << 16
	s, err := newServer(256, d, dpmg.Budget{Eps: 1, Delta: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	mux := s.routes()
	var body bytes.Buffer
	if err := encoding.MarshalItems(&body, workload.Zipf(4096, d, 1.05, 1)); err != nil {
		b.Fatal(err)
	}
	raw := body.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/streams/base/batch", bytes.NewReader(raw))
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		if w.Code != http.StatusAccepted {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

// BenchmarkServerRelease measures the .../release path: flat combined
// aggregate, registry dispatch, and the streamed JSON response. The laplace
// mechanism is used because its calibration is closed-form — the benchmark
// then tracks the merge+release+encode cost rather than the gaussian
// calibrator's numerical search.
func BenchmarkServerRelease(b *testing.B) {
	const d = 1 << 14
	s, err := newServer(256, d, dpmg.Budget{Eps: float64(1 << 30), Delta: 0.999})
	if err != nil {
		b.Fatal(err)
	}
	mux := s.routes()
	var body bytes.Buffer
	if err := encoding.MarshalItems(&body, workload.Zipf(1<<18, d, 1.05, 2)); err != nil {
		b.Fatal(err)
	}
	ingest := httptest.NewRequest(http.MethodPost, "/v1/streams/base/batch", bytes.NewReader(body.Bytes()))
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, ingest)
	if w.Code != http.StatusAccepted {
		b.Fatalf("ingest status %d", w.Code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, "/v1/streams/base/release?eps=0.1&delta=1e-12&mech=laplace", nil)
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

// newBenchManagerServer builds a server with `streams` pre-created streams
// named s0..s{n-1} (plus base), each with an effectively unlimited
// budget so release benchmarks never exhaust.
func newBenchManagerServer(b *testing.B, streams int, k int, d uint64) (*server, *http.ServeMux) {
	b.Helper()
	s, err := newServer(k, d, dpmg.Budget{Eps: float64(1 << 40), Delta: 0.999})
	if err != nil {
		b.Fatal(err)
	}
	mux := s.routes()
	for i := 0; i < streams; i++ {
		w := httptest.NewRecorder()
		body := fmt.Sprintf(`{"name":"s%d"}`, i)
		req := httptest.NewRequest(http.MethodPost, "/v1/streams", strings.NewReader(body))
		mux.ServeHTTP(w, req)
		if w.Code != http.StatusCreated {
			b.Fatalf("create s%d: %d %s", i, w.Code, w.Body.String())
		}
	}
	return s, mux
}

// benchParallelIngest drives the batch endpoint from all parallel workers,
// each worker pinned to the stream chosen by pick.
func benchParallelIngest(b *testing.B, mux *http.ServeMux, raw []byte, pick func(worker int) string) {
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	var workers atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		path := "/v1/streams/" + pick(int(workers.Add(1)-1)) + "/batch"
		for pb.Next() {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, req)
			if w.Code != http.StatusAccepted {
				b.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		}
	})
}

// BenchmarkServerMultiStreamIngest is the tentpole concurrency claim in
// benchmark form: parallel workers ingest into distinct streams, so the
// only shared structure on the path is the lock-striped registry read.
// Compare with BenchmarkServerSingleStreamIngest (same load, one stream):
// the multi-stream row should scale with cores, the single-stream row pays
// that stream's shard contention.
func BenchmarkServerMultiStreamIngest(b *testing.B) {
	const d = 1 << 16
	streams := runtime.GOMAXPROCS(0)
	_, mux := newBenchManagerServer(b, streams, 256, d)
	var body bytes.Buffer
	if err := encoding.MarshalItems(&body, workload.Zipf(4096, d, 1.05, 1)); err != nil {
		b.Fatal(err)
	}
	benchParallelIngest(b, mux, body.Bytes(), func(worker int) string {
		return fmt.Sprintf("s%d", worker%streams)
	})
}

// BenchmarkServerSingleStreamIngest is the contended baseline: the same
// parallel load aimed at one stream.
func BenchmarkServerSingleStreamIngest(b *testing.B) {
	const d = 1 << 16
	_, mux := newBenchManagerServer(b, 1, 256, d)
	var body bytes.Buffer
	if err := encoding.MarshalItems(&body, workload.Zipf(4096, d, 1.05, 1)); err != nil {
		b.Fatal(err)
	}
	benchParallelIngest(b, mux, body.Bytes(), func(int) string { return "s0" })
}

// BenchmarkServerMultiStreamIngestQoS is BenchmarkServerMultiStreamIngest
// with the full lifecycle subsystem engaged: per-stream token buckets
// (ceiling far above the offered load, so nothing throttles and the
// admission CAS is the only extra work), an attached offload store, and
// the /metrics surface live. The acceptance bar is parity with the
// plain multi-stream row — QoS + metrics must not tax the hot path.
func BenchmarkServerMultiStreamIngestQoS(b *testing.B) {
	const d = 1 << 16
	streams := runtime.GOMAXPROCS(0)
	s, err := newServer(256, d, dpmg.Budget{Eps: float64(1 << 40), Delta: 0.999})
	if err != nil {
		b.Fatal(err)
	}
	store, err := dpmg.NewDirStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if err := s.mgr.SetOffloadStore(store); err != nil {
		b.Fatal(err)
	}
	mux := s.routes()
	for i := 0; i < streams; i++ {
		w := httptest.NewRecorder()
		body := fmt.Sprintf(`{"name":"s%d","max_ingest_rate":1e12,"ingest_burst":1000000000,"max_inflight_releases":4}`, i)
		req := httptest.NewRequest(http.MethodPost, "/v1/streams", strings.NewReader(body))
		mux.ServeHTTP(w, req)
		if w.Code != http.StatusCreated {
			b.Fatalf("create s%d: %d %s", i, w.Code, w.Body.String())
		}
	}
	var body bytes.Buffer
	if err := encoding.MarshalItems(&body, workload.Zipf(4096, d, 1.05, 1)); err != nil {
		b.Fatal(err)
	}
	benchParallelIngest(b, mux, body.Bytes(), func(worker int) string {
		return fmt.Sprintf("s%d", worker%streams)
	})
}

// BenchmarkServerMetrics measures one /metrics scrape over 64 streams —
// the observability tax an operator pays every scrape interval. It must
// stay microseconds-per-stream cheap: atomic reads and one accountant
// lock per stream, no summary folds, no fault-ins — and allocation-flat:
// the exposition buffer, the sample scratch, and the per-stream label
// fragments are all pooled or cached, so a steady-state scrape allocates
// only the fixed request-scoped handful pinned by maxMetricsAllocs. The
// recorder is reused across iterations (body reset, not reallocated) so
// the row measures the server, not the test harness.
func BenchmarkServerMetrics(b *testing.B) {
	const d = 1 << 16
	_, mux := newBenchManagerServer(b, 64, 256, d)
	var body bytes.Buffer
	if err := encoding.MarshalItems(&body, workload.Zipf(4096, d, 1.05, 1)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/v1/streams/s%d/batch", i), bytes.NewReader(body.Bytes()))
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		if w.Code != http.StatusAccepted {
			b.Fatalf("ingest s%d status %d", i, w.Code)
		}
	}
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mux.ServeHTTP(w, req) // warm the pools and the label cache
	if w.Code != http.StatusOK {
		b.Fatalf("metrics status %d", w.Code)
	}
	// The recorder latches its status after first use, so reuse iterations
	// verify the scrape by body length instead of status code.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Body.Reset()
		mux.ServeHTTP(w, req)
		if w.Body.Len() == 0 {
			b.Fatal("empty metrics scrape")
		}
	}
	b.StopTimer()
	// The scrape path must stay allocation-flat: regressions that start
	// rebuilding label strings or sample storage per scrape fail here, in
	// the bench run, rather than surfacing as a slow drift in B/op.
	allocs := testing.AllocsPerRun(20, func() {
		w.Body.Reset()
		mux.ServeHTTP(w, req)
	})
	if allocs > maxMetricsAllocs {
		b.Fatalf("metrics scrape allocates %.0f times per op, want <= %d", allocs, maxMetricsAllocs)
	}
}

// maxMetricsAllocs pins the per-scrape allocation ceiling for /metrics
// over 64 streams: the manager's two stream-list slices plus net/http
// request-scoped bookkeeping. The exposition buffer, sample scratch, and
// label fragments are pooled/cached and must contribute nothing.
const maxMetricsAllocs = 8

// BenchmarkServerMultiStreamRelease measures concurrent release traffic on
// distinct streams: per-stream shard summarize + merge + laplace release +
// streamed JSON, with no cross-stream synchronization.
func BenchmarkServerMultiStreamRelease(b *testing.B) {
	const d = 1 << 14
	streams := runtime.GOMAXPROCS(0)
	_, mux := newBenchManagerServer(b, streams, 256, d)
	var body bytes.Buffer
	if err := encoding.MarshalItems(&body, workload.Zipf(1<<17, d, 1.05, 2)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < streams; i++ {
		req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/v1/streams/s%d/batch", i), bytes.NewReader(body.Bytes()))
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		if w.Code != http.StatusAccepted {
			b.Fatalf("ingest s%d status %d", i, w.Code)
		}
	}
	b.ReportAllocs()
	var workers atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		path := fmt.Sprintf("/v1/streams/s%d/release?eps=0.1&delta=1e-12&mech=laplace", int(workers.Add(1)-1)%streams)
		for pb.Next() {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		}
	})
}

// BenchmarkServerStreamIngest drives the streaming binary ingest datapath
// end to end over real loopback TCP: one persistent bound connection,
// pipelined 4096-item data frames with a concurrent ack reader. Compare
// with BenchmarkServerBatchIngest (the same batch size through HTTP): the
// per-batch delta is the fixed per-request tax the streaming datapath
// exists to remove — the acceptance bar is ≥4× lower overhead per batch.
func BenchmarkServerStreamIngest(b *testing.B) {
	const d = 1 << 16
	s, err := newServer(256, d, dpmg.Budget{Eps: 1, Delta: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	is := newIngestServer(s, ln, time.Minute)
	go is.serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		is.Shutdown(ctx) //nolint:errcheck // bench teardown
	}()
	c, err := framing.DialTimeout(ln.Addr().String(), 10*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Bind("base"); err != nil {
		b.Fatal(err)
	}
	items := workload.Zipf(4096, d, 1.05, 1)
	b.SetBytes(int64(8 * len(items)))
	b.ReportAllocs()
	b.ResetTimer()
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			ack, err := c.ReadAck()
			if err != nil {
				errc <- err
				return
			}
			if ack.Code != framing.AckOK {
				errc <- &framing.AckError{Ack: ack}
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < b.N; i++ {
		if _, err := c.Push(items); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := <-errc; err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N*len(items))/b.Elapsed().Seconds(), "items/s")
}

// BenchmarkServerHTTPIngestE2E is the real-network baseline the streaming
// datapath is judged against: the same 4096-item batch as
// BenchmarkServerBatchIngest, but through a real HTTP client and a real
// TCP connection (keep-alive) instead of the in-process httptest mux.
// The delta between this row and BenchmarkServerStreamIngest, after
// subtracting the shared decode+sketch work both pay, is the per-batch
// protocol overhead the binary datapath removes.
func BenchmarkServerHTTPIngestE2E(b *testing.B) {
	const d = 1 << 16
	s, err := newServer(256, d, dpmg.Budget{Eps: 1, Delta: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	var body bytes.Buffer
	if err := encoding.MarshalItems(&body, workload.Zipf(4096, d, 1.05, 1)); err != nil {
		b.Fatal(err)
	}
	raw := body.Bytes()
	client := ts.Client()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/streams/base/batch", "application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			b.Fatalf("status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}
