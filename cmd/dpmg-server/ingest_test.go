package main

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpmg"
	"dpmg/internal/framing"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

// startIngest attaches a streaming ingest listener to a test server on a
// loopback port and returns it with its dial address. The listener drains
// on test cleanup.
func startIngest(t *testing.T, s *server) (*ingestServer, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	is := newIngestServer(s, ln, 30*time.Second)
	go is.serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		is.Shutdown(ctx) //nolint:errcheck // best-effort test teardown
	})
	return is, ln.Addr().String()
}

// ackCodeOf unwraps the ack code from a synchronous client refusal.
func ackCodeOf(t *testing.T, err error) framing.AckCode {
	t.Helper()
	var ae *framing.AckError
	if !errors.As(err, &ae) {
		t.Fatalf("want *framing.AckError, got %T: %v", err, err)
	}
	return ae.Ack.Code
}

// TestStreamIngestDifferential is the tentpole equivalence check: the
// same items pushed over the streaming datapath and over POST .../batch
// must yield identical ingest totals, identical point estimates across
// the whole universe, and byte-identical seeded release documents.
func TestStreamIngestDifferential(t *testing.T) {
	defaults := dpmg.StreamConfig{K: 64, Universe: 4096, Budget: dpmg.Budget{Eps: 4, Delta: 1e-4}}
	mgr, s, ts := lifecycleTestServer(t, t.TempDir(), defaults)
	_, addr := startIngest(t, s)

	createStream(t, ts.URL, `{"name":"viahttp"}`)
	createStream(t, ts.URL, `{"name":"viastream"}`)

	items := workload.Zipf(20000, 4096, 1.2, 7)

	// HTTP path: five 4000-item batches.
	for off := 0; off < len(items); off += 4000 {
		resp := post(t, ts.URL+"/v1/streams/viahttp/batch", batchBytes(t, items[off:off+4000]))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("batch status %d: %s", resp.StatusCode, bodyOf(t, resp))
		}
	}

	// Streaming path: the same slices over one persistent connection.
	c, err := framing.DialTimeout(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Bind("viastream"); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(items); off += 4000 {
		if err := c.Send(items[off : off+4000]); err != nil {
			t.Fatal(err)
		}
	}

	httpSt, _ := mgr.Stream("viahttp")
	strmSt, _ := mgr.Stream("viastream")
	if httpSt.Ingested() != strmSt.Ingested() {
		t.Fatalf("ingest totals diverge: http=%d stream=%d", httpSt.Ingested(), strmSt.Ingested())
	}
	for x := stream.Item(1); x <= 4096; x++ {
		if a, b := httpSt.Estimate(x), strmSt.Estimate(x); a != b {
			t.Fatalf("estimate diverges at item %d: http=%d stream=%d", x, a, b)
		}
	}

	// Byte-identical seeded releases: render both through the server's own
	// release serializer under the same placeholder name.
	p := dpmg.Params{Eps: 1, Delta: 1e-6}
	resA, err := httpSt.ReleaseDetailed(p, dpmg.WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	resB, err := strmSt.ReleaseDetailed(p, dpmg.WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	writeReleaseJSON(&bufA, "x", resA, p.Eps, p.Delta)
	writeReleaseJSON(&bufB, "x", resB, p.Eps, p.Delta)
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatalf("seeded release documents diverge:\n http: %s\n strm: %s", bufA.Bytes(), bufB.Bytes())
	}
}

// TestStreamIngestAcks pins the per-frame refusal classification and the
// all-or-nothing contract on the streaming path.
func TestStreamIngestAcks(t *testing.T) {
	defaults := dpmg.StreamConfig{K: 32, Universe: 100, Budget: dpmg.Budget{Eps: 4, Delta: 1e-4}}
	mgr, s, ts := lifecycleTestServer(t, t.TempDir(), defaults)
	_, addr := startIngest(t, s)

	createStream(t, ts.URL, `{"name":"s1"}`)
	createStream(t, ts.URL, `{"name":"limited","max_ingest_rate":100,"ingest_burst":100}`)

	c, err := framing.DialTimeout(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Data before any bind.
	if err := c.Send([]stream.Item{1}); ackCodeOf(t, err) != framing.AckNotBound {
		t.Fatalf("pre-bind data frame: %v", err)
	}
	// Binding an unknown stream fails and leaves the connection unbound.
	if err := c.Bind("nope"); ackCodeOf(t, err) != framing.AckUnknownStream {
		t.Fatalf("unknown bind: %v", err)
	}
	if err := c.Send([]stream.Item{1}); ackCodeOf(t, err) != framing.AckNotBound {
		t.Fatalf("data after failed bind: %v", err)
	}

	if err := c.Bind("s1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]stream.Item{1, 2, 3, 99}); err != nil {
		t.Fatal(err)
	}
	st, _ := mgr.Stream("s1")
	if st.Ingested() != 4 {
		t.Fatalf("ingested %d, want 4", st.Ingested())
	}
	// One out-of-universe item refuses the whole frame; nothing lands.
	if err := c.Send([]stream.Item{4, 5, 101}); ackCodeOf(t, err) != framing.AckBadItem {
		t.Fatalf("universe violation: %v", err)
	}
	if st.Ingested() != 4 {
		t.Fatalf("all-or-nothing broken: ingested %d after refused frame, want 4", st.Ingested())
	}

	// QoS: rebinding re-routes the same connection; the second 100-item
	// frame exceeds the drained token bucket.
	if err := c.Bind("limited"); err != nil {
		t.Fatal(err)
	}
	burst := workload.Zipf(100, 100, 1.1, 3)
	if err := c.Send(burst); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(burst); ackCodeOf(t, err) != framing.AckRateLimited {
		t.Fatalf("over-rate frame: %v", err)
	}
	limSt, _ := mgr.Stream("limited")
	if limSt.Ingested() != 100 {
		t.Fatalf("rate-limited frame partially ingested: %d", limSt.Ingested())
	}

	// Deleting the bound stream invalidates the sticky binding: the next
	// frame is refused with StreamGone and the connection must rebind.
	createStream(t, ts.URL, `{"name":"victim"}`)
	if err := c.Bind("victim"); err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]stream.Item{1}); err != nil {
		t.Fatal(err)
	}
	if code := deleteStream(t, ts.URL, "victim"); code != http.StatusNoContent {
		t.Fatalf("delete status %d", code)
	}
	if err := c.Send([]stream.Item{2}); ackCodeOf(t, err) != framing.AckStreamGone {
		t.Fatalf("frame on deleted stream: %v", err)
	}
	if err := c.Send([]stream.Item{3}); ackCodeOf(t, err) != framing.AckNotBound {
		t.Fatalf("binding not cleared after StreamGone: %v", err)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// flakyStore wraps a real DirStore with injectable Load failures, so
// eviction succeeds but the subsequent fault-in cannot read the record
// back — the offload-store outage the 503 classification exists for.
type flakyStore struct {
	inner     dpmg.OffloadStore
	failLoads atomic.Bool
}

func (f *flakyStore) Save(name string, data []byte) error { return f.inner.Save(name, data) }
func (f *flakyStore) Delete(name string) error            { return f.inner.Delete(name) }
func (f *flakyStore) List() ([]string, error)             { return f.inner.List() }
func (f *flakyStore) Load(name string) ([]byte, error) {
	if f.failLoads.Load() {
		return nil, errors.New("injected offload-store outage")
	}
	return f.inner.Load(name)
}

// faultInTestServer builds a server whose offload store can be made to
// fail every Load, with one evicted stream ("cold", 60 items ingested)
// ready to trip fault-in on the next data access.
func faultInTestServer(t *testing.T) (*dpmg.Manager, *server, *httptest.Server, *flakyStore) {
	t.Helper()
	defaults := dpmg.StreamConfig{K: 32, Universe: 1000, Budget: dpmg.Budget{Eps: 4, Delta: 1e-4}}
	mgr, err := dpmg.NewManager(defaults)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := dpmg.NewDirStore(filepath.Join(t.TempDir(), "streams"))
	if err != nil {
		t.Fatal(err)
	}
	store := &flakyStore{inner: inner}
	if err := mgr.SetOffloadStore(store); err != nil {
		t.Fatal(err)
	}
	s := &server{mgr: mgr}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)

	createStream(t, ts.URL, `{"name":"cold"}`)
	resp := post(t, ts.URL+"/v1/streams/cold/batch", batchBytes(t, workload.Zipf(60, 1000, 1.2, 5)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("seed batch status %d", resp.StatusCode)
	}
	if ok, err := mgr.Evict("cold"); !ok || err != nil {
		t.Fatalf("Evict = %v, %v", ok, err)
	}
	return mgr, s, ts, store
}

// TestFaultInFailure503 is the regression for the error-classification
// bug: an offload-store I/O failure during fault-in must surface as 503
// on every per-stream handler — never as a 400 that would make an edge
// discard valid data as "bad". Estimate keeps its documented 0-on-error.
func TestFaultInFailure503(t *testing.T) {
	mgr, _, ts, store := faultInTestServer(t)
	store.failLoads.Store(true)

	batch := batchBytes(t, workload.Zipf(10, 1000, 1.2, 6))
	for _, tc := range []struct {
		name string
		do   func() *http.Response
	}{
		{"batch", func() *http.Response { return post(t, ts.URL+"/v1/streams/cold/batch", batch) }},
		{"summary", func() *http.Response { return post(t, ts.URL+"/v1/streams/cold/summary", summaryBytes(t, 32, 1)) }},
		{"release", func() *http.Response { return get(t, ts.URL+"/v1/streams/cold/release?eps=0.5&delta=1e-6") }},
	} {
		resp := tc.do()
		body := bodyOf(t, resp)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s during outage: status %d (%s), want 503", tc.name, resp.StatusCode, body)
		}
		if !strings.Contains(body, "fault-in") {
			t.Errorf("%s 503 body %q does not name the fault-in failure", tc.name, body)
		}
	}
	st, _ := mgr.Stream("cold")
	if got := st.Estimate(1); got != 0 {
		t.Errorf("Estimate during outage = %d, want the documented 0", got)
	}

	// The outage ends; the next access faults in and the data is intact.
	store.failLoads.Store(false)
	resp := post(t, ts.URL+"/v1/streams/cold/batch", batch)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-outage batch status %d: %s", resp.StatusCode, bodyOf(t, resp))
	}
	if st.Ingested() != 70 {
		t.Fatalf("post-outage total %d, want 70", st.Ingested())
	}
}

// TestStreamIngestFaultInUnavailable: the streaming datapath classifies
// the same outage as AckUnavailable (the 503 analogue), all-or-nothing,
// and recovers on the same connection once the store heals.
func TestStreamIngestFaultInUnavailable(t *testing.T) {
	mgr, s, _, store := faultInTestServer(t)
	_, addr := startIngest(t, s)

	c, err := framing.DialTimeout(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Binding resolves the stub without faulting it in.
	if err := c.Bind("cold"); err != nil {
		t.Fatal(err)
	}

	store.failLoads.Store(true)
	items := []stream.Item{7, 8, 9}
	if err := c.Send(items); ackCodeOf(t, err) != framing.AckUnavailable {
		t.Fatalf("frame during outage: %v", err)
	}
	st, _ := mgr.Stream("cold")
	if st.Ingested() != 60 {
		t.Fatalf("outage frame partially ingested: %d, want 60", st.Ingested())
	}

	store.failLoads.Store(false)
	if err := c.Send(items); err != nil {
		t.Fatal(err)
	}
	if st.Ingested() != 63 {
		t.Fatalf("post-outage total %d, want 63", st.Ingested())
	}
}

// TestStreamIngestMetrics: the ingest listener exports listener totals
// and per-connection rows labeled with the bound stream.
func TestStreamIngestMetrics(t *testing.T) {
	defaults := dpmg.StreamConfig{K: 32, Universe: 1000, Budget: dpmg.Budget{Eps: 4, Delta: 1e-4}}
	_, s, ts := lifecycleTestServer(t, t.TempDir(), defaults)
	_, addr := startIngest(t, s)

	createStream(t, ts.URL, `{"name":"edge"}`)
	c, err := framing.DialTimeout(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Bind("edge"); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(workload.Zipf(50, 1000, 1.2, 8)); err != nil {
		t.Fatal(err)
	}

	body := bodyOf(t, get(t, ts.URL+"/metrics"))
	for _, want := range []string{
		"dpmg_ingest_connections 1",
		"dpmg_ingest_accepted_total 1",
		"dpmg_ingest_items_total 50",
		`dpmg_ingest_conn_frames_total{conn="1",stream="edge",addr="`,
		`dpmg_ingest_conn_items_total{conn="1",stream="edge",addr="`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestStreamIngestDrain: once Shutdown begins, new frames are refused
// with AckShuttingDown and the connection closes; every frame acked OK
// before the drain is fully applied.
func TestStreamIngestDrain(t *testing.T) {
	defaults := dpmg.StreamConfig{K: 32, Universe: 1 << 16, Budget: dpmg.Budget{Eps: 4, Delta: 1e-4}}
	mgr, s, ts := lifecycleTestServer(t, t.TempDir(), defaults)
	is, addr := startIngest(t, s)
	createStream(t, ts.URL, `{"name":"edge"}`)

	c, err := framing.DialTimeout(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Bind("edge"); err != nil {
		t.Fatal(err)
	}

	batch := workload.Zipf(64, 1<<16, 1.2, 9)
	acked := 0
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- is.Shutdown(ctx)
	}()
	for i := 0; i < 10000; i++ {
		err := c.Send(batch)
		if err == nil {
			acked++
			continue
		}
		// The drain refusal is the graceful outcome; a bare connection
		// error means the force-close beat our frame, also acceptable.
		var ae *framing.AckError
		if errors.As(err, &ae) && ae.Ack.Code != framing.AckShuttingDown {
			t.Fatalf("unexpected refusal during drain: %v", err)
		}
		break
	}
	if err := <-done; err != nil {
		t.Fatalf("drain did not complete cleanly: %v", err)
	}
	st, _ := mgr.Stream("edge")
	if got, want := st.Ingested(), int64(acked*len(batch)); got != want {
		t.Fatalf("acked frames not fully applied: ingested %d, want %d", got, want)
	}
}

// TestStreamIngestLifecycleStress interleaves streaming ingest with
// eviction, fault-in, and stream create/delete under -race: sticky
// bindings must never observe torn state, and every OK-acked item must
// land exactly once.
func TestStreamIngestLifecycleStress(t *testing.T) {
	defaults := dpmg.StreamConfig{K: 64, Universe: 1 << 16, Budget: dpmg.Budget{Eps: 4, Delta: 1e-4}}
	mgr, s, ts := lifecycleTestServer(t, t.TempDir(), defaults)
	_, addr := startIngest(t, s)
	createStream(t, ts.URL, `{"name":"hot"}`)

	const (
		writers = 4
		rounds  = 150
	)
	var okItems atomic.Int64
	var writerWG, churnWG sync.WaitGroup
	stop := make(chan struct{})

	// Streaming writers on the long-lived "hot" stream.
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			c, err := framing.DialTimeout(addr, 10*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			if err := c.Bind("hot"); err != nil {
				t.Error(err)
				return
			}
			batch := workload.Zipf(64, 1<<16, 1.2, uint64(10+w))
			for i := 0; i < rounds; i++ {
				if err := c.Send(batch); err != nil {
					t.Errorf("writer %d round %d: %v", w, i, err)
					return
				}
				okItems.Add(int64(len(batch)))
			}
		}(w)
	}

	// Evictor: repeatedly offloads "hot" out from under the writers; their
	// next frame transparently faults it back in.
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			mgr.Evict("hot") //nolint:errcheck // racing writers may hold it hot
			time.Sleep(time.Millisecond)
		}
	}()

	// Churner: creates and deletes "victim" while a dedicated connection
	// keeps trying to bind and push to it, tolerating every lifecycle
	// refusal but no protocol failure.
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			createStream(t, ts.URL, `{"name":"victim"}`)
			time.Sleep(time.Millisecond)
			deleteStream(t, ts.URL, "victim")
		}
	}()
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		c, err := framing.DialTimeout(addr, 10*time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		batch := []stream.Item{1, 2, 3}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.Bind("victim"); err != nil {
				var ae *framing.AckError
				if !errors.As(err, &ae) || ae.Ack.Code != framing.AckUnknownStream {
					t.Errorf("victim bind: %v", err)
					return
				}
				continue
			}
			if err := c.Send(batch); err != nil {
				var ae *framing.AckError
				if !errors.As(err, &ae) {
					t.Errorf("victim send: %v", err)
					return
				}
				switch ae.Ack.Code {
				case framing.AckStreamGone, framing.AckNotBound, framing.AckUnavailable:
				default:
					t.Errorf("victim send refused with %s", ae.Ack.Code)
					return
				}
			}
		}
	}()

	// Writers finish (or fail) first; then the churn goroutines wind down.
	writerWG.Wait()
	close(stop)
	churnWG.Wait()

	st, ok := mgr.Stream("hot")
	if !ok {
		t.Fatal("hot stream vanished")
	}
	if got, want := st.Ingested(), okItems.Load(); got != want {
		t.Fatalf("acked items %d but stream ingested %d", want, got)
	}
}
