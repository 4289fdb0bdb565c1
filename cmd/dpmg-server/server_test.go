package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dpmg"
	"dpmg/internal/encoding"
	"dpmg/internal/merge"
	"dpmg/internal/mg"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

func summaryBytes(t *testing.T, k int, seed uint64) []byte {
	t.Helper()
	sk := mg.New(k, 1000)
	sk.Process(workload.HeavyTail(100000, 1000, 3, 0.9, seed))
	s, err := merge.FromCounters(k, 1000, sk.Counters())
	if err != nil {
		t.Fatal(err)
	}
	return encoding.AppendSummary(nil, s)
}

// newServer builds a server over a fresh manager whose defaults are k, d
// and budget, holding one stream, "base", created from those defaults.
func newServer(k int, d uint64, budget dpmg.Budget) (*server, error) {
	mgr, err := dpmg.NewManager(dpmg.StreamConfig{K: k, Universe: d, Budget: budget})
	if err != nil {
		return nil, err
	}
	if _, _, err := mgr.CreateStream("base", dpmg.StreamConfig{}); err != nil {
		return nil, err
	}
	return &server{mgr: mgr}, nil
}

// newTestServer serves newServer(k, 1000, (eps, delta)) over HTTP.
func newTestServer(t *testing.T, k int, eps, delta float64) *httptest.Server {
	t.Helper()
	s, err := newServer(k, 1000, dpmg.Budget{Eps: eps, Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestIngestAndRelease(t *testing.T) {
	ts := newTestServer(t, 64, 4, 1e-4)
	for seed := uint64(1); seed <= 3; seed++ {
		resp := post(t, ts.URL+"/v1/streams/base/summary", summaryBytes(t, 64, seed))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
	resp := get(t, ts.URL+"/v1/streams/base/release?eps=1&delta=1e-5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release status %d", resp.StatusCode)
	}
	var rel releaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&rel); err != nil {
		t.Fatal(err)
	}
	if rel.Mechanism != "gaussian" {
		t.Errorf("default mechanism %q", rel.Mechanism)
	}
	if rel.Meta["sigma"] <= 0 || rel.Meta["tau"] <= 0 {
		t.Errorf("gaussian calibration metadata missing: %v", rel.Meta)
	}
	// The three designated heavy items (1..3, 90% of 300k elements) must
	// survive the release.
	for x := 1; x <= 3; x++ {
		if _, ok := rel.Items[strconv.Itoa(x)]; !ok {
			t.Errorf("heavy item %d missing from release %v", x, rel.Items)
		}
	}
}

// TestCalibrationErrorDoesNotSpendBudget is the regression test for the
// budget-leak bug: handleRelease used to call acct.Spend before calibrating
// the mechanism, so a calibration failure burned (eps, delta) while
// releasing nothing. The release path now calibrates first and spends last,
// so a request whose mechanism cannot be calibrated for the server's merged
// sensitivity (e.g. geometric or pure, both single-stream-only) must be
// rejected with the budget fully intact.
func TestCalibrationErrorDoesNotSpendBudget(t *testing.T) {
	ts := newTestServer(t, 32, 2, 1e-4)
	post(t, ts.URL+"/v1/streams/base/summary", summaryBytes(t, 32, 7))
	for _, mech := range []string{"geometric", "pure"} {
		resp := get(t, ts.URL+"/v1/streams/base/release?eps=1&delta=1e-5&mech="+mech)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("mech=%s status %d, want 400", mech, resp.StatusCode)
		}
	}
	var st statsResponse
	if err := json.NewDecoder(get(t, ts.URL+"/v1/streams/base/stats").Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.RemainingEps != 2 || st.RemainingDel != 1e-4 {
		t.Errorf("calibration failure leaked budget: remaining (%v, %v), want (2, 1e-4)",
			st.RemainingEps, st.RemainingDel)
	}
	if st.ReleasesSoFar != 0 {
		t.Errorf("calibration failure counted as release: %d", st.ReleasesSoFar)
	}
}

// TestRegistryMechanismsDispatch checks that .../release accepts exactly
// the registered mechanism names, reports the canonical name and
// calibration metadata in the response, and refuses the retired "gauss"
// alias as an unknown mechanism.
func TestRegistryMechanismsDispatch(t *testing.T) {
	ts := newTestServer(t, 32, 10, 1e-3)
	post(t, ts.URL+"/v1/streams/base/summary", summaryBytes(t, 32, 8))
	resp := get(t, ts.URL+"/v1/streams/base/release?eps=1&delta=1e-5&mech=gauss")
	if body := bodyOf(t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "unknown mechanism") {
		t.Fatalf("mech=gauss: status %d body %s, want 400 unknown mechanism", resp.StatusCode, body)
	}
	for alias, want := range map[string]string{"gaussian": "gaussian", "laplace": "laplace"} {
		resp := get(t, ts.URL+"/v1/streams/base/release?eps=1&delta=1e-5&mech="+alias)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mech=%s status %d", alias, resp.StatusCode)
		}
		var rel releaseResponse
		if err := json.NewDecoder(resp.Body).Decode(&rel); err != nil {
			t.Fatal(err)
		}
		if rel.Mechanism != want {
			t.Errorf("mech=%s reported %q, want %q", alias, rel.Mechanism, want)
		}
		if len(rel.Meta) == 0 || rel.Meta["noise_scale"] <= 0 {
			t.Errorf("mech=%s missing calibration metadata: %v", alias, rel.Meta)
		}
	}
}

func TestReleaseLaplaceMechanism(t *testing.T) {
	ts := newTestServer(t, 64, 4, 1e-4)
	post(t, ts.URL+"/v1/streams/base/summary", summaryBytes(t, 64, 9))
	resp := get(t, ts.URL+"/v1/streams/base/release?eps=1&delta=1e-5&mech=laplace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("laplace release status %d", resp.StatusCode)
	}
	var rel releaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&rel); err != nil {
		t.Fatal(err)
	}
	if rel.Mechanism != "laplace" {
		t.Errorf("mechanism %q", rel.Mechanism)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	ts := newTestServer(t, 32, 1, 1e-4)
	post(t, ts.URL+"/v1/streams/base/summary", summaryBytes(t, 32, 4))
	if resp := get(t, ts.URL+"/v1/streams/base/release?eps=0.6&delta=1e-5"); resp.StatusCode != http.StatusOK {
		t.Fatalf("first release status %d", resp.StatusCode)
	}
	resp := get(t, ts.URL+"/v1/streams/base/release?eps=0.6&delta=1e-5")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget release status %d, want 429", resp.StatusCode)
	}
	// Stats reflect the single successful release.
	var st statsResponse
	if err := json.NewDecoder(get(t, ts.URL+"/v1/streams/base/stats").Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ReleasesSoFar != 1 || st.Nodes != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.RemainingEps > 0.41 || st.RemainingEps < 0.39 {
		t.Errorf("remaining eps = %v", st.RemainingEps)
	}
}

func TestRejectsBadInput(t *testing.T) {
	ts := newTestServer(t, 32, 1, 1e-4)
	if resp := post(t, ts.URL+"/v1/streams/base/summary", []byte("garbage")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage summary status %d", resp.StatusCode)
	}
	// Wrong k.
	if resp := post(t, ts.URL+"/v1/streams/base/summary", summaryBytes(t, 16, 1)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("k-mismatch status %d", resp.StatusCode)
	}
	// Release before any data.
	if resp := get(t, ts.URL+"/v1/streams/base/release?eps=0.5&delta=1e-5"); resp.StatusCode != http.StatusConflict {
		t.Errorf("empty release status %d", resp.StatusCode)
	}
	post(t, ts.URL+"/v1/streams/base/summary", summaryBytes(t, 32, 2))
	for _, q := range []string{
		"eps=0&delta=1e-5", "eps=abc&delta=1e-5", "eps=0.5&delta=2",
		"eps=0.5&delta=1e-5&mech=nope",
	} {
		if resp := get(t, ts.URL+"/v1/streams/base/release?"+q); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestSummaryOverflowRefused is the regression test for wrapped fold sums:
// a second summary whose fold would push a counter past int64 is a 400, and
// the stream keeps the count and node tally the first fold left (the
// wrapped sum used to be served as a negative estimate).
func TestSummaryOverflowRefused(t *testing.T) {
	ts := newTestServer(t, 32, 1, 1e-4)
	const big = int64(1) << 62
	s, err := merge.FromSorted(32, []stream.Item{7}, []int64{big})
	if err != nil {
		t.Fatal(err)
	}
	body := encoding.AppendSummary(nil, s)
	if resp := post(t, ts.URL+"/v1/streams/base/summary", body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first summary status %d, want 202", resp.StatusCode)
	}
	if resp := post(t, ts.URL+"/v1/streams/base/summary", body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflowing summary status %d, want 400", resp.StatusCode)
	}
	var st statsResponse
	if err := json.NewDecoder(get(t, ts.URL+"/v1/streams/base/stats").Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 1 {
		t.Errorf("summaries_merged = %d after the refused fold, want 1", st.Nodes)
	}
	var est struct {
		Estimate int64 `json:"estimate"`
	}
	if err := json.NewDecoder(get(t, ts.URL+"/v1/streams/base/estimate?item=7").Body).Decode(&est); err != nil {
		t.Fatal(err)
	}
	if est.Estimate != big {
		t.Errorf("estimate(7) = %d after the refused fold, want %d", est.Estimate, big)
	}
}

// TestSummaryHeaderCannotDriveAllocation: a 46-byte body whose header
// announces k = entries = 2^30 used to make the decoder size 16 GiB of
// columns before reading an entry. It must be a cheap 400.
func TestSummaryHeaderCannotDriveAllocation(t *testing.T) {
	s, err := newServer(32, 1000, dpmg.Budget{Eps: 1, Delta: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	mux := s.routes()
	body := append([]byte("DPMG"), 1, byte(encoding.KindSummary))
	for _, v := range []uint64{1 << 30, 0, 0, 0, 1 << 30} { // k, universe, n, decrements, entries
		body = binary.LittleEndian.AppendUint64(body, v)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/streams/base/summary", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mux.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status %d, want 400: %s", rec.Code, rec.Body)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("refusing a %d-byte summary allocated %d bytes, want < 1 MiB", len(body), got)
	}
}

func TestBoundedMemory(t *testing.T) {
	// No matter how many summaries are merged, the server holds at most k
	// counters after each fold.
	ts := newTestServer(t, 16, 10, 1e-3)
	for seed := uint64(1); seed <= 20; seed++ {
		post(t, ts.URL+"/v1/streams/base/summary", summaryBytes(t, 16, seed))
	}
	var st statsResponse
	if err := json.NewDecoder(get(t, ts.URL+"/v1/streams/base/stats").Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Counters > 16 {
		t.Errorf("server holds %d counters, k=16", st.Counters)
	}
	if st.Nodes != 20 {
		t.Errorf("nodes = %d", st.Nodes)
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := newServer(0, 1000, dpmg.Budget{Eps: 1, Delta: 0.1}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := newServer(4, 0, dpmg.Budget{Eps: 1, Delta: 0.1}); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := newServer(4, 1000, dpmg.Budget{Eps: 0, Delta: 0.1}); err == nil {
		t.Error("bad budget accepted")
	}
}

func batchBytes(t *testing.T, items []stream.Item) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encoding.MarshalItems(&buf, items); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBatchIngestAndRelease(t *testing.T) {
	ts := newTestServer(t, 64, 4, 1e-4)
	// Three heavy items carry most of a 60k-element stream, shipped raw in
	// ragged batches.
	str := workload.HeavyTail(60000, 1000, 3, 0.9, 42)
	for i := 0; i < len(str); i += 7001 {
		end := i + 7001
		if end > len(str) {
			end = len(str)
		}
		resp := post(t, ts.URL+"/v1/streams/base/batch", batchBytes(t, str[i:end]))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("batch ingest status %d", resp.StatusCode)
		}
		var ack batchResponse
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
		if want := (batchResponse{Stream: "base", Ingested: end - i, Total: int64(end)}); ack != want {
			t.Fatalf("batch ack %+v, want %+v", ack, want)
		}
	}
	var st statsResponse
	if err := json.NewDecoder(get(t, ts.URL+"/v1/streams/base/stats").Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Items != int64(len(str)) {
		t.Fatalf("items_ingested = %d, want %d", st.Items, len(str))
	}
	if st.Batches != (len(str)+7000)/7001 {
		t.Fatalf("batches_ingested = %d", st.Batches)
	}
	if st.IngestLive == 0 || st.IngestLive > 64 {
		t.Fatalf("ingest_counters = %d, want in (0, k=64]", st.IngestLive)
	}
	resp := get(t, ts.URL+"/v1/streams/base/release?eps=1&delta=1e-5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release status %d", resp.StatusCode)
	}
	var rel releaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&rel); err != nil {
		t.Fatal(err)
	}
	for x := 1; x <= 3; x++ {
		if _, ok := rel.Items[strconv.Itoa(x)]; !ok {
			t.Errorf("heavy item %d missing from batch-fed release %v", x, rel.Items)
		}
	}
}

func TestBatchAndSummariesCombine(t *testing.T) {
	ts := newTestServer(t, 64, 4, 1e-4)
	// One node ships a summary, another ships raw batches of the same
	// distribution; the release must see both.
	post(t, ts.URL+"/v1/streams/base/summary", summaryBytes(t, 64, 5))
	post(t, ts.URL+"/v1/streams/base/batch", batchBytes(t, workload.HeavyTail(50000, 1000, 3, 0.9, 6)))
	resp := get(t, ts.URL+"/v1/streams/base/release?eps=1&delta=1e-5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("combined release status %d", resp.StatusCode)
	}
	var rel releaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&rel); err != nil {
		t.Fatal(err)
	}
	for x := 1; x <= 3; x++ {
		if _, ok := rel.Items[strconv.Itoa(x)]; !ok {
			t.Errorf("heavy item %d missing from combined release %v", x, rel.Items)
		}
	}
}

func TestBatchRejectsBadInput(t *testing.T) {
	ts := newTestServer(t, 32, 1, 1e-4)
	// Truncated body (not a multiple of 8).
	if resp := post(t, ts.URL+"/v1/streams/base/batch", []byte{1, 2, 3}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated batch status %d", resp.StatusCode)
	}
	// Item outside the universe (test server uses d=1000).
	if resp := post(t, ts.URL+"/v1/streams/base/batch", batchBytes(t, []stream.Item{1, 2, 1001})); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-universe batch status %d", resp.StatusCode)
	}
	// Item zero is reserved.
	if resp := post(t, ts.URL+"/v1/streams/base/batch", batchBytes(t, []stream.Item{0})); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("zero-item batch status %d", resp.StatusCode)
	}
	// A rejected batch must not have been partially applied.
	var st statsResponse
	if err := json.NewDecoder(get(t, ts.URL+"/v1/streams/base/stats").Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Items != 0 || st.Batches != 0 {
		t.Errorf("rejected batches leaked into stats: %+v", st)
	}
	// Release with nothing ingested stays a conflict.
	if resp := get(t, ts.URL+"/v1/streams/base/release?eps=0.5&delta=1e-5"); resp.StatusCode != http.StatusConflict {
		t.Errorf("empty release status %d", resp.StatusCode)
	}
}

func createStream(t *testing.T, baseURL, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/streams", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeStats(t *testing.T, resp *http.Response) statsResponse {
	t.Helper()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestMultiStreamLifecycle drives the /v1/streams API end to end: create
// (idempotent), list, per-stream ingest and release isolation, delete.
func TestMultiStreamLifecycle(t *testing.T) {
	ts := newTestServer(t, 32, 4, 1e-4)
	if resp := createStream(t, ts.URL, `{"name":"edge-eu","k":64,"universe":5000,"eps":2,"delta":1e-5}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	// Idempotent re-create: 200, same stream.
	if resp := createStream(t, ts.URL, `{"name":"edge-eu","k":64,"universe":5000,"eps":2,"delta":1e-5}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("idempotent create status %d", resp.StatusCode)
	}
	// Conflicting config: 409.
	if resp := createStream(t, ts.URL, `{"name":"edge-eu","k":128,"universe":5000,"eps":2,"delta":1e-5}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting create status %d", resp.StatusCode)
	}
	// A universe within k of 2^64 would wrap the dummy keys d+1..d+k into
	// the universe: 400, and no stream (the list below counts them).
	if resp := createStream(t, ts.URL, `{"name":"wide","k":256,"universe":18446744073709551515}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrapping-universe create status %d", resp.StatusCode)
	}
	// Defaults inherited from server flags.
	if resp := createStream(t, ts.URL, `{"name":"edge-us"}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("defaulted create status %d", resp.StatusCode)
	}

	// List: base + the two created streams, ascending by name.
	var infos []streamInfo
	if err := json.NewDecoder(get(t, ts.URL+"/v1/streams").Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 || infos[0].Name != "base" || infos[1].Name != "edge-eu" || infos[2].Name != "edge-us" {
		t.Fatalf("stream list %+v", infos)
	}
	if infos[1].K != 64 || infos[1].Universe != 5000 || infos[2].K != 32 || infos[2].Universe != 1000 {
		t.Fatalf("stream configs %+v", infos)
	}

	// Ingest disjoint data into the two streams.
	post(t, ts.URL+"/v1/streams/edge-eu/batch", batchBytes(t, workload.HeavyTail(30000, 5000, 3, 0.9, 1)))
	post(t, ts.URL+"/v1/streams/edge-us/batch", batchBytes(t, []stream.Item{500, 500, 500, 7}))
	euStats := decodeStats(t, get(t, ts.URL+"/v1/streams/edge-eu/stats"))
	usStats := decodeStats(t, get(t, ts.URL+"/v1/streams/edge-us/stats"))
	if euStats.Items != 30000 || usStats.Items != 4 {
		t.Fatalf("ingest isolation broken: eu=%d us=%d", euStats.Items, usStats.Items)
	}
	if euStats.Stream != "edge-eu" || euStats.Shards <= 0 {
		t.Fatalf("stats identity: %+v", euStats)
	}
	// The base stream saw none of it.
	if def := decodeStats(t, get(t, ts.URL+"/v1/streams/base/stats")); def.Items != 0 || def.Nodes != 0 {
		t.Fatalf("base stream contaminated: %+v", def)
	}

	// Budget isolation: exhaust edge-us; edge-eu must be untouched.
	for i := 0; i < 2; i++ {
		if resp := get(t, ts.URL+"/v1/streams/edge-us/release?eps=2&delta=1e-5"); resp.StatusCode != http.StatusOK {
			t.Fatalf("edge-us release %d status %d", i, resp.StatusCode)
		}
	}
	if resp := get(t, ts.URL+"/v1/streams/edge-us/release?eps=2&delta=1e-5"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exhausted edge-us release status %d", resp.StatusCode)
	}
	resp := get(t, ts.URL+"/v1/streams/edge-eu/release?eps=1&delta=1e-5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edge-eu release status %d", resp.StatusCode)
	}
	var rel releaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&rel); err != nil {
		t.Fatal(err)
	}
	if rel.Stream != "edge-eu" {
		t.Errorf("release stream = %q", rel.Stream)
	}
	for x := 1; x <= 3; x++ {
		if _, ok := rel.Items[strconv.Itoa(x)]; !ok {
			t.Errorf("heavy item %d missing from edge-eu release", x)
		}
	}

	// Delete: gone afterwards, for base as for any other stream.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/streams/edge-us", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	if resp := get(t, ts.URL+"/v1/streams/edge-us/stats"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted stream stats status %d", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/streams/base", nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("base delete status %d", dresp.StatusCode)
	}
}

// TestErrorEnvelope is the table-driven contract for the JSON error
// envelope: every failing handler response must carry status-appropriate
// {"error": "..."} with a non-empty message — including unknown-stream
// 404s on every per-stream route.
func TestErrorEnvelope(t *testing.T) {
	ts := newTestServer(t, 32, 1, 1e-4)
	post(t, ts.URL+"/v1/streams/base/summary", summaryBytes(t, 32, 3))
	get(t, ts.URL+"/v1/streams/base/release?eps=0.9&delta=1e-5") // drain most of the budget
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
	}{
		{"garbage summary", "POST", "/v1/streams/base/summary", "garbage", http.StatusBadRequest},
		{"bad eps", "GET", "/v1/streams/base/release?eps=abc&delta=1e-5", "", http.StatusBadRequest},
		{"bad delta", "GET", "/v1/streams/base/release?eps=0.5&delta=2", "", http.StatusBadRequest},
		{"unknown mech", "GET", "/v1/streams/base/release?eps=0.01&delta=1e-7&mech=nope", "", http.StatusBadRequest},
		{"uncalibratable mech", "GET", "/v1/streams/base/release?eps=0.01&delta=1e-7&mech=geometric", "", http.StatusBadRequest},
		{"over budget", "GET", "/v1/streams/base/release?eps=5&delta=1e-5", "", http.StatusTooManyRequests},
		{"truncated batch", "POST", "/v1/streams/base/batch", "abc", http.StatusBadRequest},
		{"unknown stream stats", "GET", "/v1/streams/ghost/stats", "", http.StatusNotFound},
		{"unknown stream batch", "POST", "/v1/streams/ghost/batch", "", http.StatusNotFound},
		{"unknown stream summary", "POST", "/v1/streams/ghost/summary", "", http.StatusNotFound},
		{"unknown stream release", "GET", "/v1/streams/ghost/release?eps=1&delta=1e-5", "", http.StatusNotFound},
		{"unknown stream delete", "DELETE", "/v1/streams/ghost", "", http.StatusNotFound},
		{"bad create json", "POST", "/v1/streams", "{", http.StatusBadRequest},
		{"unknown create field", "POST", "/v1/streams", `{"name":"x","bogus":1}`, http.StatusBadRequest},
		{"bad stream name", "POST", "/v1/streams", `{"name":"no spaces"}`, http.StatusBadRequest},
		{"bad stream config", "POST", "/v1/streams", `{"name":"y","eps":-1}`, http.StatusBadRequest},
		{"bad stream mech", "POST", "/v1/streams", `{"name":"z","mechanism":"nope"}`, http.StatusBadRequest},
		{"oversized stream k", "POST", "/v1/streams", `{"name":"big","k":100000000}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q", ct)
			}
			var env struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("error body is not the JSON envelope: %v", err)
			}
			if env.Error == "" {
				t.Error("empty error message")
			}
		})
	}
	// Empty-stream release keeps its 409 + envelope.
	createStream(t, ts.URL, `{"name":"empty"}`)
	resp := get(t, ts.URL+"/v1/streams/empty/release?eps=0.5&delta=1e-5")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("empty release status %d", resp.StatusCode)
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == "" {
		t.Fatalf("empty release envelope: %v %q", err, env.Error)
	}
}

// TestServerCrossStreamStress hammers distinct streams through the real
// HTTP handler stack from many goroutines — the server-tier -race harness
// for the "no shared mutex across streams" design (the registry lookup is
// the only shared structure on the path, and it is read-locked per stripe).
func TestServerCrossStreamStress(t *testing.T) {
	ts := newTestServer(t, 32, 1e6, 0.5)
	const streams = 4
	for i := 0; i < streams; i++ {
		if resp := createStream(t, ts.URL, fmt.Sprintf(`{"name":"s%d"}`, i)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create s%d status %d", i, resp.StatusCode)
		}
	}
	raw := batchBytes(t, workload.Zipf(512, 1000, 1.1, 9))
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(2)
		go func(name string) { // ingest worker
			defer wg.Done()
			for iter := 0; iter < 25; iter++ {
				resp, err := http.Post(ts.URL+"/v1/streams/"+name+"/batch", "application/octet-stream", bytes.NewReader(raw))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("%s batch status %d", name, resp.StatusCode)
					return
				}
			}
		}(fmt.Sprintf("s%d", i))
		go func(name string) { // release + stats worker
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				for _, path := range []string{"/stats", "/release?eps=0.5&delta=1e-7"} {
					resp, err := http.Get(ts.URL + "/v1/streams/" + name + path)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
						t.Errorf("%s%s status %d", name, path, resp.StatusCode)
						return
					}
				}
			}
		}(fmt.Sprintf("s%d", i))
	}
	wg.Wait()
	for i := 0; i < streams; i++ {
		st := decodeStats(t, get(t, fmt.Sprintf("%s/v1/streams/s%d/stats", ts.URL, i)))
		if st.Items != 25*512 {
			t.Errorf("s%d ingested %d, want %d", i, st.Items, 25*512)
		}
	}
}

// TestServerRestartDurability is the end-to-end kill/restart contract:
// ingest into two streams, flush the state dir, build a fresh server from
// it, and require identical /stats documents and identical remaining
// budgets — plus byte-identical seeded releases at the manager layer
// (the HTTP release path deliberately draws CSPRNG seeds).
func TestServerRestartDurability(t *testing.T) {
	dir := t.TempDir()
	defaults := dpmg.StreamConfig{K: 32, Universe: 1000, Budget: dpmg.Budget{Eps: 4, Delta: 1e-4}}
	mgr1, restored, err := loadOrNewManager(dir, defaults)
	if err != nil || restored {
		t.Fatalf("fresh manager: restored=%v err=%v", restored, err)
	}
	s1 := &server{mgr: mgr1}
	ts := httptest.NewServer(s1.routes())

	createStream(t, ts.URL, `{"name":"base"}`)
	createStream(t, ts.URL, `{"name":"alpha","mechanism":"laplace"}`)
	post(t, ts.URL+"/v1/streams/alpha/batch", batchBytes(t, workload.HeavyTail(40000, 1000, 3, 0.9, 4)))
	post(t, ts.URL+"/v1/streams/alpha/summary", summaryBytes(t, 32, 5))
	post(t, ts.URL+"/v1/streams/base/batch", batchBytes(t, workload.Zipf(10000, 1000, 1.3, 6)))
	// Spend budget so the restored accountants carry history.
	if resp := get(t, ts.URL+"/v1/streams/alpha/release?eps=1&delta=1e-5"); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-restart release status %d", resp.StatusCode)
	}
	statsBefore := map[string]statsResponse{
		"alpha": decodeStats(t, get(t, ts.URL+"/v1/streams/alpha/stats")),
		"base":  decodeStats(t, get(t, ts.URL+"/v1/streams/base/stats")),
	}
	ts.Close() // drain in-flight requests: the quiescent shutdown point
	if err := s1.saveState(dir); err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new server from the state dir.
	mgr2, restored, err := loadOrNewManager(dir, defaults)
	if err != nil || !restored {
		t.Fatalf("restore: restored=%v err=%v", restored, err)
	}
	s2 := &server{mgr: mgr2}
	ts2 := httptest.NewServer(s2.routes())
	t.Cleanup(ts2.Close)

	statsAfter := map[string]statsResponse{
		"alpha": decodeStats(t, get(t, ts2.URL+"/v1/streams/alpha/stats")),
		"base":  decodeStats(t, get(t, ts2.URL+"/v1/streams/base/stats")),
	}
	for name, before := range statsBefore {
		if after := statsAfter[name]; after != before {
			t.Errorf("%s stats diverge across restart:\n  before %+v\n  after  %+v", name, before, after)
		}
	}

	// Byte-identical seeded releases from the two managers' streams.
	for _, name := range []string{"alpha", "base"} {
		st1, _ := mgr1.Stream(name)
		st2, _ := mgr2.Stream(name)
		h1, err1 := st1.ReleaseDetailed(dpmg.Params{Eps: 0.5, Delta: 1e-5}, dpmg.WithSeed(77))
		h2, err2 := st2.ReleaseDetailed(dpmg.Params{Eps: 0.5, Delta: 1e-5}, dpmg.WithSeed(77))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if len(h1.Histogram) != len(h2.Histogram) {
			t.Fatalf("%s seeded releases diverge after restart", name)
		}
		for x, v := range h1.Histogram {
			if h2.Histogram[x] != v {
				t.Fatalf("%s seeded release value for %d diverges: %v vs %v", name, x, v, h2.Histogram[x])
			}
		}
	}

	// Continuing ingest after restart works and the next periodic flush
	// overwrites atomically.
	post(t, ts2.URL+"/v1/streams/alpha/batch", batchBytes(t, []stream.Item{1, 2, 3}))
	if err := s2.saveState(dir); err != nil {
		t.Fatal(err)
	}
	if _, restored, err := loadOrNewManager(dir, defaults); err != nil || !restored {
		t.Fatalf("second restore: restored=%v err=%v", restored, err)
	}
}

// TestEstimateEndpoint pins the point-query surface: GET .../estimate
// serves the (bounded-stale, non-private) sketch estimate for one item of
// the stream named in the path, and the parameter validation rejects
// malformed or out-of-universe items before touching the stream.
func TestEstimateEndpoint(t *testing.T) {
	s, err := newServer(64, 1000, dpmg.Budget{Eps: 4, Delta: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	post(t, ts.URL+"/v1/streams/base/batch", batchBytes(t, []stream.Item{5, 5, 5, 7}))
	// The endpoint serves the bounded-stale published view; fold it
	// forward deterministically rather than waiting on a trigger.
	def, _ := s.mgr.Stream("base")
	if err := def.Publish(); err != nil {
		t.Fatal(err)
	}

	type estimateResponse struct {
		Stream   string `json:"stream"`
		Item     uint64 `json:"item"`
		Estimate int64  `json:"estimate"`
	}
	for _, c := range []struct {
		url  string
		item uint64
		want int64
	}{
		{"/v1/streams/base/estimate?item=5", 5, 3},
		{"/v1/streams/base/estimate?item=7", 7, 1},
		{"/v1/streams/base/estimate?item=9", 9, 0}, // never ingested: estimate 0, not an error
	} {
		resp := get(t, ts.URL+c.url)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s status %d", c.url, resp.StatusCode)
		}
		var er estimateResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		if er.Stream != "base" || er.Item != c.item || er.Estimate != c.want {
			t.Errorf("GET %s = %+v, want item %d estimate %d", c.url, er, c.item, c.want)
		}
	}

	for _, bad := range []string{
		"/v1/streams/base/estimate",           // missing item
		"/v1/streams/base/estimate?item=",     // empty item
		"/v1/streams/base/estimate?item=abc",  // not a number
		"/v1/streams/base/estimate?item=0",    // items are 1-based
		"/v1/streams/base/estimate?item=-3",   // negative
		"/v1/streams/base/estimate?item=1001", // outside universe [1, 1000]
	} {
		if resp := get(t, ts.URL+bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s status %d, want 400", bad, resp.StatusCode)
		}
	}
	if resp := get(t, ts.URL+"/v1/streams/nope/estimate?item=5"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown stream estimate status %d, want 404", resp.StatusCode)
	}
}
