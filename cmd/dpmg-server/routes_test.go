package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"

	"dpmg"
	"dpmg/internal/workload"
)

// TestRouteTable pins the mux: each (method, path) resolves to exactly the
// pattern listed, and the retired single-tenant paths resolve to none.
func TestRouteTable(t *testing.T) {
	mgr, err := dpmg.NewManager(dpmg.StreamConfig{K: 32, Universe: 1000, Budget: dpmg.Budget{Eps: 1, Delta: 1e-4}})
	if err != nil {
		t.Fatal(err)
	}
	mux := (&server{mgr: mgr}).routes()
	for _, c := range []struct{ method, path, pattern string }{
		{"POST", "/v1/streams", "POST /v1/streams"},
		{"GET", "/v1/streams", "GET /v1/streams"},
		{"DELETE", "/v1/streams/s", "DELETE /v1/streams/{stream}"},
		{"POST", "/v1/streams/s/summary", "POST /v1/streams/{stream}/summary"},
		{"POST", "/v1/streams/s/batch", "POST /v1/streams/{stream}/batch"},
		{"GET", "/v1/streams/s/release", "GET /v1/streams/{stream}/release"},
		{"GET", "/v1/streams/s/stats", "GET /v1/streams/{stream}/stats"},
		{"GET", "/v1/streams/s/estimate", "GET /v1/streams/{stream}/estimate"},
		{"GET", "/metrics", "GET /metrics"},
		{"POST", "/v1/admin/streams/s/evict", "POST /v1/admin/streams/{stream}/evict"},
		{"POST", "/v1/admin/streams/s/faultin", "POST /v1/admin/streams/{stream}/faultin"},
		{"POST", "/v1/admin/drain", "POST /v1/admin/drain"},
		// Retired aliases onto an implicit stream, and pprof without -pprof.
		{"POST", "/v1/summary", ""},
		{"POST", "/v1/batch", ""},
		{"GET", "/v1/release", ""},
		{"GET", "/v1/stats", ""},
		{"GET", "/v1/estimate", ""},
		{"GET", "/debug/pprof/", ""},
	} {
		_, got := mux.Handler(httptest.NewRequest(c.method, c.path, nil))
		if got != c.pattern {
			t.Errorf("%s %s resolves to %q, want %q", c.method, c.path, got, c.pattern)
		}
	}
}

// TestZeroStreamServer boots the -state wiring with no streams: it lists,
// scrapes, snapshots, drains and restarts cleanly, and "default" is an
// ordinary stream name that can be created and deleted.
func TestZeroStreamServer(t *testing.T) {
	dir := t.TempDir()
	defaults := dpmg.StreamConfig{K: 32, Universe: 1000, Budget: dpmg.Budget{Eps: 4, Delta: 1e-4}}
	_, s, ts := lifecycleTestServer(t, dir, defaults)
	s.stateDir, s.hasStore = dir, true

	if body := strings.TrimSpace(bodyOf(t, get(t, ts.URL+"/v1/streams"))); body != "[]" {
		t.Fatalf("GET /v1/streams = %q, want []", body)
	}
	if body := bodyOf(t, get(t, ts.URL+"/metrics")); !strings.Contains(body, "\ndpmg_streams 0\n") {
		t.Fatalf("/metrics lacks dpmg_streams 0:\n%s", body)
	}
	if err := s.saveState(dir); err != nil {
		t.Fatal(err)
	}
	resp := post(t, ts.URL+"/v1/admin/drain", nil)
	var rep drainReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d err %v", resp.StatusCode, err)
	}
	if !rep.Snapshotted || rep.Streams != 0 {
		t.Fatalf("drain report %+v, want snapshotted with 0 streams", rep)
	}

	// Restart from the snapshot: zero streams come back.
	if mgr, restored, err := loadOrNewManager(dir, defaults); err != nil || !restored || mgr.Len() != 0 {
		t.Fatalf("restore: restored=%v err=%v", restored, err)
	}
	mgr2, _, ts2 := lifecycleTestServer(t, dir, defaults)
	if mgr2.Len() != 0 {
		t.Fatalf("restarted server holds %d streams, want 0", mgr2.Len())
	}
	if resp := createStream(t, ts2.URL, `{"name":"default"}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create default: status %d", resp.StatusCode)
	}
	if status := deleteStream(t, ts2.URL, "default"); status != http.StatusNoContent {
		t.Fatalf("delete default: status %d, want 204", status)
	}
}

// TestReleaseRefusesNonFiniteParams is the regression for NaN and ±Inf
// release parameters: ParseFloat accepts every spelling below, and an
// ordered guard lets NaN through, so a NaN spend used to poison the ledger
// (every later spend admitted) and make every snapshot fail. Each spelling,
// against eps and against delta, under each mechanism name, must be a 400
// that leaves the ledger bitwise unchanged, and a snapshot afterwards must
// succeed.
func TestReleaseRefusesNonFiniteParams(t *testing.T) {
	mgr, err := dpmg.NewManager(dpmg.StreamConfig{K: 32, Universe: 1000, Budget: dpmg.Budget{Eps: 1, Delta: 1e-4}})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := mgr.CreateStream("base", dpmg.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer((&server{mgr: mgr}).routes())
	t.Cleanup(ts.Close)
	post(t, ts.URL+"/v1/streams/base/batch", batchBytes(t, workload.Zipf(2000, 1000, 1.2, 3)))
	if resp := get(t, ts.URL+"/v1/streams/base/release?eps=0.25&delta=1e-5"); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid release: status %d", resp.StatusCode)
	}
	ledger := func() [5]uint64 {
		total, spent, releases := st.Accountant().State()
		return [5]uint64{math.Float64bits(total.Eps), math.Float64bits(total.Delta),
			math.Float64bits(spent.Eps), math.Float64bits(spent.Delta), uint64(releases)}
	}
	before := ledger()

	hostile := []string{"NaN", "nan", "Inf", "-Inf", "inf", "Infinity", "+Inf", "-infinity"}
	for _, mech := range []string{"laplace", "geometric", "pure", "gaussian"} {
		for _, v := range hostile {
			for _, q := range []string{"eps=" + url.QueryEscape(v) + "&delta=1e-5", "eps=0.25&delta=" + url.QueryEscape(v)} {
				resp := get(t, ts.URL+"/v1/streams/base/release?"+q+"&mech="+mech)
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("mech=%s %s: status %d, want 400", mech, q, resp.StatusCode)
				}
				if got := ledger(); got != before {
					t.Fatalf("mech=%s %s moved the ledger: %v -> %v", mech, q, before, got)
				}
			}
		}
	}
	if err := mgr.Snapshot(io.Discard); err != nil {
		t.Fatalf("snapshot after the hostile table: %v", err)
	}
	if err := (&server{mgr: mgr}).saveState(filepath.Join(t.TempDir(), "state")); err != nil {
		t.Fatalf("saveState after the hostile table: %v", err)
	}
}
