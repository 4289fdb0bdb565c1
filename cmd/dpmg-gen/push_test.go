package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dpmg/internal/encoding"
	"dpmg/internal/scenario"
	"dpmg/internal/stream"
)

// fakeServer records stream creations and decodes posted batches the way
// dpmg-server does, so the push path is tested without a subprocess.
type fakeServer struct {
	mu      sync.Mutex
	created []map[string]any
	items   []stream.Item
	batches int
}

func (f *fakeServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/streams", func(w http.ResponseWriter, r *http.Request) {
		var req map[string]any
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		f.created = append(f.created, req)
		f.mu.Unlock()
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(map[string]any{"stream": req["name"]}) //nolint:errcheck
	})
	mux.HandleFunc("/v1/streams/", func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/batch") {
			http.NotFound(w, r)
			return
		}
		items, err := encoding.AppendItems(nil, r.Body, 1<<21, 0)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		f.items = append(f.items, items...)
		f.batches++
		f.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
	})
	return mux
}

func TestPushDrivesServer(t *testing.T) {
	fake := &fakeServer{}
	srv := httptest.NewServer(fake.handler())
	defer srv.Close()

	cfg := pushConfig{
		Target:    scenario.Target{BaseURL: srv.URL},
		Stream:    "load",
		Create:    true,
		K:         32,
		Universe:  512,
		Eps:       4,
		Delta:     1e-5,
		Batch:     100,
		Transport: scenario.TransportHTTP,
		Model:     "zipf", N: 950, D: 512, S: 1.1, Seed: 7,
	}
	pushed, err := push(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pushed != 950 {
		t.Errorf("pushed %d, want 950", pushed)
	}
	if fake.batches != 10 {
		t.Errorf("%d batches, want 10 (9 full + 1 partial)", fake.batches)
	}
	if len(fake.created) != 1 || fake.created[0]["name"] != "load" {
		t.Errorf("stream creation not recorded: %+v", fake.created)
	}
	// The accepted sequence must equal the generated sequence exactly.
	want, _, err := genItems("zipf", 950, 512, 1.1, 0, 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(fake.items) != len(want) {
		t.Fatalf("server saw %d items, generated %d", len(fake.items), len(want))
	}
	for i := range want {
		if fake.items[i] != want[i] {
			t.Fatalf("item %d: server saw %d, generated %d", i, fake.items[i], want[i])
		}
	}
}

func TestPushValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := push(ctx, pushConfig{Transport: "carrier-pigeon", Batch: 1}); err == nil {
		t.Error("unknown transport accepted")
	}
	if _, err := push(ctx, pushConfig{Transport: scenario.TransportTCP, Batch: 1}); err == nil {
		t.Error("tcp transport without -ingest accepted")
	}
	if _, err := push(ctx, pushConfig{Transport: scenario.TransportHTTP, Batch: 0}); err == nil {
		t.Error("batch 0 accepted")
	}
	if _, err := push(ctx, pushConfig{Transport: scenario.TransportHTTP, Batch: 1, Model: "nope", N: 1, D: 1}); err == nil {
		t.Error("unknown model accepted")
	}
}
