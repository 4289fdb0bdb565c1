package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpmg"
	"dpmg/internal/accountant"
	"dpmg/internal/cluster"
	"dpmg/internal/durable"
	"dpmg/internal/encoding"
	"dpmg/internal/framing"
	"dpmg/internal/stream"
)

// server is the trusted aggregator of the Section 7 distributed setting,
// multi-tenant: a dpmg.Manager holds any number of named streams, each an
// independent edge population with its own universe, sketch state, default
// mechanism, and (eps, delta) account. Edge nodes either sketch locally and
// ship mergeable Misra-Gries summaries, or ship raw item batches for the
// server to sketch itself (thin edges à la C-POD's edge-pod aggregation);
// analysts request differentially private releases against each stream's
// own budget.
//
// Stream lookup is lock-striped and every stream's ingest path is sharded,
// so requests on different streams never contend on a shared mutex. Every
// stream is named: POST /v1/streams created it, a root's fan-in
// auto-created it, or a restore brought it back; every stream route is
// /v1/streams/{s}/.... Every handler-generated error carries the JSON
// envelope {"error": "..."} with the appropriate status; only net/http's own
// router-level responses (405 for a known path with the wrong method,
// 404 for an unrouted path) remain plain text.
//
// The request hot paths are allocation-conscious: /v1/streams/{s}/batch
// decodes into a pooled item buffer, validating each item against the
// stream's universe during the decode (one pass, not decode-then-scan), and
// .../release streams its JSON response from a pooled buffer without
// materializing an intermediate string-keyed map. Releases keep the
// Section 5.2 invariant per stream: histogram entries are emitted in
// ascending item order, never in map or insertion order.
type server struct {
	mgr *dpmg.Manager

	// flushMu serializes saveState calls: the periodic flusher and the
	// shutdown flush may otherwise race on the snapshot file.
	flushMu sync.Mutex

	// ingest is the streaming binary ingest listener (see ingest.go),
	// attached when -ingest-addr is set; nil otherwise. Atomic because
	// /metrics may race the attachment in tests.
	ingest atomic.Pointer[ingestServer]

	// Aggregation-tier state (see cluster.go). role is "" for standalone;
	// exactly one of clusterShipper (edge) / clusterRoot (root) is set for
	// the cluster roles, attached before the server starts serving.
	role           string
	clusterShipper *cluster.Shipper
	clusterSpool   *cluster.Spool
	clusterRoot    *cluster.Root

	// hasStore records whether an offload store is attached (-state);
	// stateDir is where admin drain snapshots land ("" = no persistence).
	hasStore bool
	stateDir string

	// draining refuses further ingest on every datapath once the admin
	// drain has run; drainGrace bounds the drain's upstream flush.
	draining   atomic.Bool
	drainGrace time.Duration

	// pprof mounts net/http/pprof on the admin mux when the operator opts
	// in with -pprof (the profiles expose internals; never expose the admin
	// port publicly with this on).
	pprof bool

	// labelCache memoizes per-stream Prometheus label fragments (see
	// streamLabelsFor); bounded by maxLabelCache, reset on overflow.
	labelCache struct {
		sync.RWMutex
		m map[string]*streamLabels
	}
}

// batchBufPool recycles batch decode buffers across requests (shared by all
// streams: a pool entry carries no per-stream state). Return buffers with
// putBatchBuf, never Put directly: one max-size batch (2²¹ items) would
// otherwise grow a pool entry to ~16 MB that sync.Pool retains per-P
// indefinitely. The streaming ingest datapath shares this pool (and its
// retention policy) for frame decode buffers.
var batchBufPool = sync.Pool{New: func() any { return new([]stream.Item) }}

// maxPooledBatchItems caps the capacity a pooled batch buffer may retain:
// 2¹⁶ items (512 KiB) covers every routine batch — the benchmark and
// documented batch size is 4096 — while keeping worst-case pool residency
// per P in the hundreds of KB instead of tens of MB. Larger buffers serve
// their one oversized batch and are dropped for the GC.
const maxPooledBatchItems = 1 << 16

// putBatchBuf returns a decode buffer to the pool, dropping buffers grown
// past maxPooledBatchItems so one giant batch cannot pin its memory.
func putBatchBuf(bufp *[]stream.Item) {
	if cap(*bufp) > maxPooledBatchItems {
		return
	}
	batchBufPool.Put(bufp)
}

// maxPooledRespBytes caps the capacity a pooled response buffer
// (release JSON, /metrics exposition) may retain, with the same rationale
// as maxPooledBatchItems: routine responses are tens of KB; a one-off
// giant response must not become a permanent per-P allocation.
const maxPooledRespBytes = 1 << 20

// respBufPool recycles release response buffers across requests. Return
// buffers with putRespBuf.
var respBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// putRespBuf returns a response buffer to pool, dropping oversized ones.
func putRespBuf(pool *sync.Pool, buf *bytes.Buffer) {
	if buf.Cap() > maxPooledRespBytes {
		return
	}
	pool.Put(buf)
}

func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/streams", s.handleStreamCreate)
	mux.HandleFunc("GET /v1/streams", s.handleStreamList)
	mux.HandleFunc("DELETE /v1/streams/{stream}", s.handleStreamDelete)
	mux.HandleFunc("POST /v1/streams/{stream}/summary", s.perStream(s.handleSummary))
	mux.HandleFunc("POST /v1/streams/{stream}/batch", s.perStream(s.handleBatch))
	mux.HandleFunc("GET /v1/streams/{stream}/release", s.perStream(s.handleRelease))
	mux.HandleFunc("GET /v1/streams/{stream}/stats", s.perStream(s.handleStats))
	mux.HandleFunc("GET /v1/streams/{stream}/estimate", s.perStream(s.handleEstimate))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Admin ops surface (cluster.go): lifecycle levers and the drain.
	mux.HandleFunc("POST /v1/admin/streams/{stream}/evict", s.handleAdminEvict)
	mux.HandleFunc("POST /v1/admin/streams/{stream}/faultin", s.handleAdminFaultIn)
	mux.HandleFunc("POST /v1/admin/drain", s.handleAdminDrain)
	// Opt-in profiling surface (-pprof): operator-only, for contention work
	// — mutex/block profiles against the live fan-in and ingest paths.
	if s.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// errorResponse is the uniform JSON error envelope every handler emits.
type errorResponse struct {
	Error string `json:"error"`
}

// jsonError writes the {"error": "..."} envelope with the given status.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(format, args...)}) //nolint:errcheck // best-effort error body
}

// writeJSON writes a success document with the given status. The document
// is encoded before the status is sent, so a value that cannot be encoded
// (a non-finite float) is a 500 with the error envelope, never a 200 with
// an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := respBufPool.Get().(*bytes.Buffer)
	defer putRespBuf(&respBufPool, buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		jsonError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes()) //nolint:errcheck // response already committed
}

// streamHandler is a handler bound to a resolved stream.
type streamHandler func(http.ResponseWriter, *http.Request, *dpmg.Stream)

// perStream resolves {stream} from the path, 404ing unknown names with the
// JSON envelope. The lookup is one lock-striped read; everything after runs
// on the stream's own synchronization.
func (s *server) perStream(h streamHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("stream")
		st, ok := s.mgr.Stream(name)
		if !ok {
			jsonError(w, http.StatusNotFound, "unknown stream %q", name)
			return
		}
		h(w, r, st)
	}
}

// streamCreateRequest is the POST /v1/streams body. Zero fields inherit
// the manager defaults (the -k/-d/-eps/-delta and QoS flags of the
// server); for the QoS ceilings -1 means explicitly unlimited.
type streamCreateRequest struct {
	Name      string  `json:"name"`
	K         int     `json:"k"`
	Universe  uint64  `json:"universe"`
	Shards    int     `json:"shards"`
	Mechanism string  `json:"mechanism"`
	Eps       float64 `json:"eps"`
	Delta     float64 `json:"delta"`

	MaxIngestRate       float64 `json:"max_ingest_rate"`
	IngestBurst         int     `json:"ingest_burst"`
	MaxInflightReleases int     `json:"max_inflight_releases"`
}

// streamInfo describes one stream in create/list responses.
type streamInfo struct {
	Name         string  `json:"name"`
	K            int     `json:"k"`
	Universe     uint64  `json:"universe"`
	Shards       int     `json:"shards"`
	Mechanism    string  `json:"mechanism,omitempty"`
	Nodes        int64   `json:"summaries_merged"`
	Batches      int64   `json:"batches_ingested"`
	Items        int64   `json:"items_ingested"`
	RemainingEps float64 `json:"remaining_eps"`
	RemainingDel float64 `json:"remaining_delta"`
	Releases     int     `json:"releases"`
	Resident     bool    `json:"resident"`
}

func infoOf(st *dpmg.Stream) streamInfo {
	cfg := st.Config()
	_, spent, releases := st.Accountant().State()
	return streamInfo{
		Name: st.Name(), K: cfg.K, Universe: cfg.Universe, Shards: cfg.Shards,
		Mechanism: cfg.Mechanism,
		Nodes:     st.Nodes(), Batches: st.Batches(), Items: st.Ingested(),
		RemainingEps: cfg.Budget.Eps - spent.Eps, RemainingDel: cfg.Budget.Delta - spent.Delta,
		Releases: releases,
		Resident: st.Resident(),
	}
}

// handleStreamCreate creates a named stream (idempotent: re-creating with
// the same config returns the existing stream). 201 on creation, 200 on
// idempotent hit, 409 on a config conflict, 400 on invalid input.
func (s *server) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	var req streamCreateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		jsonError(w, http.StatusBadRequest, "bad stream config: %v", err)
		return
	}
	cfg := dpmg.StreamConfig{
		K: req.K, Universe: req.Universe, Shards: req.Shards,
		Mechanism:           req.Mechanism,
		Budget:              dpmg.Budget{Eps: req.Eps, Delta: req.Delta},
		MaxIngestRate:       req.MaxIngestRate,
		IngestBurst:         req.IngestBurst,
		MaxInflightReleases: req.MaxInflightReleases,
	}
	st, created, err := s.mgr.CreateStream(req.Name, cfg)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, dpmg.ErrStreamConflict) {
			status = http.StatusConflict
		}
		jsonError(w, status, "%v", err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, infoOf(st))
}

// handleStreamList returns every stream in ascending name order.
func (s *server) handleStreamList(w http.ResponseWriter, r *http.Request) {
	streams := s.mgr.Streams()
	out := make([]streamInfo, len(streams))
	for i, st := range streams {
		out[i] = infoOf(st)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleStreamDelete removes a stream (its sketch state, offload record,
// and spent-budget record with it). A stream with operations in flight
// is never deleted out from under them: the manager refuses
// deterministically and the client gets 409 to retry.
func (s *server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("stream")
	deleted, err := s.mgr.DeleteStream(name)
	switch {
	case errors.Is(err, dpmg.ErrStreamConflict):
		jsonError(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		// Deleted, but cleaning up the offload record failed; surface it —
		// the operator must not believe the record is gone.
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	case !deleted:
		jsonError(w, http.StatusNotFound, "unknown stream %q", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// summaryResponse acknowledges one merged node summary.
type summaryResponse struct {
	Stream string `json:"stream"`
	Nodes  int64  `json:"summaries_merged"`
}

// handleSummary ingests one binary summary (encoding.AppendSummary) and
// folds it into the stream's running aggregate with the Agarwal et al.
// merge, so the server never stores more than 2k counters per stream.
func (s *server) handleSummary(w http.ResponseWriter, r *http.Request, st *dpmg.Stream) {
	if s.draining.Load() {
		jsonError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	sum, err := encoding.UnmarshalSummary(http.MaxBytesReader(w, r.Body, framing.MaxSummaryFrameLen))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad summary: %v", err)
		return
	}
	// Zero-copy wrap of the decoded columns; FoldSummary enforces the
	// stream's k and copies what it keeps.
	wrapped, err := dpmg.NewMergeableSummarySorted(sum.K, sum.Keys(), sum.Counts())
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad summary: %v", err)
		return
	}
	if err := st.FoldSummary(wrapped); err != nil {
		if errors.Is(err, dpmg.ErrFaultIn) {
			// Server-side offload-store trouble, not a client error: the
			// summary was well-formed and nothing was merged. 503 so the
			// edge retries instead of discarding its summary as "bad".
			jsonError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, summaryResponse{Stream: st.Name(), Nodes: st.Nodes()})
}

// batchResponse acknowledges one raw item batch. handleBatch renders it by
// hand, like the estimate document: the ack is the hottest HTTP response,
// and boxing it for encoding/json costs an allocation per batch.
type batchResponse struct {
	Stream   string `json:"stream"`
	Ingested int    `json:"ingested"`
	Total    int64  `json:"items_ingested"`
}

// handleBatch ingests a raw item batch (consecutive 8-byte little-endian
// items, see encoding.MarshalItems) into the stream's sharded sketch.
// Decoding validates every item against the stream's universe bound as it
// is read — a violation aborts the decode before any item is applied — and
// the whole batch then runs the sharded grouped hot path: ingest cost is
// one round trip, one (pooled) buffer, and one lock acquisition per
// touched shard. (Stream.UpdateBatch re-checks the bounds in one cheap
// branch-predictable pass: the universe bound guards the sketch's
// dummy-key region, so the manager facade never trusts its caller, this
// handler included.)
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request, st *dpmg.Stream) {
	if s.draining.Load() {
		jsonError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	bufp := batchBufPool.Get().(*[]stream.Item)
	defer putBatchBuf(bufp)
	// The limit must admit a full MaxDataItems batch (16 MiB of items)
	// plus the encoding header, not just the items themselves.
	items, err := encoding.AppendItems((*bufp)[:0], http.MaxBytesReader(w, r.Body, framing.MaxSummaryFrameLen), framing.MaxDataItems, st.Config().Universe)
	*bufp = items // keep the grown buffer even when the decode failed
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad batch: %v", err)
		return
	}
	if err := st.UpdateBatch(items); err != nil {
		switch {
		case errors.Is(err, dpmg.ErrRateLimited):
			// Per-stream QoS ceiling: all-or-nothing refusal, nothing was
			// ingested. Retry-After is a hint; the bucket refills
			// continuously at the configured rate.
			w.Header().Set("Retry-After", "1")
			jsonError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, dpmg.ErrFaultIn):
			// Offload-store I/O failure while faulting the stream in: the
			// batch was valid and nothing was ingested. 503, never 400 —
			// an edge that believed "bad batch" would drop the data.
			jsonError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			jsonError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	buf := respBufPool.Get().(*bytes.Buffer)
	defer putRespBuf(&respBufPool, buf)
	buf.Reset()
	b := buf.AvailableBuffer()
	b = append(b, `{"stream":`...)
	b = strconv.AppendQuote(b, st.Name())
	b = append(b, `,"ingested":`...)
	b = strconv.AppendInt(b, int64(len(items)), 10)
	b = append(b, `,"items_ingested":`...)
	b = strconv.AppendInt(b, st.Ingested(), 10)
	b = append(b, '}', '\n')
	buf.Write(b)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	w.Write(buf.Bytes()) //nolint:errcheck // response already committed
}

// releaseResponse mirrors the release JSON document. The handler streams
// the document manually (see writeReleaseJSON); this struct is the schema
// clients — and the server's own tests — decode into.
type releaseResponse struct {
	Stream    string             `json:"stream"`
	Mechanism string             `json:"mechanism"`
	Eps       float64            `json:"eps"`
	Delta     float64            `json:"delta"`
	Meta      map[string]float64 `json:"meta"`
	Items     map[string]float64 `json:"items"`
}

// handleRelease produces a private histogram of the stream's aggregate.
// Query parameters: eps, delta (spent against the stream's own budget), and
// mech= any mechanism registered with the dpmg registry that is calibrated
// for merged (Corollary 18) sensitivity — the stream's configured default
// (or "gaussian") when omitted.
//
// Ordering is load-bearing: the mechanism is calibrated before the budget
// is spent, so an unknown mechanism, invalid parameters, or an infeasible
// calibration rejects the request with the budget untouched.
func (s *server) handleRelease(w http.ResponseWriter, r *http.Request, st *dpmg.Stream) {
	if s.role == roleEdge {
		// Edges hold raw, un-noised counters and own no privacy budget;
		// only the root may account and noise a release. Refusing here is
		// what makes the root the sole budget owner.
		jsonError(w, http.StatusForbidden, "releases are served by the root, not edges: this edge ships summaries upstream and owns no privacy budget")
		return
	}
	// ParseFloat accepts "NaN" and "Inf": the checks refuse both here, so a
	// non-finite parameter is an input error that charges nothing.
	eps, err := strconv.ParseFloat(r.URL.Query().Get("eps"), 64)
	if err != nil || !accountant.ValidEps(eps) {
		jsonError(w, http.StatusBadRequest, "eps must be a finite positive float")
		return
	}
	delta, err := strconv.ParseFloat(r.URL.Query().Get("delta"), 64)
	if err != nil || !accountant.ValidDelta(delta, false) {
		jsonError(w, http.StatusBadRequest, "delta must be a float in (0,1)")
		return
	}
	var opts []dpmg.ReleaseOption
	if mech := r.URL.Query().Get("mech"); mech != "" {
		if _, ok := dpmg.MechanismByName(mech); !ok {
			jsonError(w, http.StatusBadRequest, "unknown mechanism %q (registered: %v)", mech, dpmg.Mechanisms())
			return
		}
		opts = append(opts, dpmg.WithMechanism(mech))
	}
	// No WithSeed: the release draws an unpredictable CSPRNG seed, the only
	// safe choice for data leaving the trust boundary.
	res, err := st.ReleaseDetailed(dpmg.Params{Eps: eps, Delta: delta}, opts...)
	switch {
	case err == nil:
	case errors.Is(err, dpmg.ErrStreamEmpty):
		jsonError(w, http.StatusConflict, "no summaries or batches ingested yet")
		return
	case errors.Is(err, dpmg.ErrBudgetExhausted):
		jsonError(w, http.StatusTooManyRequests, "privacy budget exhausted: %v", err)
		return
	case errors.Is(err, dpmg.ErrReleaseBusy):
		// Per-stream QoS ceiling on concurrent releases; no budget was
		// spent. Retry once an in-flight release drains.
		w.Header().Set("Retry-After", "1")
		jsonError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, dpmg.ErrFaultIn):
		// The stream could not be faulted in (offload-store I/O failure):
		// a server-side condition, no budget spent. 503 so the analyst
		// retries rather than reading "release not calibrated".
		jsonError(w, http.StatusServiceUnavailable, "%v", err)
		return
	default:
		// Calibration failures (mechanism not applicable to merged
		// sensitivity, infeasible parameters) reject the request before any
		// budget was spent.
		jsonError(w, http.StatusBadRequest, "release not calibrated: %v", err)
		return
	}
	buf := respBufPool.Get().(*bytes.Buffer)
	defer putRespBuf(&respBufPool, buf)
	buf.Reset()
	writeReleaseJSON(buf, st.Name(), res, eps, delta)
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(buf.Bytes()); err != nil {
		// Response already partially written; nothing sensible to send.
		return
	}
}

// writeReleaseJSON streams the releaseResponse document into buf without
// building the intermediate map[string]float64 the json package would need:
// histogram entries are appended directly as `"item":value` pairs in
// ascending item order (deterministic output; the released values are
// noisy, so the order leaks nothing it should not).
func writeReleaseJSON(buf *bytes.Buffer, streamName string, res *dpmg.ReleaseResult, eps, delta float64) {
	b := buf.AvailableBuffer()
	b = append(b, `{"stream":`...)
	b = strconv.AppendQuote(b, streamName)
	b = append(b, `,"mechanism":`...)
	b = strconv.AppendQuote(b, res.Mechanism)
	b = append(b, `,"eps":`...)
	b = strconv.AppendFloat(b, eps, 'g', -1, 64)
	b = append(b, `,"delta":`...)
	b = strconv.AppendFloat(b, delta, 'g', -1, 64)
	b = append(b, `,"meta":{`...)
	var keyArr [8]string // calibration metadata has a handful of keys
	metaKeys := keyArr[:0]
	for k := range res.Meta {
		metaKeys = append(metaKeys, k)
	}
	slices.Sort(metaKeys)
	for i, k := range metaKeys {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, k)
		b = append(b, ':')
		b = strconv.AppendFloat(b, res.Meta[k], 'g', -1, 64)
	}
	b = append(b, `},"items":{`...)
	for i, x := range res.Histogram.Items() {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = strconv.AppendUint(b, uint64(x), 10)
		b = append(b, '"', ':')
		b = strconv.AppendFloat(b, res.Histogram[x], 'g', -1, 64)
	}
	b = append(b, '}', '}', '\n')
	buf.Write(b)
}

// statsResponse keeps the original single-tenant field names (back-compat)
// plus the stream identity fields the multi-tenant API adds and the
// lifecycle/QoS observability fields (additive: old clients ignore them).
type statsResponse struct {
	Stream        string  `json:"stream"`
	K             int     `json:"k"`
	Universe      uint64  `json:"universe"`
	Shards        int     `json:"shards"`
	Mechanism     string  `json:"mechanism,omitempty"`
	Nodes         int     `json:"summaries_merged"`
	Counters      int     `json:"counters_held"`
	Batches       int     `json:"batches_ingested"`
	Items         int64   `json:"items_ingested"`
	IngestLive    int     `json:"ingest_counters"` // positive counters in the merged raw-shard view
	RemainingEps  float64 `json:"remaining_eps"`
	RemainingDel  float64 `json:"remaining_delta"`
	ReleasesSoFar int     `json:"releases"`

	Resident          bool  `json:"resident"`
	Evictions         int64 `json:"evictions"`
	FaultIns          int64 `json:"fault_ins"`
	ThrottledIngest   int64 `json:"throttled_ingest"`
	ThrottledReleases int64 `json:"throttled_releases"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request, st *dpmg.Stream) {
	stats, err := st.Stats()
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, statsResponse{
		Stream: stats.Name, K: stats.K, Universe: stats.Universe,
		Shards: stats.Shards, Mechanism: stats.Mechanism,
		Nodes: int(stats.Nodes), Counters: stats.AggregateCounters,
		Batches: int(stats.Batches), Items: stats.Ingested,
		IngestLive:   stats.IngestCounters,
		RemainingEps: stats.Remaining.Eps, RemainingDel: stats.Remaining.Delta,
		ReleasesSoFar: stats.Releases,
		Resident:      stats.Resident,
		Evictions:     stats.Evictions, FaultIns: stats.FaultIns,
		ThrottledIngest: stats.ThrottledIngest, ThrottledReleases: stats.ThrottledReleases,
	})
}

// handleEstimate serves a non-private point query from the stream's
// published view: one atomic load plus a binary search per tier, no stream
// mutex and no summary fold, so dashboards can poll it at scrape rates
// without stealing lock time from ingest. The estimate is bounded-stale
// (exact as of the last publish point, at most PublishEvery items plus one
// in-flight republish behind the live counters) and NOT differentially
// private — it reads the raw sketch, so the endpoint is for the trusted
// operator surface, same trust level as /v1/streams/{s}/stats. Like
// /metrics, an estimate poll does not count as stream access and never
// keeps an idle tenant hot; querying an offloaded stream serves whatever
// view was published before eviction, or falls back to the exact path
// (which faults the stream in) when no view exists yet.
func (s *server) handleEstimate(w http.ResponseWriter, r *http.Request, st *dpmg.Stream) {
	raw := r.URL.Query().Get("item")
	if raw == "" {
		jsonError(w, http.StatusBadRequest, "missing item parameter")
		return
	}
	x, err := strconv.ParseUint(raw, 10, 64)
	if err != nil || x == 0 {
		jsonError(w, http.StatusBadRequest, "item must be a positive integer, got %q", raw)
		return
	}
	if d := st.Config().Universe; x > d {
		jsonError(w, http.StatusBadRequest, "item %d outside universe [1, %d]", x, d)
		return
	}
	est := st.Estimate(dpmg.Item(x))
	buf := respBufPool.Get().(*bytes.Buffer)
	defer putRespBuf(&respBufPool, buf)
	buf.Reset()
	b := buf.AvailableBuffer()
	b = append(b, `{"stream":`...)
	b = strconv.AppendQuote(b, st.Name())
	b = append(b, `,"item":`...)
	b = strconv.AppendUint(b, x, 10)
	b = append(b, `,"estimate":`...)
	b = strconv.AppendInt(b, est, 10)
	b = append(b, '}', '\n')
	buf.Write(b)
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes()) //nolint:errcheck // response already committed
}

// metricsBufPool recycles /metrics response buffers across scrapes.
// Return buffers with putRespBuf (oversized buffers are dropped).
var metricsBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// sampleScratchPool recycles the per-scrape []streamSample scratch so a
// steady 64-stream scrape allocates no sample storage. Returned slices are
// cleared first (a pooled sample must not pin a deleted stream's strings).
var sampleScratchPool = sync.Pool{New: func() any { return new([]streamSample) }}

// streamLabels is the precomputed Prometheus exposition fragments for one
// stream name: the writeLabel/throttle-row tails that would otherwise be
// re-concatenated for every metric row of every scrape (11 rows per stream
// per scrape). Built once per stream name and cached on the server.
type streamLabels struct {
	row     string // `{stream="name"} `
	ingest  string // `{stream="name",op="ingest"} `
	release string // `{stream="name",op="release"} `
}

// maxLabelCache bounds the label-fragment cache. Stream deletion does not
// purge entries (the cache is keyed by name only and holds no stream
// references), so a workload churning through distinct names could grow it
// without bound; on overflow the cache resets and fragments are rebuilt.
const maxLabelCache = 4096

// streamLabelsFor returns the cached exposition fragments for a stream
// name, building and caching them on first sight. Stream names need no
// label escaping: the manager restricts them to [a-zA-Z0-9._-].
func (s *server) streamLabelsFor(name string) *streamLabels {
	s.labelCache.RLock()
	l, ok := s.labelCache.m[name]
	s.labelCache.RUnlock()
	if ok {
		return l
	}
	l = &streamLabels{
		row:     `{stream="` + name + `"} `,
		ingest:  `{stream="` + name + `",op="ingest"} `,
		release: `{stream="` + name + `",op="release"} `,
	}
	s.labelCache.Lock()
	if s.labelCache.m == nil || len(s.labelCache.m) >= maxLabelCache {
		s.labelCache.m = make(map[string]*streamLabels)
	}
	s.labelCache.m[name] = l
	s.labelCache.Unlock()
	return l
}

// streamSample is one stream's cheap metric reads, gathered in a single
// pass so the per-metric sample loops below need no further locking.
type streamSample struct {
	name      string
	labels    *streamLabels
	resident  bool
	ingested  int64
	batches   int64
	nodes     int64
	releases  int64
	spentEps  float64
	spentDel  float64
	remEps    float64
	remDel    float64
	lifecycle dpmg.LifecycleCounters
}

// handleMetrics serves Prometheus text exposition (format 0.0.4) with no
// external dependencies. Every read on the scrape path is cheap — atomic
// counters, one accountant lock per stream, no summary folds and no
// fault-ins — and scraping does not count as stream access, so
// observability never keeps an idle tenant hot. Stream names need no label
// escaping: the manager restricts them to [a-zA-Z0-9._-].
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	streams := s.mgr.Streams()
	scratch := sampleScratchPool.Get().(*[]streamSample)
	samples := (*scratch)[:0]
	defer func() {
		clear(samples)
		*scratch = samples[:0]
		sampleScratchPool.Put(scratch)
	}()
	residentCount := 0
	for _, st := range streams {
		total, spent, releases := st.Accountant().State()
		name := st.Name()
		resident := st.Resident()
		if resident {
			residentCount++
		}
		samples = append(samples, streamSample{
			name:     name,
			labels:   s.streamLabelsFor(name),
			resident: resident,
			ingested: st.Ingested(),
			batches:  st.Batches(),
			nodes:    st.Nodes(),
			releases: int64(releases),
			spentEps: spent.Eps, spentDel: spent.Delta,
			remEps: total.Eps - spent.Eps, remDel: total.Delta - spent.Delta,
			lifecycle: st.Lifecycle(),
		})
	}

	buf := metricsBufPool.Get().(*bytes.Buffer)
	defer putRespBuf(&metricsBufPool, buf)
	buf.Reset()

	writeHeaderFor := func(name, help, typ string) {
		buf.WriteString("# HELP ")
		buf.WriteString(name)
		buf.WriteByte(' ')
		buf.WriteString(help)
		buf.WriteString("\n# TYPE ")
		buf.WriteString(name)
		buf.WriteByte(' ')
		buf.WriteString(typ)
		buf.WriteByte('\n')
	}
	writeInt := func(v int64) {
		b := buf.AvailableBuffer()
		b = strconv.AppendInt(b, v, 10)
		b = append(b, '\n')
		buf.Write(b)
	}
	writeFloat := func(v float64) {
		b := buf.AvailableBuffer()
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		b = append(b, '\n')
		buf.Write(b)
	}
	writeLabel := func(name string, sm *streamSample) {
		buf.WriteString(name)
		buf.WriteString(sm.labels.row)
	}

	writeHeaderFor("dpmg_streams", "Number of managed streams (resident + offloaded).", "gauge")
	buf.WriteString("dpmg_streams ")
	writeInt(int64(len(samples)))
	writeHeaderFor("dpmg_streams_resident", "Number of streams whose counters are in RAM.", "gauge")
	buf.WriteString("dpmg_streams_resident ")
	writeInt(int64(residentCount))

	intMetrics := []struct {
		name, help, typ string
		value           func(*streamSample) int64
	}{
		{"dpmg_stream_items_ingested_total", "Raw items ingested into the stream.", "counter",
			func(sm *streamSample) int64 { return sm.ingested }},
		{"dpmg_stream_batches_ingested_total", "Raw batches ingested into the stream.", "counter",
			func(sm *streamSample) int64 { return sm.batches }},
		{"dpmg_stream_summaries_merged_total", "Node summaries merged into the stream aggregate.", "counter",
			func(sm *streamSample) int64 { return sm.nodes }},
		{"dpmg_stream_releases_total", "Private releases admitted against the stream budget.", "counter",
			func(sm *streamSample) int64 { return sm.releases }},
		{"dpmg_stream_resident", "Whether the stream counters are in RAM (1) or offloaded (0).", "gauge",
			func(sm *streamSample) int64 {
				if sm.resident {
					return 1
				}
				return 0
			}},
		{"dpmg_stream_evictions_total", "Times the stream was offloaded (since process start).", "counter",
			func(sm *streamSample) int64 { return sm.lifecycle.Evictions }},
		{"dpmg_stream_fault_ins_total", "Times the stream was faulted back in (since process start).", "counter",
			func(sm *streamSample) int64 { return sm.lifecycle.FaultIns }},
	}
	for _, mtr := range intMetrics {
		writeHeaderFor(mtr.name, mtr.help, mtr.typ)
		for i := range samples {
			writeLabel(mtr.name, &samples[i])
			writeInt(mtr.value(&samples[i]))
		}
	}

	floatMetrics := []struct {
		name, help string
		value      func(*streamSample) float64
	}{
		{"dpmg_stream_budget_eps_spent", "Epsilon spent against the stream budget.",
			func(sm *streamSample) float64 { return sm.spentEps }},
		{"dpmg_stream_budget_eps_remaining", "Epsilon remaining in the stream budget.",
			func(sm *streamSample) float64 { return sm.remEps }},
		{"dpmg_stream_budget_delta_spent", "Delta spent against the stream budget.",
			func(sm *streamSample) float64 { return sm.spentDel }},
		{"dpmg_stream_budget_delta_remaining", "Delta remaining in the stream budget.",
			func(sm *streamSample) float64 { return sm.remDel }},
	}
	for _, mtr := range floatMetrics {
		writeHeaderFor(mtr.name, mtr.help, "gauge")
		for i := range samples {
			writeLabel(mtr.name, &samples[i])
			writeFloat(mtr.value(&samples[i]))
		}
	}

	writeHeaderFor("dpmg_stream_throttled_total", "Requests refused by the stream QoS ceilings.", "counter")
	for i := range samples {
		sm := &samples[i]
		buf.WriteString("dpmg_stream_throttled_total")
		buf.WriteString(sm.labels.ingest)
		writeInt(sm.lifecycle.ThrottledIngest)
		buf.WriteString("dpmg_stream_throttled_total")
		buf.WriteString(sm.labels.release)
		writeInt(sm.lifecycle.ThrottledReleases)
	}

	// Streaming ingest listener (absent entirely when -ingest-addr is not
	// set, so scrapes on HTTP-only deployments see no dead series). The
	// addr label is a remote address, which may contain characters that
	// need Prometheus label escaping — unlike stream names.
	if is := s.ingest.Load(); is != nil {
		writeHeaderFor("dpmg_ingest_connections", "Open streaming ingest connections.", "gauge")
		buf.WriteString("dpmg_ingest_connections ")
		writeInt(int64(is.connCount()))
		writeHeaderFor("dpmg_ingest_accepted_total", "Streaming ingest connections accepted since start.", "counter")
		buf.WriteString("dpmg_ingest_accepted_total ")
		writeInt(is.accepted.Load())
		writeHeaderFor("dpmg_ingest_frames_total", "Streaming ingest frames processed since start.", "counter")
		buf.WriteString("dpmg_ingest_frames_total ")
		writeInt(is.frames.Load())
		writeHeaderFor("dpmg_ingest_items_total", "Items ingested over the streaming datapath since start.", "counter")
		buf.WriteString("dpmg_ingest_items_total ")
		writeInt(is.items.Load())
		writeHeaderFor("dpmg_ingest_refusals_total", "Streaming ingest frames refused (non-OK acks) since start.", "counter")
		buf.WriteString("dpmg_ingest_refusals_total ")
		writeInt(is.refusals.Load())

		conns := is.connSamples()
		sort.Slice(conns, func(i, j int) bool { return conns[i].id < conns[j].id })
		connRow := func(name string, c *connSample, v int64) {
			buf.WriteString(name)
			buf.WriteString(`{conn="`)
			b := strconv.AppendUint(buf.AvailableBuffer(), c.id, 10)
			buf.Write(b)
			buf.WriteString(`",stream=`)
			b = strconv.AppendQuote(buf.AvailableBuffer(), c.streamName)
			buf.Write(b)
			buf.WriteString(`,addr=`)
			b = strconv.AppendQuote(buf.AvailableBuffer(), c.addr)
			buf.Write(b)
			buf.WriteString("} ")
			writeInt(v)
		}
		writeHeaderFor("dpmg_ingest_conn_frames_total", "Frames processed on this connection.", "counter")
		for i := range conns {
			connRow("dpmg_ingest_conn_frames_total", &conns[i], conns[i].frames)
		}
		writeHeaderFor("dpmg_ingest_conn_items_total", "Items ingested on this connection.", "counter")
		for i := range conns {
			connRow("dpmg_ingest_conn_items_total", &conns[i], conns[i].items)
		}
		writeHeaderFor("dpmg_ingest_conn_refusals_total", "Frames refused (non-OK acks) on this connection.", "counter")
		for i := range conns {
			connRow("dpmg_ingest_conn_refusals_total", &conns[i], conns[i].refusals)
		}
	}

	appendClusterMetrics(s, buf)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes()) //nolint:errcheck // response already committed
}

// stateFileName is the manager snapshot file inside the -state directory.
const stateFileName = "manager.snapshot"

// saveState writes the manager snapshot atomically and durably: a
// uniquely named temp file is written, synced, and renamed over the
// snapshot, then the directory itself is synced — rename alone is only
// atomic, not durable, and a power cut could otherwise silently roll back
// to the previous snapshot after saveState reported success. Calls are
// serialized — the periodic flusher and the final shutdown flush can
// otherwise overlap (the ticker goroutine may already be inside a flush
// when the signal arrives) and must not interleave writes.
func (s *server) saveState(dir string) error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return err
	}
	// On a root, the dedup table and the manager snapshot must describe
	// the same fold set, so folds are quiesced (SnapshotSeqs holds the
	// lane gate exclusively, stalling every fold lane) across the table
	// capture AND the snapshot
	// write. Without the quiesce, a fold landing between the two captures
	// would be in one but not the other: table-newer means an edge re-ship
	// is refused as a duplicate after its fold was lost (silent loss), and
	// snapshot-newer means a fold whose ack dies with a power cut is
	// re-shipped and folded twice. The snapshot is still written first —
	// if a crash lands between the two renames, the stale-table direction
	// can only double-count a fold whose ack was also lost in transit,
	// never drop one.
	if s.clusterRoot != nil {
		return s.clusterRoot.SnapshotSeqs(func(table []byte) error {
			if err := s.writeSnapshot(dir); err != nil {
				return err
			}
			return writeClusterSeqs(dir, table)
		})
	}
	return s.writeSnapshot(dir)
}

// writeSnapshot writes the manager snapshot durably; saveState holds the
// flush mutex (and, on a root, the fold quiesce) around it.
func (s *server) writeSnapshot(dir string) error {
	return durable.WriteFile(dir, stateFileName, s.mgr.Snapshot)
}

// loadOrNewManager restores the manager from dir's snapshot if one exists,
// otherwise starts fresh. restored reports which happened. Stale temp
// files from flushes interrupted by a hard crash (the rename never ran)
// are swept first so they cannot accumulate across crash loops.
func loadOrNewManager(dir string, defaults dpmg.StreamConfig) (mgr *dpmg.Manager, restored bool, err error) {
	if dir != "" {
		if stale, _ := filepath.Glob(filepath.Join(dir, stateFileName+".tmp-*")); len(stale) > 0 {
			for _, p := range stale {
				os.Remove(p)
			}
		}
		path := filepath.Join(dir, stateFileName)
		f, err := os.Open(path)
		switch {
		case err == nil:
			defer f.Close()
			mgr, err := dpmg.RestoreManager(f, defaults)
			if err != nil {
				return nil, false, fmt.Errorf("restoring %s: %w", path, err)
			}
			return mgr, true, nil
		case errors.Is(err, fs.ErrNotExist):
			// Fresh start below.
		default:
			return nil, false, err
		}
	}
	mgr, err = dpmg.NewManager(defaults)
	return mgr, false, err
}
