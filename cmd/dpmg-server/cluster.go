package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"dpmg"
	"dpmg/internal/cluster"
	"dpmg/internal/durable"
)

// Distributed aggregation tier (-role=edge / -role=root).
//
// An edge runs the full local stack — sharded sketches, QoS, the streaming
// ingest datapath — but owns no privacy budget: on every -ship-interval its
// shipper cuts each stream's aggregate into a flat summary, persists it to
// the -spool write-ahead log, and ships it upstream over the framing
// protocol. The root folds shipped summaries into its own per-stream node
// tiers (bounded 2k-counter merges, Corollary 18 sensitivity) and solely
// owns every release budget.
//
// Edges are deliberately stateless beyond the spool: -role=edge refuses
// -state, because a manager snapshot restored from before a cut would
// resurrect traffic the cut already shipped — the cut preserves the
// monotone counters, so snapshot-age comparison cannot detect it — and the
// root would double-count. The spool alone is the edge's durable state;
// the documented loss window for an edge crash is the raw traffic since
// its last cut (at most one ship interval).
//
// Both roles expose the admin ops surface:
//
//	POST /v1/admin/streams/{s}/evict    offload a stream to the -state store
//	POST /v1/admin/streams/{s}/faultin  fault an offloaded stream back in
//	POST /v1/admin/drain                stop accepting ingest; edge: flush
//	                                    the spool upstream; root: stop the
//	                                    fan-in listener; snapshot if -state
//	                                    is set; report JSON

// Server role names (-role flag values).
const (
	roleStandalone = "standalone"
	roleEdge       = "edge"
	roleRoot       = "root"
)

// roleName returns the server's role for reports and metrics.
func (s *server) roleName() string {
	if s.role == "" {
		return roleStandalone
	}
	return s.role
}

// attachEdge binds the edge-side cluster state to the server.
func (s *server) attachEdge(sh *cluster.Shipper, sp *cluster.Spool) {
	s.role, s.clusterShipper, s.clusterSpool = roleEdge, sh, sp
}

// attachRoot binds the root-side cluster state to the server.
func (s *server) attachRoot(r *cluster.Root) {
	s.role, s.clusterRoot = roleRoot, r
}

// adminStreamResponse acknowledges an evict or fault-in.
type adminStreamResponse struct {
	Stream   string `json:"stream"`
	Changed  bool   `json:"changed"`
	Resident bool   `json:"resident"`
}

// handleAdminEvict forces one stream's state out to the offload store —
// the operator's "cold this tenant now" lever, same mechanics as the TTL
// sweep. 409 when no store is configured, 404 for unknown streams; an
// already-offloaded (or operation-in-flight) stream reports changed=false.
func (s *server) handleAdminEvict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("stream")
	st, ok := s.mgr.Stream(name)
	if !ok {
		jsonError(w, http.StatusNotFound, "unknown stream %q", name)
		return
	}
	if !s.hasStore {
		jsonError(w, http.StatusConflict, "no offload store: eviction requires -state")
		return
	}
	evicted, err := s.mgr.Evict(name)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, adminStreamResponse{Stream: name, Changed: evicted, Resident: st.Resident()})
}

// handleAdminFaultIn forces an offloaded stream back into RAM — pre-warming
// before an expected burst, or recovery drills. A resident stream reports
// changed=false; an unreadable offload record is 503 (the record may
// reappear; the stub stays).
func (s *server) handleAdminFaultIn(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("stream")
	st, ok := s.mgr.Stream(name)
	if !ok {
		jsonError(w, http.StatusNotFound, "unknown stream %q", name)
		return
	}
	faulted, err := s.mgr.FaultIn(name)
	switch {
	case errors.Is(err, dpmg.ErrFaultIn):
		jsonError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, adminStreamResponse{Stream: name, Changed: faulted, Resident: st.Resident()})
}

// drainReport is the POST /v1/admin/drain response.
type drainReport struct {
	Role            string `json:"role"`
	AlreadyDraining bool   `json:"already_draining,omitempty"`
	Streams         int    `json:"streams"`
	// Snapshotted reports a successful quiesced snapshot (-state only).
	Snapshotted   bool   `json:"snapshotted"`
	SnapshotError string `json:"snapshot_error,omitempty"`
	// Edge is present on -role=edge: the upstream flush outcome.
	Edge *edgeDrainReport `json:"edge,omitempty"`
}

// edgeDrainReport describes the edge's upstream flush.
type edgeDrainReport struct {
	// Flushed means every spooled record was acknowledged by the root and
	// every stream cut clean before the grace window expired.
	Flushed bool `json:"flushed"`
	// SpoolPending is the backlog left behind when the flush failed; those
	// records survive the process and re-ship on the next start.
	SpoolPending int64  `json:"spool_pending"`
	Shipped      int64  `json:"shipped_total"`
	Error        string `json:"error,omitempty"`
}

// handleAdminDrain takes the server out of rotation: ingest on both
// datapaths starts refusing (503 / AckShuttingDown), an edge flushes its
// spool and final cuts upstream, a root stops its fan-in listener (edges
// back off and keep spooling), and the quiesced state is snapshotted when
// -state is set. Draining is terminal — the process is expected to be
// stopped after the report — and idempotent: repeated drains re-run the
// flush/snapshot and report again.
func (s *server) handleAdminDrain(w http.ResponseWriter, r *http.Request) {
	first := s.draining.CompareAndSwap(false, true)
	if is := s.ingest.Load(); is != nil {
		is.draining.Store(true)
	}
	rep := drainReport{Role: s.roleName(), AlreadyDraining: !first, Streams: s.mgr.Len()}

	grace := s.drainGrace
	if grace <= 0 {
		grace = 30 * time.Second
	}
	ctx, cancel := context.WithTimeout(r.Context(), grace)
	defer cancel()

	switch {
	case s.clusterShipper != nil:
		er := &edgeDrainReport{}
		if err := s.clusterShipper.Flush(ctx); err != nil {
			er.Error = err.Error()
		} else {
			er.Flushed = true
		}
		stats := s.clusterShipper.Stats()
		er.SpoolPending, er.Shipped = stats.SpoolPending, stats.Shipped
		rep.Edge = er
	case s.clusterRoot != nil && first:
		s.clusterRoot.Shutdown()
	}

	if s.stateDir != "" {
		if err := s.saveState(s.stateDir); err != nil {
			rep.SnapshotError = err.Error()
		} else {
			rep.Snapshotted = true
		}
	}
	writeJSON(w, http.StatusOK, rep)
}

// seqsFileName is the root's persisted dedup table inside -state,
// riding beside manager.snapshot.
const seqsFileName = "cluster.seqs"

// loadClusterSeqs restores the root's dedup table from dir, if present.
func loadClusterSeqs(root *cluster.Root, dir string) error {
	f, err := os.Open(filepath.Join(dir, seqsFileName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	defer f.Close()
	return root.LoadSeqs(f)
}

// writeClusterSeqs persists a captured dedup table atomically and durably,
// like the manager snapshot.
func writeClusterSeqs(dir string, table []byte) error {
	return durable.WriteFile(dir, seqsFileName, func(w io.Writer) error {
		_, err := w.Write(table)
		return err
	})
}

// appendClusterMetrics emits the aggregation-tier /metrics rows for the
// server's role; standalone servers emit nothing here.
func appendClusterMetrics(s *server, buf *bytes.Buffer) {
	if s.clusterShipper == nil && s.clusterRoot == nil {
		return
	}
	header := func(name, help, typ string) {
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
	row := func(name string, v int64) {
		buf.WriteString(name)
		buf.WriteByte(' ')
		b := strconv.AppendInt(buf.AvailableBuffer(), v, 10)
		buf.Write(b)
		buf.WriteByte('\n')
	}
	if sh := s.clusterShipper; sh != nil {
		stats := sh.Stats()
		connected := int64(0)
		if stats.Connected {
			connected = 1
		}
		header("dpmg_cluster_connected", "Whether the edge has a live upstream connection.", "gauge")
		row("dpmg_cluster_connected", connected)
		header("dpmg_cluster_shipped_total", "Summaries the root acknowledged as folded.", "counter")
		row("dpmg_cluster_shipped_total", stats.Shipped)
		header("dpmg_cluster_ship_failures_total", "Retryable ship failures (refusals and broken links).", "counter")
		row("dpmg_cluster_ship_failures_total", stats.Failures)
		header("dpmg_cluster_cuts_total", "Local cut-and-reset extractions shipped or spooled.", "counter")
		row("dpmg_cluster_cuts_total", stats.Cuts)
		header("dpmg_cluster_spool_pending", "Spooled records awaiting root acknowledgment (fan-in backlog).", "gauge")
		row("dpmg_cluster_spool_pending", stats.SpoolPending)
	}
	if root := s.clusterRoot; root != nil {
		stats := root.Stats()
		header("dpmg_cluster_folded_total", "Summaries folded into the root's node tiers.", "counter")
		row("dpmg_cluster_folded_total", stats.Folded)
		header("dpmg_cluster_deduped_total", "Re-shipped sequences absorbed as duplicates.", "counter")
		row("dpmg_cluster_deduped_total", stats.Deduped)
		header("dpmg_cluster_edges", "Edges that have ever said hello.", "gauge")
		row("dpmg_cluster_edges", int64(len(stats.Edges)))
		header("dpmg_cluster_fold_lanes", "Per-stream fold lanes (folds for different streams proceed in parallel across lanes).", "gauge")
		row("dpmg_cluster_fold_lanes", int64(stats.Lanes))
		edgeRow := func(name, edge string, v int64) {
			buf.WriteString(name)
			buf.WriteString(`{edge=`)
			b := strconv.AppendQuote(buf.AvailableBuffer(), edge)
			buf.Write(b)
			buf.WriteString("} ")
			b = strconv.AppendInt(buf.AvailableBuffer(), v, 10)
			buf.Write(b)
			buf.WriteByte('\n')
		}
		header("dpmg_cluster_edge_connected", "Live connections from this edge.", "gauge")
		for _, e := range stats.Edges {
			edgeRow("dpmg_cluster_edge_connected", e.Edge, int64(e.Connected))
		}
		header("dpmg_cluster_edge_folded_total", "Summaries folded from this edge.", "counter")
		for _, e := range stats.Edges {
			edgeRow("dpmg_cluster_edge_folded_total", e.Edge, e.Folded)
		}
		header("dpmg_cluster_edge_deduped_total", "Duplicate sequences absorbed from this edge.", "counter")
		for _, e := range stats.Edges {
			edgeRow("dpmg_cluster_edge_deduped_total", e.Edge, e.Deduped)
		}
		header("dpmg_cluster_edge_lag_seconds", "Seconds since this edge's most recent fold (absent until the first fold).", "gauge")
		now := time.Now()
		for _, e := range stats.Edges {
			if e.LastFold.IsZero() {
				continue
			}
			buf.WriteString(`dpmg_cluster_edge_lag_seconds{edge=`)
			b := strconv.AppendQuote(buf.AvailableBuffer(), e.Edge)
			buf.Write(b)
			buf.WriteString("} ")
			b = strconv.AppendFloat(buf.AvailableBuffer(), now.Sub(e.LastFold).Seconds(), 'g', -1, 64)
			buf.Write(b)
			buf.WriteByte('\n')
		}
	}
}
