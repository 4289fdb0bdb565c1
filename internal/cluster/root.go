package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpmg"
	"dpmg/internal/framing"
)

// FoldHook observes every successful fold, called with the stream's fold
// lane held: for any one stream it sees folds in exactly the order they
// landed (the per-stream fold order the differential twin replays), while
// hooks for different streams may run concurrently. It exists for
// differential testing — replaying each stream's hook sequence into a
// single-process stream must reproduce the root's state. The summary is
// the connection's reusable decode scratch: a hook that retains anything
// must copy it before returning, and it must not call back into the root.
type FoldHook func(edge, stream string, seq uint64, sum *dpmg.MergeableSummary)

// DefaultFoldLanes is the fold-lane count when RootConfig.Lanes is zero —
// the same stripe default as the manager's registry, far above any
// plausible core count so two hot streams rarely contend on a lane.
const DefaultFoldLanes = 64

// RootConfig configures a Root.
type RootConfig struct {
	// Manager is the root's stream layer: folds land in its per-stream
	// node tiers, and it solely owns every release budget.
	Manager *dpmg.Manager
	// AutoCreate makes the root create a stream (manager defaults, k taken
	// from the incoming summary) when an edge ships to an unknown name.
	// Without it, unknown streams refuse with AckUnknownStream until the
	// operator creates them.
	AutoCreate bool
	// Logf, when set, observes per-connection errors (log.Printf-shaped).
	Logf func(format string, args ...any)
	// FoldHook, when set, observes every successful fold (tests).
	FoldHook FoldHook
	// Lanes is the fold-lane count (0 = DefaultFoldLanes). One lane
	// serializes every fold — the measured baseline the striped default is
	// benchmarked against, not a supported production shape.
	Lanes int
}

// Root is the fan-in server: it accepts edge connections on the
// aggregation-tier protocol (hello, summary, seq-query) and folds shipped
// summaries into its manager's per-stream node tiers.
//
// Folds are routed to per-stream fold lanes: a lock-striped lane table
// keyed by stream name (FNV-1a, cache-line padded — the internal/registry
// idiom), so folds for different streams proceed in parallel while the
// per-(edge, stream) high-water sequence check and the fold it guards stay
// atomic within the stream's lane. The exactly-once invariant this
// preserves is per-stream fold order — the only order that determines
// release bytes, since streams are independent — rather than the total
// fold order the original single-mutex root kept; the differential twin
// replays per-stream order and must still match byte for byte.
type Root struct {
	cfg RootConfig

	// gate is the stop-the-world interlock over the lanes: every fold and
	// seq-query holds the read side, and SnapshotSeqs/LoadSeqs
	// hold the write side, quiescing all lanes at once so the dedup table
	// and whatever is persisted beside it describe the same fold set.
	// sync.RWMutex blocks new readers once a writer waits, so a snapshot
	// cannot be starved by a busy fan-in.
	gate  sync.RWMutex
	lanes []foldLane

	// edgeMu guards the edges map only. Per-edge counters are atomics and
	// a connection resolves its *edgeState once, at hello, so the fold
	// path never touches this mutex and Stats never blocks a fold.
	edgeMu sync.Mutex
	edges  map[string]*edgeState

	folded   atomic.Int64
	deduped  atomic.Int64
	draining atomic.Bool

	lnMu  sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// foldLane is one stripe of the fold-routing table: it owns the dedup rows
// (stream → edge → last folded seq) of every stream FNV-1a routes to it,
// and its mutex makes the dedup check and the fold atomic for those
// streams. Padding keeps neighboring lanes' mutexes off one cache line so
// parallel folds do not false-share.
type foldLane struct {
	mu   sync.Mutex
	seqs map[string]map[string]uint64 // stream → edge → last folded seq
	_    [64 - 16]byte
}

// laneFor routes a stream name to its fold lane (FNV-1a, like the
// registry's stripes — related names spread uniformly).
func (r *Root) laneFor(stream string) *foldLane {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= prime64
	}
	return &r.lanes[h%uint64(len(r.lanes))]
}

// edgeState is one edge's fan-in bookkeeping, all atomics: the fold path
// updates it without locks and Stats/metrics read it without blocking any
// fold.
type edgeState struct {
	connected atomic.Int64
	folded    atomic.Int64
	deduped   atomic.Int64
	lastFold  atomic.Int64 // unix nanoseconds of the latest fold; 0 = never
}

// NewRoot returns a Root folding into cfg.Manager.
func NewRoot(cfg RootConfig) (*Root, error) {
	if cfg.Manager == nil {
		return nil, fmt.Errorf("cluster: root requires a manager")
	}
	if cfg.Lanes < 0 {
		return nil, fmt.Errorf("cluster: negative lane count %d", cfg.Lanes)
	}
	lanes := cfg.Lanes
	if lanes == 0 {
		lanes = DefaultFoldLanes
	}
	r := &Root{
		cfg:   cfg,
		lanes: make([]foldLane, lanes),
		edges: make(map[string]*edgeState),
		conns: make(map[net.Conn]struct{}),
	}
	for i := range r.lanes {
		r.lanes[i].seqs = make(map[string]map[string]uint64)
	}
	return r, nil
}

// logf logs through the configured sink, if any.
func (r *Root) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// Serve accepts edge connections on ln until Shutdown closes it. Each
// connection is handled on its own goroutine.
func (r *Root) Serve(ln net.Listener) error {
	r.lnMu.Lock()
	r.ln = ln
	r.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if r.draining.Load() {
				return nil
			}
			return err
		}
		r.lnMu.Lock()
		if r.draining.Load() {
			// Shutdown won the race between Accept and registration; it will
			// never see this connection, so refuse it here.
			r.lnMu.Unlock()
			conn.Close()
			return nil
		}
		r.conns[conn] = struct{}{}
		r.lnMu.Unlock()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer func() {
				r.lnMu.Lock()
				delete(r.conns, conn)
				r.lnMu.Unlock()
			}()
			r.handleConn(conn)
		}()
	}
}

// Shutdown stops accepting, marks the root draining, force-closes live
// edge connections, and waits for connection goroutines to finish. Closing
// mid-exchange is safe: the protocol is synchronous request/ack, so an
// interrupted ack is a transport error to the edge, which keeps its spool
// record and re-ships it later — the dedup table absorbs the replay.
func (r *Root) Shutdown() {
	r.draining.Store(true)
	r.lnMu.Lock()
	if r.ln != nil {
		r.ln.Close()
	}
	for conn := range r.conns {
		conn.Close()
	}
	r.lnMu.Unlock()
	r.wg.Wait()
}

// handleConn speaks the aggregation-tier protocol on one edge connection.
// All per-frame state — header bytes, payload, the summary decoder, the
// ack writer — is connection-owned and reused, so a steady fold costs no
// allocations beyond the published aggregate itself.
func (r *Root) handleConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	if err := framing.ReadPreamble(br); err != nil {
		r.logf("cluster: %s: %v", conn.RemoteAddr(), err)
		return
	}
	var (
		edge    string
		est     *edgeState
		dec     *SummaryDecoder
		hdr     [framing.HeaderSize]byte
		payload []byte
	)
	acks := framing.NewAckWriter(bw, br)
	defer func() {
		if est != nil {
			est.connected.Add(-1)
		}
	}()
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if !errors.Is(err, io.EOF) {
				r.logf("cluster: %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		h := framing.ParseHeader(hdr[:])
		if h.Len > framing.MaxSummaryFrameLen {
			r.refuse(bw, h.Seq, framing.AckBadFrame, fmt.Sprintf("frame of %d bytes exceeds %d", h.Len, framing.MaxSummaryFrameLen))
			return
		}
		if cap(payload) < int(h.Len) {
			payload = make([]byte, h.Len)
		}
		payload = payload[:h.Len]
		if _, err := io.ReadFull(br, payload); err != nil {
			r.logf("cluster: %s: reading payload: %v", conn.RemoteAddr(), err)
			return
		}
		ack := framing.Ack{Seq: h.Seq}
		fatal := false
		switch {
		case r.draining.Load() && h.Type != framing.TypeClose:
			ack.Code, ack.Msg = framing.AckShuttingDown, "root is draining"
		case h.Type == framing.TypeHello:
			edge, est, ack = r.hello(edge, est, string(payload), h.Seq)
		case h.Type == framing.TypeClose:
			fatal = true // acked below, then the connection closes
		case edge == "":
			ack.Code, ack.Msg = framing.AckNotHello, "hello must precede aggregation-tier frames"
		case h.Type == framing.TypeSummary:
			if dec == nil {
				dec = NewSummaryDecoder()
			}
			ack = r.fold(edge, est, dec, payload, h.Seq)
		case h.Type == framing.TypeSeqQuery:
			ack = r.lastSeq(edge, string(payload), h.Seq)
		default:
			ack.Code = framing.AckBadFrame
			ack.Msg = fmt.Sprintf("frame type %v not part of the aggregation tier", h.Type)
			fatal = true
		}
		if err := acks.WriteAck(ack); err != nil {
			return
		}
		if fatal || ack.Code == framing.AckBadFrame {
			acks.Flush() //nolint:errcheck // best-effort: deliver the final ack before closing
			return
		}
	}
}

// refuse writes one refusal ack, best-effort (the caller closes anyway).
func (r *Root) refuse(bw *bufio.Writer, seq uint32, code framing.AckCode, msg string) {
	if _, err := bw.Write(framing.AppendAck(nil, framing.Ack{Seq: seq, Code: code, Msg: msg})); err == nil {
		bw.Flush() //nolint:errcheck // best-effort refusal
	}
}

// hello registers the connection's edge identity and resolves its state
// cell — the one edges-map access on the connection's whole fold path.
func (r *Root) hello(curEdge string, curSt *edgeState, id string, seq uint32) (string, *edgeState, framing.Ack) {
	ack := framing.Ack{Seq: seq}
	if id == "" || len(id) > framing.MaxNameLen {
		ack.Code = framing.AckBadFrame
		ack.Msg = fmt.Sprintf("edge id length %d outside [1, %d]", len(id), framing.MaxNameLen)
		return curEdge, curSt, ack
	}
	if curSt != nil {
		curSt.connected.Add(-1)
	}
	r.edgeMu.Lock()
	st := r.edges[id]
	if st == nil {
		st = &edgeState{}
		r.edges[id] = st
	}
	r.edgeMu.Unlock()
	st.connected.Add(1)
	return id, st, ack
}

// fold decodes and folds one shipped summary, advancing the (edge, stream)
// high-water sequence exactly when the fold succeeds. The gate's read side
// spans the dedup check, the manager fold, and the high-water advance, so
// a snapshot (write side) observes every fold either fully applied in both
// captures or in neither; within the gate, the stream's lane serializes
// this fold against others for the same stream only.
func (r *Root) fold(edge string, est *edgeState, dec *SummaryDecoder, payload []byte, frameSeq uint32) framing.Ack {
	ack := framing.Ack{Seq: frameSeq}
	name, seq, wrapped, err := dec.Decode(payload)
	if err != nil {
		ack.Code, ack.Msg = framing.AckBadFrame, err.Error()
		return ack
	}
	r.gate.RLock()
	defer r.gate.RUnlock()
	ln := r.laneFor(name)
	ln.mu.Lock()
	defer ln.mu.Unlock()
	last := ln.seqs[name][edge]
	if seq <= last {
		// Already folded (a re-ship after an edge restart, or a retry whose
		// original ack was lost). Success-class: the shipper discards its
		// record.
		ack.Code, ack.Info = framing.AckDuplicate, last
		r.deduped.Add(1)
		est.deduped.Add(1)
		return ack
	}
	stream, ok := r.cfg.Manager.Stream(name)
	if !ok {
		if !r.cfg.AutoCreate {
			ack.Code, ack.Msg = framing.AckUnknownStream, fmt.Sprintf("stream %q does not exist on the root", name)
			return ack
		}
		stream, _, err = r.cfg.Manager.CreateStream(name, dpmg.StreamConfig{K: wrapped.K()})
		if err != nil {
			ack.Code, ack.Msg = framing.AckBadItem, err.Error()
			return ack
		}
	}
	if err := stream.FoldSummary(wrapped); err != nil {
		if errors.Is(err, dpmg.ErrFaultIn) {
			ack.Code, ack.Msg = framing.AckUnavailable, err.Error()
		} else {
			ack.Code, ack.Msg = framing.AckBadItem, err.Error()
		}
		return ack
	}
	edges := ln.seqs[name]
	if edges == nil {
		edges = make(map[string]uint64)
		ln.seqs[name] = edges
	}
	edges[edge] = seq
	r.folded.Add(1)
	est.folded.Add(1)
	est.lastFold.Store(time.Now().UnixNano())
	if r.cfg.FoldHook != nil {
		r.cfg.FoldHook(edge, name, seq, wrapped)
	}
	ack.Info = seq
	return ack
}

// lastSeq answers a seq-query: the highest folded sequence for (edge,
// stream), in the ack's info field.
func (r *Root) lastSeq(edge, stream string, frameSeq uint32) framing.Ack {
	r.gate.RLock()
	defer r.gate.RUnlock()
	ln := r.laneFor(stream)
	ln.mu.Lock()
	defer ln.mu.Unlock()
	return framing.Ack{Seq: frameSeq, Info: ln.seqs[stream][edge]}
}

// RootStats is a point-in-time description of the fan-in tier.
type RootStats struct {
	// Folded and Deduped count summaries folded and duplicate sequences
	// refused since process start.
	Folded, Deduped int64
	// Lanes is the configured fold-lane count.
	Lanes int
	// Edges describes every edge that has ever said hello, sorted by name.
	Edges []EdgeStats
}

// EdgeStats is one edge's fan-in bookkeeping.
type EdgeStats struct {
	// Edge is the edge's hello identity.
	Edge string
	// Connected counts the edge's live connections.
	Connected int
	// Folded and Deduped count this edge's folded summaries and refused
	// duplicates.
	Folded, Deduped int64
	// LastFold is the wall-clock time of the edge's most recent fold (zero
	// when it has folded nothing) — the numerator of the fan-in lag gauge.
	LastFold time.Time
}

// Stats returns the root's current fan-in stats. It reads only atomics and
// the edges map, never the lanes or the gate, so a scrape cannot stall a
// fold (and a slow fold cannot stall a scrape).
func (r *Root) Stats() RootStats {
	out := RootStats{Folded: r.folded.Load(), Deduped: r.deduped.Load(), Lanes: len(r.lanes)}
	r.edgeMu.Lock()
	for name, st := range r.edges {
		es := EdgeStats{
			Edge: name, Connected: int(st.connected.Load()),
			Folded: st.folded.Load(), Deduped: st.deduped.Load(),
		}
		if ns := st.lastFold.Load(); ns != 0 {
			es.LastFold = time.Unix(0, ns)
		}
		out.Edges = append(out.Edges, es)
	}
	r.edgeMu.Unlock()
	sort.Slice(out.Edges, func(i, j int) bool { return out.Edges[i].Edge < out.Edges[j].Edge })
	return out
}

// seqTable is the JSON shape of the persisted dedup table: edge → stream →
// seq, the shape PR 7 persisted — lanes are an in-memory layout, not a wire
// one, so tables written by a single-mutex root load unchanged.
type seqTable struct {
	Seqs map[string]map[string]uint64 `json:"seqs"`
}

// captureSeqs merges the lanes' dedup rows into the persisted edge-major
// shape. Callers must hold the gate write side, which quiesces every lane.
func (r *Root) captureSeqs() map[string]map[string]uint64 {
	out := make(map[string]map[string]uint64)
	for i := range r.lanes {
		for stream, edges := range r.lanes[i].seqs {
			for edge, seq := range edges {
				m := out[edge]
				if m == nil {
					m = make(map[string]uint64)
					out[edge] = m
				}
				m[stream] = seq
			}
		}
	}
	return out
}

// SnapshotSeqs captures the dedup table and invokes save with the lane
// gate held exclusively — a stop-the-world quiesce of every fold lane — so
// no fold can land between the table capture and whatever save persists
// beside it (the manager snapshot): the two always describe the same fold
// set. Capturing them without the quiesce leaves a power-loss window: a
// fold landing between the captures is in the snapshot but not the table,
// and if power dies before its ack reaches the edge, the edge re-ships and
// the restarted root folds it again — a double count. Folds (and edge
// acks) stall for save's duration; that is the price of the closed window,
// and edges just see slower acks.
//
// The residual exposure is a crash between save's own file renames, which
// can leave the new snapshot beside the previous table; the server writes
// snapshot first so that direction only re-folds a fold whose ack was
// also lost in transit — never silently drops one.
func (r *Root) SnapshotSeqs(save func(table []byte) error) error {
	r.gate.Lock()
	defer r.gate.Unlock()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(seqTable{Seqs: r.captureSeqs()}); err != nil {
		return err
	}
	return save(buf.Bytes())
}

// LoadSeqs restores a SnapshotSeqs table, distributing its rows across the
// fold lanes (replacing their contents). Call it at startup, before Serve.
func (r *Root) LoadSeqs(rd io.Reader) error {
	var t seqTable
	if err := json.NewDecoder(rd).Decode(&t); err != nil {
		return err
	}
	r.gate.Lock()
	defer r.gate.Unlock()
	for i := range r.lanes {
		r.lanes[i].seqs = make(map[string]map[string]uint64)
	}
	for edge, streams := range t.Seqs {
		for name, seq := range streams {
			ln := r.laneFor(name)
			edges := ln.seqs[name]
			if edges == nil {
				edges = make(map[string]uint64)
				ln.seqs[name] = edges
			}
			edges[edge] = seq
		}
	}
	return nil
}
