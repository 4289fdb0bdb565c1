package encoding

// Manager snapshots: the durable state of a multi-tenant stream manager
// (dpmg.Manager), so a restarted aggregator resumes every tenant with
// identical estimates and remaining privacy budgets. The format nests the
// existing per-structure encodings — each stream's merged node aggregate is
// a KindSummary blob and each raw-ingest shard is a full KindCounters
// Algorithm 1 state — inside a versioned stream table:
//
//	[standard header]  kind = KindManager, entries = number of streams
//	entries × stream record, in strictly ascending name order:
//	  [2]  name length, then name bytes (UTF-8, 1..maxNameLen)
//	  [8]  k
//	  [8]  universe
//	  [8]  shard count
//	  [2]  mechanism-name length, then bytes (may be empty)
//	  [8×4] budget eps, budget delta, spent eps, spent delta (float64 bits)
//	  [8]  releases admitted
//	  [8]  summaries merged (nodes)
//	  [8]  batches ingested
//	  [8]  items ingested
//	  [1]  merged-aggregate present flag
//	       (KindSummary blob when 1)
//	  shard count × KindCounters blob (full Algorithm 1 state per shard)
//
// The ascending-name record order is canonical — equal manager states
// serialize to equal bytes, and nothing about stream creation history leaks
// through the wire (the Section 5.2 discipline applied to the stream table).
// Like every snapshot of raw counters, a manager snapshot is as sensitive
// as the streams themselves and must stay inside the trust boundary.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"dpmg/internal/merge"
	"dpmg/internal/mg"
	"dpmg/internal/stream"
)

const (
	// maxStreams bounds a snapshot's stream table (DoS guard on decode).
	maxStreams = 1 << 20
	// maxNameLen bounds one stream name on the wire.
	maxNameLen = 256
	// maxMechLen bounds a mechanism registry name on the wire.
	maxMechLen = 128
	// maxShards bounds one stream's raw-ingest shard count.
	maxShards = 1 << 16
	// minStreamRecordLen is the least a stream record can occupy: a
	// one-byte name, the fixed fields, an empty mechanism name, the
	// aggregate flag and one shard blob's header.
	minStreamRecordLen = 2 + 1 + 3*8 + 2 + 8*8 + 1 + headerWireLen
)

// StreamState is one stream's record in a manager snapshot. The marshal
// side takes the per-shard Algorithm 1 states from exactly one of two
// inputs: ShardWires, flat columns (what the lifecycle tier extracts under
// each shard lock), or ShardSketches, live sketches whose tables are
// extracted at encode time. Both produce the same bytes for the same state.
// A record that sets both is encoded only when every sketch holds exactly
// its wire's state — the case of a decoded record whose sketches were
// restored from its own wires — and refused otherwise. The unmarshal side
// fills ShardWires with the decoded, validated Algorithm 1 states and leaves
// ShardSketches nil (the caller owns turning wires back into live sketches,
// universe checks included), so a decoded record is valid marshal input.
type StreamState struct {
	Name      string
	K         int
	Universe  uint64
	Shards    int
	Mechanism string // default release mechanism; "" = sensitivity-class default

	BudgetEps, BudgetDelta float64
	SpentEps, SpentDelta   float64
	Releases               int64

	Nodes    int64 // summaries merged into the aggregate
	Batches  int64 // raw batches ingested
	Ingested int64 // raw items ingested

	Merged *merge.Summary // merged node aggregate; nil when none

	ShardSketches []*mg.Sketch  // marshal input; one per shard
	ShardWires    []*SketchWire // marshal input and unmarshal output; one per shard

	// AggCounters and IngestCounters are the live-counter tallies captured
	// when a stream is offloaded, so stats can be served while the counters
	// themselves live on disk. They travel only in standalone KindStream
	// offload records (a trailer after the record); KindManager tables do
	// not carry them — resident streams recompute them live.
	AggCounters    int
	IngestCounters int
}

// validate checks the record fields shared by both directions.
func (s *StreamState) validate() error {
	if s.Name == "" || len(s.Name) > maxNameLen {
		return fmt.Errorf("encoding: stream name length %d outside [1,%d]", len(s.Name), maxNameLen)
	}
	if len(s.Mechanism) > maxMechLen {
		return fmt.Errorf("encoding: stream %q: mechanism name length %d exceeds %d", s.Name, len(s.Mechanism), maxMechLen)
	}
	if s.K <= 0 || s.K > maxK {
		return fmt.Errorf("encoding: stream %q: implausible k %d", s.Name, s.K)
	}
	if s.Universe == 0 {
		return fmt.Errorf("encoding: stream %q: universe must be positive", s.Name)
	}
	if s.Universe > math.MaxUint64-uint64(s.K) {
		return fmt.Errorf("encoding: stream %q: universe %d leaves no room for k=%d dummy keys", s.Name, s.Universe, s.K)
	}
	if s.Shards <= 0 || s.Shards > maxShards {
		return fmt.Errorf("encoding: stream %q: shard count %d outside [1,%d]", s.Name, s.Shards, maxShards)
	}
	for _, v := range []float64{s.BudgetEps, s.BudgetDelta, s.SpentEps, s.SpentDelta} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("encoding: stream %q: non-finite budget value %v", s.Name, v)
		}
	}
	if s.Releases < 0 || s.Nodes < 0 || s.Batches < 0 || s.Ingested < 0 {
		return fmt.Errorf("encoding: stream %q: negative bookkeeping", s.Name)
	}
	if s.Merged != nil && s.Merged.K != s.K {
		return fmt.Errorf("encoding: stream %q: aggregate k=%d, stream k=%d", s.Name, s.Merged.K, s.K)
	}
	return nil
}

// checkShards validates the marshal-side shard input (see StreamState):
// one Algorithm 1 state per shard, each matching the stream's k and
// universe, and wires laid out the way the decoder will demand — k
// entries, parallel columns, strictly ascending keys, non-negative
// counters — so the codec decodes everything it encodes.
func (s *StreamState) checkShards() error {
	if s.ShardWires == nil {
		if len(s.ShardSketches) != s.Shards {
			return fmt.Errorf("encoding: stream %q: %d shard sketches for %d shards", s.Name, len(s.ShardSketches), s.Shards)
		}
		for i, sk := range s.ShardSketches {
			if sk.K() != s.K || sk.Universe() != s.Universe {
				return fmt.Errorf("encoding: stream %q: shard %d is (k=%d, d=%d), stream is (k=%d, d=%d)",
					s.Name, i, sk.K(), sk.Universe(), s.K, s.Universe)
			}
		}
		return nil
	}
	if len(s.ShardWires) != s.Shards {
		return fmt.Errorf("encoding: stream %q: %d shard wires for %d shards", s.Name, len(s.ShardWires), s.Shards)
	}
	if s.ShardSketches != nil && len(s.ShardSketches) != s.Shards {
		return fmt.Errorf("encoding: stream %q: %d shard sketches beside %d shard wires", s.Name, len(s.ShardSketches), s.Shards)
	}
	var keys []stream.Item
	var vals []int64
	for i, w := range s.ShardWires {
		if err := s.checkWire(w); err != nil {
			return fmt.Errorf("encoding: stream %q: shard %d: %w", s.Name, i, err)
		}
		if s.ShardSketches == nil {
			continue
		}
		sw := wireOf(s.ShardSketches[i], keys[:0], vals[:0])
		keys, vals = sw.Keys, sw.Vals
		if !sameWire(&sw, w) {
			return fmt.Errorf("encoding: stream %q: shard %d: sketch and wire hold different states", s.Name, i)
		}
	}
	return nil
}

// checkWire validates one marshal-side wire against the stream.
func (s *StreamState) checkWire(w *SketchWire) error {
	switch {
	case w == nil:
		return fmt.Errorf("missing wire")
	case w.K != s.K || w.Universe != s.Universe:
		return fmt.Errorf("wire is (k=%d, d=%d), stream is (k=%d, d=%d)", w.K, w.Universe, s.K, s.Universe)
	case len(w.Keys) != w.K || len(w.Vals) != len(w.Keys):
		return fmt.Errorf("Algorithm 1 state must hold exactly k=%d keys and counters, got %d and %d", w.K, len(w.Keys), len(w.Vals))
	}
	for i, x := range w.Keys {
		if i > 0 && x <= w.Keys[i-1] {
			return fmt.Errorf("keys not strictly ascending at %d", i)
		}
		if w.Vals[i] < 0 {
			return fmt.Errorf("negative counter %d for key %d", w.Vals[i], x)
		}
	}
	return nil
}

// sameWire reports whether a and b hold the same Algorithm 1 state.
func sameWire(a, b *SketchWire) bool {
	return a.K == b.K && a.Universe == b.Universe && a.N == b.N && a.Decrements == b.Decrements &&
		slices.Equal(a.Keys, b.Keys) && slices.Equal(a.Vals, b.Vals)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// appendStreamRecord validates and appends one stream record — the shared
// body of KindManager tables and KindStream offload records — with its
// nested summary/counter blobs in the enclosing document's format f. Every
// check runs before the first append, so on error dst is returned as it
// came.
func appendStreamRecord(dst []byte, s *StreamState, f format) ([]byte, error) {
	if err := s.validate(); err != nil {
		return dst, err
	}
	if err := s.checkShards(); err != nil {
		return dst, err
	}
	dst = appendString(dst, s.Name)
	for _, v := range [...]uint64{uint64(s.K), s.Universe, uint64(s.Shards)} {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	dst = appendString(dst, s.Mechanism)
	for _, v := range [...]float64{s.BudgetEps, s.BudgetDelta, s.SpentEps, s.SpentDelta} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	for _, v := range [...]int64{s.Releases, s.Nodes, s.Batches, s.Ingested} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	if s.Merged == nil {
		dst = append(dst, 0)
	} else {
		dst = appendSummary(append(dst, 1), s.Merged, f)
	}
	if s.ShardWires != nil {
		for _, w := range s.ShardWires {
			dst = appendCounters(dst, w, f)
		}
		return dst, nil
	}
	var w SketchWire
	for _, sk := range s.ShardSketches {
		w = wireOf(sk, w.Keys[:0], w.Vals[:0])
		dst = appendCounters(dst, &w, f)
	}
	return dst, nil
}

// streamRecord consumes and validates one stream record, filling
// ShardWires with columns appended to keys/vals (see counters). Every
// nested blob must carry the enclosing document's format f — a mixed record
// would re-encode to different bytes, breaking canonicality. The caller
// labels c.err with the record's name.
func (c *cursor) streamRecord(f format, keys []stream.Item, vals []int64) (StreamState, []stream.Item, []int64) {
	var s StreamState
	s.Name = c.str(maxNameLen)
	k, universe, shards := c.u64(), c.u64(), c.u64()
	s.Mechanism = c.str(maxMechLen)
	for _, p := range []*float64{&s.BudgetEps, &s.BudgetDelta, &s.SpentEps, &s.SpentDelta} {
		*p = math.Float64frombits(c.u64())
	}
	for _, p := range []*int64{&s.Releases, &s.Nodes, &s.Batches, &s.Ingested} {
		v := c.u64()
		if v > math.MaxInt64 {
			c.fail("encoding: bookkeeping value %d overflows", v)
		}
		*p = int64(v)
	}
	present := c.take(1)
	switch {
	case c.err != nil:
	case k > maxK:
		c.fail("encoding: implausible k %d", k)
	case shards > maxShards:
		c.fail("encoding: shard count %d exceeds %d", shards, maxShards)
	case shards > uint64(len(c.p)/headerWireLen):
		c.fail("encoding: %d shards in %d bytes: %w", shards, len(c.p), io.ErrUnexpectedEOF)
	case present[0] > 1:
		c.fail("encoding: bad aggregate flag %d", present[0])
	}
	if c.err != nil {
		return s, keys, vals
	}
	s.K, s.Universe, s.Shards = int(k), universe, int(shards)
	if present[0] == 1 {
		var sf format
		if s.Merged, sf = c.summary(); c.err == nil && sf != f {
			c.fail("encoding: aggregate: nested format %d does not match record format %d", sf, f)
		}
	}
	// Size the columns for every shard at once when the bytes present can
	// hold that many entries (a delta entry takes at least 2), so a crafted
	// shard count cannot drive the allocation.
	if n := shards * k; n <= uint64(len(c.p)/2) {
		keys, vals = slices.Grow(keys, int(n)), slices.Grow(vals, int(n))
	}
	wires := make([]SketchWire, s.Shards)
	s.ShardWires = make([]*SketchWire, s.Shards)
	for j := range wires {
		var wf format
		wf, keys, vals = c.counters(&wires[j], keys, vals)
		w := &wires[j]
		switch {
		case c.err != nil:
		case wf != f:
			c.fail("encoding: shard %d: nested format %d does not match record format %d", j, wf, f)
		case w.K != s.K || w.Universe != s.Universe:
			c.fail("encoding: shard %d: (k=%d, d=%d) does not match stream (k=%d, d=%d)",
				j, w.K, w.Universe, s.K, s.Universe)
		}
		if c.err != nil {
			return s, keys, vals
		}
		s.ShardWires[j] = w
	}
	if err := s.validate(); err != nil {
		c.fail("%w", err)
	}
	return s, keys, vals
}

// appendManager appends a manager snapshot. Streams may arrive in any
// order; they are written in ascending name order (the canonical record
// order). Each stream must carry exactly Shards shard states (see
// StreamState).
func appendManager(dst []byte, streams []StreamState) ([]byte, error) {
	sorted := make([]*StreamState, len(streams))
	for i := range streams {
		sorted[i] = &streams[i]
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Name == sorted[i-1].Name {
			return dst, fmt.Errorf("encoding: duplicate stream name %q", sorted[i].Name)
		}
	}
	out := appendHeader(dst, header{Kind: KindManager, Entries: uint64(len(sorted))}, formatFixed)
	for _, s := range sorted {
		var err error
		if out, err = appendStreamRecord(out, s, formatFixed); err != nil {
			return dst, err
		}
	}
	return out, nil
}

// MarshalManager writes a manager snapshot to w in one Write (see
// appendManager for the record order).
func MarshalManager(w io.Writer, streams []StreamState) error {
	p, err := appendManager(nil, streams)
	if err != nil {
		return err
	}
	_, err = w.Write(p)
	return err
}

// decodeManager decodes a manager snapshot, validating every nested
// structure (the summary and per-shard sketch decoders run their own
// structural checks) plus the cross-record invariants: strictly ascending
// stream names, per-stream k/universe agreement, finite budget values. The
// returned records carry decoded ShardWires, each record's columns in
// storage of its own; ShardSketches is nil.
func decodeManager(p []byte) ([]StreamState, error) {
	c := cursor{p: p}
	h, f := c.header()
	switch {
	case c.err != nil:
	case h.Kind != KindManager:
		c.fail("encoding: expected manager snapshot, got kind %d", h.Kind)
	case f != formatFixed:
		// One format per kind keeps the canonical-bytes story simple; the
		// compression win lives in the cold-tier KindStream records.
		c.fail("encoding: manager snapshot requires format %d, got %d", formatFixed, f)
	case h.K != 0 || h.Universe != 0 || h.N != 0 || h.Decrements != 0:
		// The per-structure header fields are unused at the manager level
		// and written as zero; enforcing that on read keeps the encoding
		// canonical (any accepted document re-encodes to the same bytes).
		c.fail("encoding: manager snapshot reserved header fields must be zero")
	case h.Entries > maxStreams:
		c.fail("encoding: %d streams exceed limit %d", h.Entries, maxStreams)
	case h.Entries > uint64(len(c.p)/minStreamRecordLen):
		c.fail("encoding: %d streams in %d bytes: %w", h.Entries, len(c.p), io.ErrUnexpectedEOF)
	}
	if c.err != nil {
		return nil, c.err
	}
	out := make([]StreamState, 0, h.Entries)
	for i := uint64(0); i < h.Entries; i++ {
		s, _, _ := c.streamRecord(formatFixed, nil, nil)
		if c.err != nil {
			return nil, fmt.Errorf("encoding: stream %d (%q): %w", i, s.Name, c.err)
		}
		if i > 0 && s.Name <= out[i-1].Name {
			return nil, fmt.Errorf("encoding: stream names not strictly ascending at %q", s.Name)
		}
		out = append(out, s)
	}
	// The table must be the whole document: trailing bytes mean a foreign
	// or corrupted snapshot.
	if len(c.p) != 0 {
		return nil, fmt.Errorf("encoding: trailing bytes after manager snapshot")
	}
	return out, nil
}

// UnmarshalManager reads r to EOF and decodes it as one manager snapshot
// (see decodeManager).
func UnmarshalManager(r io.Reader) ([]StreamState, error) {
	p, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decodeManager(p)
}

// AppendStream appends one stream as a standalone offload record: a
// KindStream header, the same stream record a KindManager table holds,
// then the resident-counter trailer (AggCounters, IngestCounters) the
// lifecycle tier captured at offload time. Offload records are always
// written in the delta-varint entry format. Like every raw-counter
// snapshot, the record is as sensitive as the stream itself. The encoding
// is canonical: equal stream states serialize to equal bytes. On error dst
// is returned as it came.
func AppendStream(dst []byte, s *StreamState) ([]byte, error) {
	return appendStream(dst, s, formatDelta)
}

func appendStream(dst []byte, s *StreamState, f format) ([]byte, error) {
	if s.AggCounters < 0 || s.AggCounters > s.K || s.IngestCounters < 0 || s.IngestCounters > s.K {
		return dst, fmt.Errorf("encoding: stream %q: resident counter tallies (%d, %d) outside [0, k=%d]",
			s.Name, s.AggCounters, s.IngestCounters, s.K)
	}
	out := appendHeader(dst, header{Kind: KindStream, Entries: 1}, f)
	out, err := appendStreamRecord(out, s, f)
	if err != nil {
		return dst, err
	}
	out = binary.LittleEndian.AppendUint64(out, uint64(s.AggCounters))
	return binary.LittleEndian.AppendUint64(out, uint64(s.IngestCounters)), nil
}

// MarshalStream writes AppendStream's bytes to w in one Write.
func MarshalStream(w io.Writer, s *StreamState) error {
	p, err := AppendStream(nil, s)
	if err != nil {
		return err
	}
	_, err = w.Write(p)
	return err
}

// DecodeStream decodes a standalone stream offload record in either entry
// format, validating the header, the nested structures, and the counter
// trailer, and rejecting trailing bytes — the same fail-loudly discipline
// as a manager snapshot. The returned record owns its storage.
func DecodeStream(p []byte) (*StreamState, error) {
	s, _, _, err := DecodeStreamColumns(p, nil, nil)
	return s, err
}

// DecodeStreamColumns is DecodeStream with the shard columns decoded into
// caller scratch (append semantics — pass keys[:0], vals[:0] to reuse
// capacity): the returned ShardWires' columns alias the extended scratch,
// which is also returned, on error too, so a pooling caller keeps its
// capacity. The wires are valid until the scratch is reused; the merged
// aggregate never aliases it. This is the fault-in path's decode, which
// copies the columns into sketches (mg.RestoreColumns) and hands the
// scratch back.
func DecodeStreamColumns(p []byte, keys []stream.Item, vals []int64) (*StreamState, []stream.Item, []int64, error) {
	c := cursor{p: p}
	h, f := c.header()
	switch {
	case c.err != nil:
	case h.Kind != KindStream:
		c.fail("encoding: expected stream offload record, got kind %d", h.Kind)
	case h.K != 0 || h.Universe != 0 || h.N != 0 || h.Decrements != 0:
		c.fail("encoding: stream record reserved header fields must be zero")
	case h.Entries != 1:
		c.fail("encoding: stream offload record must hold exactly 1 stream, got %d", h.Entries)
	}
	s, keys, vals := c.streamRecord(f, keys, vals)
	agg, ingest := c.u64(), c.u64()
	switch {
	case c.err != nil:
		return nil, keys, vals, fmt.Errorf("encoding: stream %q: %w", s.Name, c.err)
	case agg > uint64(s.K) || ingest > uint64(s.K):
		return nil, keys, vals, fmt.Errorf("encoding: stream %q: resident counter tallies (%d, %d) exceed k=%d", s.Name, agg, ingest, s.K)
	case len(c.p) != 0:
		return nil, keys, vals, fmt.Errorf("encoding: trailing bytes after stream offload record")
	}
	s.AggCounters, s.IngestCounters = int(agg), int(ingest)
	return &s, keys, vals, nil
}

// UnmarshalStream reads r to EOF and decodes it with DecodeStream.
func UnmarshalStream(r io.Reader) (*StreamState, error) {
	p, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeStream(p)
}
