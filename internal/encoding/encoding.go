// Package encoding provides a compact, versioned binary wire format for the
// sketches in this repository, so that distributed deployments (Section 7:
// per-server sketches shipped to an aggregator) can serialize summaries
// without pulling in any external dependency. The format is
// little-endian, length-prefixed, and guarded by a magic/version header so
// foreign bytes fail loudly rather than decode garbage.
//
// Layout (all integers little-endian):
//
//	[4] magic "DPMG"
//	[1] version (1 = fixed entries, 2 = delta-varint entries)
//	[1] kind
//	[8] k
//	[8] universe (0 when the kind has none)
//	[8] n / total elements (semantics per kind)
//	[8] decrements (0 when the kind has none)
//	[8] number of entries m
//	m × entry, where the entry encoding is selected by the version byte:
//	  version 1: [8] item, [8] count (fixed width)
//	  version 2: uvarint(item - previous item), uvarint(count)
//
// Version 2 exploits the canonical ascending key order: consecutive keys
// are close together, so first differences fit in one or two varint bytes
// where the fixed encoding spends eight, shrinking cold-tier offload
// records several-fold on skewed workloads. Both versions are canonical —
// the decoder rejects non-minimal varints, so equal states serialize to
// equal bytes and decode∘encode is the identity.
//
// There is one codec per structure: every encoder appends to a []byte and
// every decoder reads a []byte it holds whole, bounding each count a
// header announces by the bytes actually present before it allocates. The
// Marshal*/Unmarshal* functions are adapters for callers that hold an
// io.Writer or io.Reader — encode then a single Write; read to EOF then
// decode — so an Unmarshal* consumes its reader entirely. The entry
// version is a function of the kind, not a choice: standalone KindSummary
// and KindCounters documents and KindManager snapshots are written as
// version 1, KindStream offload records (and the blobs nested in them) as
// version 2. Decoders accept either version wherever the kind allows it;
// version-1 KindStream records, which earlier builds wrote, stay readable
// because the entry decoder is shared. MarshalItems/AppendItems are the
// exception to all of this: a raw item batch has no header, and its
// decoder takes a reader because request bodies really do arrive as
// streams.
package encoding

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"dpmg/internal/merge"
	"dpmg/internal/mg"
	"dpmg/internal/stream"
)

// Kind tags the serialized structure.
type Kind byte

const (
	// KindSummary is a mergeable Misra-Gries summary (positive counters).
	KindSummary Kind = 1
	// Kind 2 is reserved: it tagged a Privacy-Aware Misra-Gries counter
	// table whose codec was removed (nothing ever shipped one). It must not
	// be reused, so such bytes keep failing on their kind.
	_ Kind = 2
	// KindCounters is a raw counter table (full Algorithm 1 state,
	// including zero and dummy counters).
	KindCounters Kind = 3
	// KindManager is a multi-tenant stream-manager snapshot: a stream table
	// whose records embed KindSummary and KindCounters blobs (see manager.go).
	KindManager Kind = 4
	// KindStream is a standalone single-stream offload record: the same
	// stream record a KindManager table holds, plus the resident-counter
	// trailer the lifecycle tier serves stats from while the stream's
	// counters live on disk (see manager.go).
	KindStream Kind = 5
)

var magic = [4]byte{'D', 'P', 'M', 'G'}

// format is the entry-table encoding and doubles as the header's version
// byte.
type format byte

const (
	// formatFixed is wire version 1: 16-byte fixed-width entries.
	formatFixed format = 1
	// formatDelta is wire version 2: each entry is the uvarint first
	// difference of the (strictly ascending) key followed by the uvarint
	// count.
	formatDelta format = 2
)

// maxK bounds the k any header or stream record may announce.
const maxK = 1 << 30

// header mirrors the fixed-size prefix.
type header struct {
	Kind       Kind
	K          uint64
	Universe   uint64
	N          uint64
	Decrements uint64
	Entries    uint64
}

// headerWireLen is the encoded size of the fixed header prefix: magic,
// version, kind, and the five 8-byte fields.
const headerWireLen = 4 + 1 + 1 + 5*8

func appendHeader(dst []byte, h header, f format) []byte {
	dst = append(dst, magic[:]...)
	dst = append(dst, byte(f), byte(h.Kind))
	dst = binary.LittleEndian.AppendUint64(dst, h.K)
	dst = binary.LittleEndian.AppendUint64(dst, h.Universe)
	dst = binary.LittleEndian.AppendUint64(dst, h.N)
	dst = binary.LittleEndian.AppendUint64(dst, h.Decrements)
	return binary.LittleEndian.AppendUint64(dst, h.Entries)
}

// appendEntries appends parallel key/count columns (keys strictly
// ascending) in entry format f. Ascending key order is the canonical
// order: equal tables serialize to equal bytes, and nothing about
// insertion history leaks through the wire format (the Section 5.2 release
// concern applies to serialized sketches too).
func appendEntries(dst []byte, keys []stream.Item, vals []int64, f format) []byte {
	if f == formatDelta {
		prev := uint64(0)
		for i, x := range keys {
			dst = binary.AppendUvarint(dst, uint64(x)-prev)
			dst = binary.AppendUvarint(dst, uint64(vals[i]))
			prev = uint64(x)
		}
		return dst
	}
	dst = slices.Grow(dst, 16*len(keys))
	for i, x := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(vals[i]))
	}
	return dst
}

// cursor decodes off the front of a byte slice. The first failure sticks
// in err and every later read returns zero values, so a decoder checks err
// after a run of fields — and always before it sizes an allocation from
// one of them.
type cursor struct {
	p   []byte
	err error
}

func (c *cursor) fail(msg string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(msg, args...)
	}
}

// take consumes the next n bytes, or fails when fewer remain.
func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if len(c.p) < n {
		c.fail("encoding: need %d bytes, %d left: %w", n, len(c.p), io.ErrUnexpectedEOF)
		return nil
	}
	b := c.p[:n]
	c.p = c.p[n:]
	return b
}

func (c *cursor) u64() uint64 {
	if b := c.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// str consumes a 2-byte length prefix and that many bytes.
func (c *cursor) str(max int) string {
	b := c.take(2)
	if b == nil {
		return ""
	}
	n := int(binary.LittleEndian.Uint16(b))
	if n > max {
		c.fail("encoding: string length %d exceeds %d", n, max)
		return ""
	}
	return string(c.take(n))
}

// header consumes the fixed prefix, checking magic and version.
func (c *cursor) header() (header, format) {
	if len(c.p) >= 4 && [4]byte(c.p[:4]) != magic {
		c.fail("encoding: bad magic %q", c.p[:4])
	}
	b := c.take(headerWireLen)
	if b == nil {
		return header{}, 0
	}
	f := format(b[4])
	if f != formatFixed && f != formatDelta {
		c.fail("encoding: unsupported version %d", b[4])
		return header{}, 0
	}
	return header{
		Kind:       Kind(b[5]),
		K:          binary.LittleEndian.Uint64(b[6:14]),
		Universe:   binary.LittleEndian.Uint64(b[14:22]),
		N:          binary.LittleEndian.Uint64(b[22:30]),
		Decrements: binary.LittleEndian.Uint64(b[30:38]),
		Entries:    binary.LittleEndian.Uint64(b[38:46]),
	}, f
}

// entries consumes n entries in format f, appending to keys/vals and
// returning the extended columns. It is the one entry decoder, so every
// kind gets the same checks: n is bounded by the bytes present before
// anything is allocated (a fixed entry is 16 bytes, a delta entry at least
// 2), keys must be strictly ascending, counts at least min (1 for a
// summary's positive counters, 0 for Algorithm 1 state), and varints
// minimal — the canonicality guard.
func (c *cursor) entries(n uint64, f format, min int64, keys []stream.Item, vals []int64) ([]stream.Item, []int64) {
	if c.err != nil {
		return keys, vals
	}
	per := 16
	if f == formatDelta {
		per = 2
	}
	if n > uint64(len(c.p)/per) {
		c.fail("encoding: %d entries in %d bytes: %w", n, len(c.p), io.ErrUnexpectedEOF)
		return keys, vals
	}
	if f == formatFixed {
		return c.fixedEntries(int(n), min, keys, vals)
	}
	keys, vals = slices.Grow(keys, int(n)), slices.Grow(vals, int(n))
	p := c.p
	var prev uint64
	for i := uint64(0); i < n; i++ {
		d, w, err := uvarintCanonical(p)
		var u uint64
		if err == nil {
			p = p[w:]
			u, w, err = uvarintCanonical(p)
		}
		if err != nil {
			c.fail("encoding: entry %d: %w", i, err)
			return keys, vals
		}
		p = p[w:]
		item, count := prev+d, int64(u) // a key that wraps lands at or below prev
		if (i > 0 && item <= prev) || count < min {
			c.failEntry(i, item, prev, count, min)
			return keys, vals
		}
		prev = item
		keys = append(keys, stream.Item(item))
		vals = append(vals, count)
	}
	c.p = p
	return keys, vals
}

// fixedEntries is entries for the fixed format, whose n entries the caller
// has checked are present. This is the root's per-ship decode loop, so the
// columns are sized once and written by index.
func (c *cursor) fixedEntries(n int, min int64, keys []stream.Item, vals []int64) ([]stream.Item, []int64) {
	base := len(keys)
	keys = slices.Grow(keys, n)[:base+n]
	vals = slices.Grow(vals, n)[:base+n]
	ks, vs, p := keys[base:], vals[base:], c.p[:16*n]
	var prev uint64
	for i := range ks {
		e := p[16*i : 16*i+16]
		item, count := binary.LittleEndian.Uint64(e), int64(binary.LittleEndian.Uint64(e[8:]))
		if (i > 0 && item <= prev) || count < min {
			c.failEntry(uint64(i), item, prev, count, min)
			return keys[:base+i], vals[:base+i]
		}
		prev = item
		ks[i], vs[i] = stream.Item(item), count
	}
	c.p = c.p[16*n:]
	return keys, vals
}

// failEntry records why entry i was refused.
func (c *cursor) failEntry(i, item, prev uint64, count, min int64) {
	if i > 0 && item <= prev {
		c.fail("encoding: entries not strictly ascending at %d", i)
	} else {
		c.fail("encoding: counter %d for key %d below %d", count, item, min)
	}
}

// uvarintCanonical decodes one uvarint from the front of p and returns the
// value and encoded length, rejecting non-minimal encodings (a
// most-significant group of zero, e.g. 0x80 0x00 for 0). binary.Uvarint
// accepts those, which would break the canonical-bytes property: two byte
// strings would decode to the same state.
func uvarintCanonical(p []byte) (uint64, int, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		if i >= len(p) {
			return 0, 0, io.ErrUnexpectedEOF
		}
		b := p[i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, 0, fmt.Errorf("encoding: varint overflows 64 bits")
			}
			if i > 0 && b == 0 {
				return 0, 0, fmt.Errorf("encoding: non-minimal varint")
			}
			return x | uint64(b)<<s, i + 1, nil
		}
		if i == binary.MaxVarintLen64-1 {
			return 0, 0, fmt.Errorf("encoding: varint overflows 64 bits")
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

// AppendSummary appends the canonical KindSummary blob for s to dst and
// returns the extended slice, in the fixed entry format (the wire format
// live cluster traffic speaks). The summary's flat columns are already in
// ascending key order — the canonical wire order — so the entries are
// copied straight from the backing slices, and a shipper or root reusing
// dst encodes with zero allocations at steady state.
func AppendSummary(dst []byte, s *merge.Summary) []byte {
	return appendSummary(dst, s, formatFixed)
}

func appendSummary(dst []byte, s *merge.Summary, f format) []byte {
	dst = appendHeader(dst, header{Kind: KindSummary, K: uint64(s.K), Entries: uint64(s.Len())}, f)
	return appendEntries(dst, s.Keys(), s.Counts(), f)
}

// summaryColumns consumes one KindSummary blob in either entry format: the
// one place a summary's structure (k bound, entries ≤ k, strictly
// ascending keys, positive counters) is validated.
func (c *cursor) summaryColumns(keys []stream.Item, vals []int64) (int, format, []stream.Item, []int64) {
	h, f := c.header()
	switch {
	case c.err != nil:
	case h.Kind != KindSummary:
		c.fail("encoding: expected summary, got kind %d", h.Kind)
	case h.K == 0 || h.K > maxK:
		c.fail("encoding: implausible k %d", h.K)
	case h.Entries > h.K:
		c.fail("encoding: %d entries exceed limit %d", h.Entries, h.K)
	}
	keys, vals = c.entries(h.Entries, f, 1, keys, vals)
	return int(h.K), f, keys, vals
}

// summary consumes one KindSummary blob into a summary that owns its
// columns.
func (c *cursor) summary() (*merge.Summary, format) {
	k, f, keys, vals := c.summaryColumns(nil, nil)
	if c.err != nil {
		return nil, 0
	}
	s, err := merge.FromSorted(k, keys, vals)
	if err != nil {
		c.fail("encoding: %w", err)
	}
	return s, f
}

// DecodeSummaryColumns decodes a KindSummary blob from p into the provided
// column scratch (append semantics — pass keys[:0], vals[:0] to reuse
// capacity) and returns k plus the extended columns, which merge.FromSorted
// accepts as they are. Bytes after the entry table are ignored. This is the
// allocation-free half of the root's summary decode path; the returned
// columns alias the scratch, and on error the scratch is handed back so a
// pooling caller keeps its capacity.
func DecodeSummaryColumns(p []byte, keys []stream.Item, vals []int64) (int, []stream.Item, []int64, error) {
	c := cursor{p: p}
	k, _, keys, vals := c.summaryColumns(keys, vals)
	if c.err != nil {
		return 0, keys, vals, c.err
	}
	return k, keys, vals, nil
}

// UnmarshalSummary reads r to EOF and decodes the summary at its front.
func UnmarshalSummary(r io.Reader) (*merge.Summary, error) {
	p, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	c := cursor{p: p}
	s, _ := c.summary()
	return s, c.err
}

// appendSketch appends the full Algorithm 1 state of s (zero and dummy
// counters included) as a KindCounters blob.
func appendSketch(dst []byte, s *mg.Sketch, f format) []byte {
	w := wireOf(s, nil, nil)
	return appendCounters(dst, &w, f)
}

// wireOf extracts the full Algorithm 1 state of s into a SketchWire whose
// columns are appended to keys/vals (pass keys[:0], vals[:0] to reuse
// capacity).
func wireOf(s *mg.Sketch, keys []stream.Item, vals []int64) SketchWire {
	keys, vals = s.AppendAll(keys, vals)
	return SketchWire{K: s.K(), Universe: s.Universe(), N: s.N(), Decrements: s.Decrements(), Keys: keys, Vals: vals}
}

// appendCounters appends w as a KindCounters blob: the one Algorithm 1
// counters writer, fed by live sketches (appendSketch) and by flat columns
// alike, so both inputs produce the same bytes for the same state.
func appendCounters(dst []byte, w *SketchWire, f format) []byte {
	dst = appendHeader(dst, header{
		Kind: KindCounters, K: uint64(w.K), Universe: w.Universe,
		N: uint64(w.N), Decrements: uint64(w.Decrements),
		Entries: uint64(len(w.Keys)),
	}, f)
	return appendEntries(dst, w.Keys, w.Vals, f)
}

// MarshalSketch writes the full Algorithm 1 state (including zero and
// dummy counters) in the fixed entry format, in one Write, so a paused
// stream can be resumed elsewhere.
func MarshalSketch(w io.Writer, s *mg.Sketch) error {
	_, err := w.Write(appendSketch(nil, s, formatFixed))
	return err
}

// SketchWire is the full Algorithm 1 state as flat parallel columns in
// strictly ascending key order — the wire order — so a restore hands it
// straight to mg.RestoreColumns. Decoders fill it, and a stream record's
// encoder takes it as input (StreamState.ShardWires).
type SketchWire struct {
	K          int
	Universe   uint64
	N          int64
	Decrements int64
	Keys       []stream.Item
	Vals       []int64
}

// counters consumes one KindCounters blob in either entry format into w,
// appending its columns to keys/vals and returning the extended slices;
// w's columns are the appended range, capacity-clipped so a later append
// to either scratch can never write into them.
func (c *cursor) counters(w *SketchWire, keys []stream.Item, vals []int64) (format, []stream.Item, []int64) {
	h, f := c.header()
	switch {
	case c.err != nil:
	case h.Kind != KindCounters:
		c.fail("encoding: expected counters, got kind %d", h.Kind)
	case h.K == 0 || h.K > maxK:
		c.fail("encoding: implausible k %d", h.K)
	case h.Entries != h.K:
		c.fail("encoding: Algorithm 1 state must hold exactly k=%d entries, got %d", h.K, h.Entries)
	}
	base := len(keys)
	keys, vals = c.entries(h.Entries, f, 0, keys, vals)
	if c.err != nil {
		return 0, keys, vals
	}
	*w = SketchWire{
		K: int(h.K), Universe: h.Universe, N: int64(h.N), Decrements: int64(h.Decrements),
		Keys: keys[base:len(keys):len(keys)], Vals: vals[base:len(vals):len(vals)],
	}
	return f, keys, vals
}

// UnmarshalSketch reads r to EOF and decodes the Algorithm 1 state at its
// front.
func UnmarshalSketch(r io.Reader) (*SketchWire, error) {
	p, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	c := cursor{p: p}
	var s SketchWire
	if c.counters(&s, nil, nil); c.err != nil {
		return nil, c.err
	}
	return &s, nil
}

// MarshalItems writes a raw batch of stream items as consecutive 8-byte
// little-endian values with no framing: the batch length is implied by the
// byte count. This is the body format of the dpmg-server
// POST /v1/streams/{s}/batch ingest endpoint, chosen so edge clients can
// stream items straight out of a []uint64 without per-item encoding work.
func MarshalItems(w io.Writer, items []stream.Item) error {
	var buf [8]byte
	for _, x := range items {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// AppendItems decodes a raw item batch from r, appending to dst and
// returning the extended slice; passing a reused buffer (dst[:0]) makes the
// steady-state decode allocation-free once the buffer has grown to the
// batch size. The reader is consumed in chunks rather than one 8-byte read
// per item. When universe > 0 every decoded item is validated against
// [1, universe] as it is decoded — one pass, instead of decode-then-scan —
// and the first violation aborts the decode, so no caller ever sees a
// partially validated batch. maxItems counts only the items appended by
// this call.
//
// On error the partially filled slice is returned alongside it: its
// contents are meaningless, but callers that pool the buffer should retain
// it (reslicing to [:0]) so capacity grown during a failed decode is not
// thrown away.
func AppendItems(dst []stream.Item, r io.Reader, maxItems int, universe uint64) ([]stream.Item, error) {
	if maxItems <= 0 {
		return dst, fmt.Errorf("encoding: maxItems must be positive")
	}
	start := len(dst)
	var chunk [8192]byte
	carry := 0 // bytes of an incomplete item left from the previous read
	for {
		n, err := r.Read(chunk[carry:])
		total := carry + n
		whole := total &^ 7
		for i := 0; i < whole; i += 8 {
			if len(dst)-start >= maxItems {
				return dst, fmt.Errorf("encoding: item batch exceeds %d items", maxItems)
			}
			x := binary.LittleEndian.Uint64(chunk[i : i+8])
			if universe > 0 && (x == 0 || x > universe) {
				return dst, fmt.Errorf("encoding: item %d outside universe [1,%d]", x, universe)
			}
			dst = append(dst, stream.Item(x))
		}
		carry = total - whole
		if carry > 0 {
			copy(chunk[:carry], chunk[whole:total])
		}
		if err == io.EOF {
			if carry != 0 {
				return dst, fmt.Errorf("encoding: item batch truncated (%d trailing bytes)", carry)
			}
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}
