package cluster

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"dpmg/internal/durable"
	"dpmg/internal/merge"
)

// Spool is an edge's durable write-ahead log of cut-but-unshipped
// summaries: one self-contained summary-frame payload per file, named
// <stream>.<seq as 16 hex digits>.sum. A record is written inside the
// cut's critical section (before the in-memory reset commits) and deleted
// only once the root has acknowledged the sequence — so at every instant
// each traffic segment lives in exactly one place: the stream, the spool,
// or the root.
//
// Records hold un-noised counters: a spool is as sensitive as the streams
// themselves and must stay inside the trust boundary (directory mode 0700,
// like the offload store).
//
// Writes go through durable.WriteFile, like DirStore.Save — once Save
// returns, the record survives a crash. Safe for concurrent use by one writer and any readers; the
// Shipper serializes writes on its own goroutine.
type Spool struct {
	dir     string
	pending atomic.Int64
}

// spoolSuffix is the record file extension; quarantined records get
// badSuffix appended instead so they stop matching.
const (
	spoolSuffix = ".sum"
	badSuffix   = ".bad"
)

// seqHexDigits is the fixed-width sequence encoding in record file names.
// Fixed width makes the name unambiguous even though stream names may
// contain dots, and makes lexical order equal numeric order.
const seqHexDigits = 16

// OpenSpool opens (creating if needed) the spool rooted at dir and counts
// the surviving records into the pending gauge.
func OpenSpool(dir string) (*Spool, error) {
	if dir == "" {
		return nil, fmt.Errorf("cluster: spool directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	s := &Spool{dir: dir}
	recs, err := s.List()
	if err != nil {
		return nil, err
	}
	s.pending.Store(int64(len(recs)))
	return s, nil
}

// Record locates one spooled summary.
type Record struct {
	// Stream is the stream name parsed from the file name.
	Stream string
	// Seq is the ship sequence number parsed from the file name.
	Seq uint64
	// path is the record file.
	path string
}

// name formats the record file name for (stream, seq).
func (s *Spool) name(stream string, seq uint64) string {
	return fmt.Sprintf("%s.%0*x%s", stream, seqHexDigits, seq, spoolSuffix)
}

// Save durably persists the encoded payload for (stream, seq), replacing
// any previous record for the pair atomically.
func (s *Spool) Save(stream string, seq uint64, sum *merge.Summary) error {
	payload, err := AppendSummaryPayload(nil, stream, seq, sum)
	if err != nil {
		return err
	}
	err = durable.WriteFile(s.dir, s.name(stream, seq), func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
	if err != nil {
		return err
	}
	s.pending.Add(1)
	return nil
}

// parseRecord parses a record file name into (stream, seq), reporting
// whether it is a well-formed record. The sequence field is fixed-width,
// so the split from the right is unambiguous even for stream names
// containing dots.
func parseRecord(name string) (stream string, seq uint64, ok bool) {
	base, found := strings.CutSuffix(name, spoolSuffix)
	if !found || len(base) < seqHexDigits+2 {
		return "", 0, false
	}
	dot := len(base) - seqHexDigits - 1
	if base[dot] != '.' {
		return "", 0, false
	}
	seq, err := strconv.ParseUint(base[dot+1:], 16, 64)
	if err != nil {
		return "", 0, false
	}
	return base[:dot], seq, true
}

// List returns the surviving records sorted by (stream, ascending seq) —
// the order a shipper must ship them in for the root's prefix invariant.
// Stale temp files from interrupted saves are swept; quarantined (.bad)
// files are ignored.
func (s *Spool) List() ([]Record, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var recs []Record
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		n := e.Name()
		if isStaleTemp(n) {
			os.Remove(filepath.Join(s.dir, n))
			continue
		}
		stream, seq, ok := parseRecord(n)
		if !ok {
			continue
		}
		recs = append(recs, Record{Stream: stream, Seq: seq, path: filepath.Join(s.dir, n)})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Stream != recs[j].Stream {
			return recs[i].Stream < recs[j].Stream
		}
		return recs[i].Seq < recs[j].Seq
	})
	return recs, nil
}

// isStaleTemp reports whether name is a temp file left by a Save
// interrupted before its rename. The check is anchored to the end of the
// name: durable.WriteFile's random ".tmp-<suffix>" never contains a dot,
// while a genuine record always ends in ".sum" after its dotted sequence
// field — so a record of a stream whose own name contains ".sum.tmp-"
// (names allow dots and dashes) can never match and be swept.
func isStaleTemp(name string) bool {
	i := strings.LastIndex(name, spoolSuffix+".tmp-")
	if i < 0 {
		return false
	}
	return !strings.Contains(name[i+len(spoolSuffix)+len(".tmp-"):], ".")
}

// Record locates the record for (stream, seq) without listing the
// directory — the shipper uses it to delete a just-acknowledged cut.
func (s *Spool) Record(stream string, seq uint64) Record {
	return Record{Stream: stream, Seq: seq, path: filepath.Join(s.dir, s.name(stream, seq))}
}

// Load reads a record's encoded payload bytes, for verbatim re-shipping.
func (s *Spool) Load(rec Record) ([]byte, error) {
	return os.ReadFile(rec.path)
}

// Delete removes an acknowledged record; deleting a missing record is not
// an error (an ack may race a restart that already re-listed).
func (s *Spool) Delete(rec Record) error {
	if err := os.Remove(rec.path); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	s.pending.Add(-1)
	return nil
}

// Quarantine renames a permanently-refused record out of the shipping set
// (suffix .bad) so one poisoned record cannot wedge the stream's pipeline
// forever, while preserving the bytes for the operator.
func (s *Spool) Quarantine(rec Record) error {
	if err := os.Rename(rec.path, rec.path+badSuffix); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	s.pending.Add(-1)
	return nil
}

// Pending returns the number of records awaiting acknowledgment — the
// fan-in backlog gauge exported on /metrics.
func (s *Spool) Pending() int64 { return s.pending.Load() }

// MaxSeqs returns each stream's highest spooled sequence number — the
// floor a restarted shipper's counters must resume above.
func (s *Spool) MaxSeqs() (map[string]uint64, error) {
	recs, err := s.List()
	if err != nil {
		return nil, err
	}
	max := make(map[string]uint64, len(recs))
	for _, r := range recs {
		if r.Seq > max[r.Stream] {
			max[r.Stream] = r.Seq
		}
	}
	return max, nil
}
