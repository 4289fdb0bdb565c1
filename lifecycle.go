package dpmg

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dpmg/internal/durable"
	"dpmg/internal/encoding"
	"dpmg/internal/mg"
)

// Stream lifecycle: TTL / idle eviction, offload, and fault-in.
//
// A million-tenant manager cannot hold every stream's counter slots hot in
// RAM forever. The lifecycle tier gives each stream a residency state:
// resident streams hold their raw-ingest shards and merged node aggregate
// in memory as usual; an idle stream can be *offloaded* — its full durable
// state written to an OffloadStore as one canonical encoding.KindStream
// record — after which only a small stub (config, accountant, bookkeeping
// counters, captured stats) stays in the registry. The next data access
// *faults the stream back in* transparently: the record is read, the
// shards and aggregate are rebuilt with the same canonical restore path a
// manager snapshot uses, and the operation proceeds. The round trip is
// exact — identical estimates, byte-identical seeded releases, and the
// precise remaining (eps, delta) budget — because the offload record is
// the same Algorithm 1 state a Manager.Snapshot persists.
//
// Each piece of that work is done once. Evict copies each shard's counter
// table out once, under the shard lock, into pooled flat columns; checks
// them with mg.ValidateColumns; encodes the record straight from them; and
// counts the stub's raw-tier stats tally from them too. It never merges
// the shards. Fault-in decodes the shard columns into the same kind of
// pooled scratch and builds each shard's sketch once, with
// mg.RestoreColumns, inside a ShardedSketch that allocates no fresh tables
// first. It then publishes synchronously (see shardedFromWires).
//
// # Interlock
//
// Each stream carries a lifecycle RWMutex: every data operation holds the
// read side for its duration, eviction and fault-in hold the write side.
// An eviction therefore waits for in-flight operations to drain and
// re-checks idleness under the exclusive lock, so an update can never land
// in a sketch that is mid-offload and be lost; an operation that arrives
// after the offload faults the stream back in before proceeding. Streams
// share no lifecycle state with each other, preserving the manager's
// no-cross-stream-contention property.
//
// # Durability interplay
//
// Manager.Snapshot skips offloaded streams — their offload records are the
// durable truth, and serializing them would fault everything back in. A
// restarted deployment restores the manager snapshot first (resident
// streams) and then calls RecoverOffloaded, which registers a stub for
// every offload record whose name is not already resident; those streams
// stay on disk until first access. Fault-in deliberately leaves the
// offload record in place as a stale shadow (it is overwritten by the next
// eviction and shadowed by the registry while the stream is resident), so
// a crash right after a fault-in degrades to the usual at-most-one-
// snapshot-interval durability window instead of losing the stream.
//
// Both durable writers — DirStore.Save here and the server's snapshot
// flush — follow write-temp, fsync file, rename, fsync directory. The
// final directory fsync is what makes the rename itself crash-durable:
// without it a power cut can roll the directory back to a state where the
// freshly renamed record never existed, which for an offloaded stream
// means silent, total loss (the in-memory counters were already dropped).
// Once Save returns, the record is guaranteed to survive a crash.
//
// Fault-in failures are a distinct error class from bad client input:
// every path out of faultInLocked wraps ErrFaultIn, and serving layers
// must translate it to an "unavailable, retry later" response (HTTP 503,
// streaming AckUnavailable) rather than blaming the client.

// ErrFaultIn is wrapped by every fault-in failure: the offload store
// cannot be read (I/O error, lost record), the record fails validation, or
// the manager has no store attached while a stream is offloaded. Test with
// errors.Is. It is a *server-side* error class — the caller's request was
// well-formed and nothing about it needs fixing — so request-serving
// layers must map it to a 5xx/unavailable response, never to a
// client-error one, and the caller should retry once the store recovers.
// (Stream.Estimate keeps its documented 0-on-error behavior; use
// ReleaseView or UpdateBatch to observe the error itself.)
var ErrFaultIn = errors.New("dpmg: stream fault-in failed (offload store unavailable or record unusable)")

// ErrRateLimited is wrapped by ingest rejections on a stream whose
// configured MaxIngestRate cannot admit the batch right now; test with
// errors.Is. Rejected batches consume no tokens and are not ingested (not
// even partially); the caller should retry after backing off.
var ErrRateLimited = errors.New("dpmg: stream ingest rate limit exceeded")

// ErrReleaseBusy is wrapped by release rejections on a stream that is
// already running its configured MaxInflightReleases; test with errors.Is.
// Rejected releases spend no budget.
var ErrReleaseBusy = errors.New("dpmg: stream in-flight release limit exceeded")

// errStreamOffloaded signals Manager.Snapshot to skip a stream whose
// durable truth is its offload record.
var errStreamOffloaded = errors.New("dpmg: stream is offloaded")

// OffloadStore persists evicted streams' offload records by name. Records
// hold un-noised counters: a store is as sensitive as the streams
// themselves and must stay inside the trust boundary. Implementations must
// make Save atomic (a reader never observes a torn record) and are not
// required to be safe for concurrent Save/Load of the same name — the
// manager serializes per-stream access through each stream's lifecycle
// lock.
type OffloadStore interface {
	// Save durably persists data as the record for name, replacing any
	// previous record atomically. It must not retain data after it
	// returns: the manager reuses the buffer for the next record.
	Save(name string, data []byte) error
	// Load returns the record for name, or an error wrapping fs.ErrNotExist
	// when there is none.
	Load(name string) ([]byte, error)
	// Delete removes the record for name; deleting a missing record is not
	// an error.
	Delete(name string) error
	// List returns the names that currently have records, in any order.
	List() ([]string, error)
}

// DirStore is the file-backed OffloadStore: one <name>.stream file per
// record inside a directory, written with the atomic temp-file-and-rename
// discipline so a crash mid-save never clobbers the previous good record.
// Stream names validated by the manager ([a-zA-Z0-9._-], leading
// alphanumeric) are safe as file names.
type DirStore struct {
	dir string
}

// streamFileSuffix is the DirStore record file extension.
const streamFileSuffix = ".stream"

// NewDirStore returns a DirStore rooted at dir, creating it (mode 0700 —
// records are sensitive) if needed.
func NewDirStore(dir string) (*DirStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("dpmg: offload store directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	return &DirStore{dir: dir}, nil
}

// path returns the record file for name.
func (d *DirStore) path(name string) string {
	return filepath.Join(d.dir, name+streamFileSuffix)
}

// Save implements OffloadStore with durable.WriteFile: once it returns, the
// record survives a crash — which eviction depends on, because the evicted
// stream's in-memory counters are dropped next.
func (d *DirStore) Save(name string, data []byte) error {
	return durable.WriteFile(d.dir, name+streamFileSuffix, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// Load implements OffloadStore.
func (d *DirStore) Load(name string) ([]byte, error) {
	return os.ReadFile(d.path(name))
}

// Delete implements OffloadStore.
func (d *DirStore) Delete(name string) error {
	if err := os.Remove(d.path(name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// List implements OffloadStore. Stale temp files from interrupted saves
// are ignored (and swept, so crash loops cannot accumulate them). The
// record check runs first: dots and dashes are legal in stream names after
// the first character, so a name like "a.stream.tmp-1" produces a record
// file containing the temp-file marker — but only real temps end in
// durable.WriteFile's random digits, never in the ".stream" suffix every
// record carries, so the suffix cleanly separates the two.
func (d *DirStore) List() ([]string, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		n := e.Name()
		if strings.HasSuffix(n, streamFileSuffix) {
			names = append(names, strings.TrimSuffix(n, streamFileSuffix))
			continue
		}
		if strings.Contains(n, streamFileSuffix+".tmp-") {
			os.Remove(filepath.Join(d.dir, n))
		}
	}
	return names, nil
}

// SetOffloadStore attaches the store evicted streams offload to. It must
// be called before the first eviction — typically right after NewManager /
// RestoreManager, before serving traffic — and at most once.
func (m *Manager) SetOffloadStore(s OffloadStore) error {
	if s == nil {
		return fmt.Errorf("dpmg: offload store must not be nil")
	}
	m.offMu.Lock()
	defer m.offMu.Unlock()
	if m.offload != nil {
		return fmt.Errorf("dpmg: offload store already set")
	}
	m.offload = s
	return nil
}

// store returns the attached offload store, or nil.
func (m *Manager) store() OffloadStore {
	m.offMu.RLock()
	defer m.offMu.RUnlock()
	return m.offload
}

// EvictIdle offloads every resident stream that has seen no data access
// for at least ttl, returning how many streams were evicted. A ttl <= 0
// means "never evict" and is a no-op, so a disabled TTL is expressed by
// configuration alone. Idleness is re-checked under each stream's
// exclusive lifecycle lock after in-flight operations drain, so an access
// racing the sweep either completes before the offload (and is included in
// the record) or faults the stream back in afterwards — never lost.
// Requires an offload store (SetOffloadStore).
func (m *Manager) EvictIdle(ttl time.Duration) (int, error) {
	if ttl <= 0 {
		return 0, nil
	}
	store := m.store()
	if store == nil {
		return 0, fmt.Errorf("dpmg: EvictIdle requires an offload store (SetOffloadStore)")
	}
	now := m.now()
	evicted := 0
	var errs []error
	for _, e := range m.streams.Snapshot() {
		st := e.Value
		if now-st.access.Load() < int64(ttl) {
			continue
		}
		st.life.Lock()
		if !st.offloaded && !st.deleted && now-st.access.Load() >= int64(ttl) {
			if err := st.offloadLocked(store); err != nil {
				// Keep sweeping: one un-offloadable stream (its record's
				// disk quota, say) must not starve eviction for the rest
				// of the fleet.
				errs = append(errs, fmt.Errorf("dpmg: evict %q: %w", st.name, err))
			} else {
				evicted++
			}
		}
		st.life.Unlock()
	}
	return evicted, errors.Join(errs...)
}

// Evict forcibly offloads the named stream regardless of idleness,
// reporting whether this call performed the eviction (false when the
// stream does not exist or is already offloaded — offloading is
// idempotent). It waits for the stream's in-flight operations to drain.
// Requires an offload store (SetOffloadStore).
func (m *Manager) Evict(name string) (bool, error) {
	store := m.store()
	if store == nil {
		return false, fmt.Errorf("dpmg: Evict requires an offload store (SetOffloadStore)")
	}
	st, ok := m.streams.Get(name)
	if !ok {
		return false, nil
	}
	st.life.Lock()
	defer st.life.Unlock()
	if st.offloaded || st.deleted {
		return false, nil
	}
	if err := st.offloadLocked(store); err != nil {
		return false, fmt.Errorf("dpmg: evict %q: %w", name, err)
	}
	return true, nil
}

// FaultIn forcibly faults the named stream back into memory, reporting
// whether this call performed the fault-in (false when the stream does not
// exist or is already resident — fault-in is idempotent, mirroring Evict).
// It is the admin-surface counterpart of the transparent fault-in data
// operations perform: an operator pre-warming a tenant before a traffic
// wave, or probing whether an offload record is readable at all. Failures
// wrap ErrFaultIn. A successful fault-in stamps the idle clock so the TTL
// sweep does not immediately re-evict the stream it was asked to warm.
func (m *Manager) FaultIn(name string) (bool, error) {
	st, ok := m.streams.Get(name)
	if !ok {
		return false, nil
	}
	st.life.Lock()
	defer st.life.Unlock()
	if !st.offloaded || st.deleted {
		return false, nil
	}
	if err := st.faultInLocked(); err != nil {
		return false, err
	}
	st.touch(m.now())
	return true, nil
}

// RecoverOffloaded scans the offload store and registers an offloaded stub
// for every record whose name is not already resident, returning how many
// streams were recovered (including ones that replaced stale resident
// state). Call it once at startup, after RestoreManager and before
// serving traffic. Recovered streams stay on disk until first access.
//
// When a name exists both in the restored manager snapshot and in the
// store, the *strictly newer* state wins, judged on the stream's monotone
// counters (items ingested, summaries merged, releases admitted, budget
// spent): a stream evicted after the last periodic snapshot leaves a
// record newer than the snapshot, and ignoring it would resurrect
// already-spent privacy budget; conversely, a stream faulted in and
// mutated after its eviction leaves a record older than the snapshot (a
// stale shadow), which is skipped.
func (m *Manager) RecoverOffloaded() (int, error) {
	store := m.store()
	if store == nil {
		return 0, fmt.Errorf("dpmg: RecoverOffloaded requires an offload store (SetOffloadStore)")
	}
	names, err := store.List()
	if err != nil {
		return 0, err
	}
	recovered := 0
	for _, name := range names {
		data, err := store.Load(name)
		if err != nil {
			return recovered, fmt.Errorf("dpmg: recover %q: %w", name, err)
		}
		w, err := encoding.DecodeStream(data)
		if err != nil {
			return recovered, fmt.Errorf("dpmg: recover %q: %w", name, err)
		}
		if w.Name != name {
			return recovered, fmt.Errorf("dpmg: recover %q: record is for stream %q", name, w.Name)
		}
		if res, ok := m.streams.Get(name); ok {
			if !recordNewer(res, w) {
				continue // resident state is current; record is a stale shadow
			}
			// The record post-dates the restored snapshot (evicted after
			// the last flush, then crashed): the resident copy would
			// resurrect spent budget and drop ingested data. Startup is
			// single-threaded, so a plain replace is safe.
			m.streams.Delete(name)
		}
		st, err := restoreStreamStub(m, w)
		if err != nil {
			return recovered, fmt.Errorf("dpmg: recover %q: %w", name, err)
		}
		if _, created, err := m.streams.GetOrCreate(name, func() (*Stream, error) { return st, nil }); err != nil {
			return recovered, err
		} else if created {
			recovered++
		}
	}
	return recovered, nil
}

// recordNewer reports whether an offload record strictly post-dates the
// resident stream's state. A stream's history is linear and these
// counters are monotone non-decreasing along it, so "newer" is simply
// "further along on any axis".
func recordNewer(res *Stream, w *encoding.StreamState) bool {
	_, spent, releases := res.acct.inner.State()
	return w.Ingested > res.ingested.Load() ||
		w.Nodes > res.Nodes() ||
		w.Releases > int64(releases) ||
		w.SpentEps > spent.Eps ||
		w.SpentDelta > spent.Delta
}

// acquire pins the stream resident for one data operation, returning with
// the lifecycle read lock held on success (the caller must RUnlock). If
// the stream is offloaded it is faulted back in first; the loop covers the
// rare window where an eviction slips between the fault-in and the
// re-acquisition of the read side.
func (s *Stream) acquire() error {
	for {
		s.life.RLock()
		if !s.offloaded {
			return nil
		}
		s.life.RUnlock()
		s.life.Lock()
		if s.offloaded {
			if err := s.faultInLocked(); err != nil {
				s.life.Unlock()
				return err
			}
		}
		s.life.Unlock()
	}
}

// coldScratch is the working storage of one evict or fault-in, pooled so
// the cold tier's steady state reuses it: the encoded record (OffloadStore
// does not keep Save's data argument), every shard's counter table as one
// pair of flat columns with the wires that slice them, and the tally's
// selection buffer. Scratch grown past maxPooledColumns entries (a routine
// 8-shard k=256 stream needs 2 048) or a record past maxPooledRecordBytes
// (a routine one is a few KB) is dropped rather than pooled, so one huge
// tenant cannot pin its size per P.
type coldScratch struct {
	rec   []byte
	keys  []Item
	vals  []int64
	wires []encoding.SketchWire
	ptrs  []*encoding.SketchWire
	sel   []int64
}

var coldScratchPool = sync.Pool{New: func() any { return new(coldScratch) }}

const (
	maxPooledRecordBytes = 1 << 20
	maxPooledColumns     = 1 << 16
)

func getColdScratch() *coldScratch { return coldScratchPool.Get().(*coldScratch) }

// putColdScratch returns sc to the pool. Its wires must not be used again:
// the next evict or fault-in overwrites the columns they slice.
func putColdScratch(sc *coldScratch) {
	if cap(sc.rec) <= maxPooledRecordBytes && cap(sc.keys) <= maxPooledColumns && cap(sc.sel) <= maxPooledColumns {
		coldScratchPool.Put(sc)
	}
}

// offloadLocked writes the stream's full durable state to store and drops
// the in-memory counter structures, leaving the stub. The lifecycle write
// lock must be held. Offloading an already-offloaded stream is a no-op
// (idempotent), and because the record encoding is canonical, a repeated
// offload of unchanged state writes byte-identical records.
//
// Each shard's counter table is copied out once, into pooled columns; the
// record is encoded from those columns, and the raw tier's stats tally is
// counted from them too, with no merge (see mergedLen).
func (s *Stream) offloadLocked(store OffloadStore) error {
	if s.offloaded || s.deleted {
		return nil
	}
	sc := getColdScratch()
	defer putColdScratch(sc)
	state, err := s.streamState(sc)
	if err != nil {
		return err
	}
	// Capture the live-counter tallies so Stats can be served from the
	// stub without touching the record.
	agg := 0
	if m := s.merged.Load(); m != nil {
		agg = m.Len()
	}
	var ingest int
	ingest, sc.sel = mergedLen(s.cfg.K, sc.vals, sc.sel)
	state.AggCounters, state.IngestCounters = agg, ingest
	if sc.rec, err = encoding.AppendStream(sc.rec[:0], &state); err != nil {
		return err
	}
	if err := store.Save(s.name, sc.rec); err != nil {
		return err
	}
	s.offAgg, s.offIngest = agg, ingest
	s.sharded.Store(nil)
	s.merged.Store(nil)
	s.offloaded = true
	s.evictions.Add(1)
	return nil
}

// faultInLocked reads the stream's offload record back and rebuilds the
// in-memory counter structures. The lifecycle write lock must be held. The
// record is left in place as a stale shadow (see the durability notes at
// the top of this file); bookkeeping and the accountant keep their live
// stub values, which are identical to the record's — nothing can mutate
// them while the stream is offloaded. The shard columns are decoded into
// pooled scratch, which the restored sketches copy.
func (s *Stream) faultInLocked() error {
	store := s.mgr.store()
	if store == nil {
		return fmt.Errorf("%w: stream %q is offloaded but the manager has no offload store", ErrFaultIn, s.name)
	}
	data, err := store.Load(s.name)
	if err != nil {
		return fmt.Errorf("%w: %q: %w", ErrFaultIn, s.name, err)
	}
	sc := getColdScratch()
	defer putColdScratch(sc)
	var w *encoding.StreamState
	w, sc.keys, sc.vals, err = encoding.DecodeStreamColumns(data, sc.keys[:0], sc.vals[:0])
	if err != nil {
		return fmt.Errorf("%w: %q: %w", ErrFaultIn, s.name, err)
	}
	if w.Name != s.name || w.K != s.cfg.K || w.Universe != s.cfg.Universe || w.Shards != s.cfg.Shards {
		return fmt.Errorf("%w: %q: record is for stream %q (k=%d, d=%d, shards=%d), want (k=%d, d=%d, shards=%d)",
			ErrFaultIn, s.name, w.Name, w.K, w.Universe, w.Shards, s.cfg.K, s.cfg.Universe, s.cfg.Shards)
	}
	sharded, err := shardedFromWires(s.cfg, w.ShardWires)
	if err != nil {
		return fmt.Errorf("%w: %q: %w", ErrFaultIn, s.name, err)
	}
	s.mu.Lock()
	s.merged.Store(w.Merged)
	s.mu.Unlock()
	s.sharded.Store(sharded)
	s.offloaded = false
	s.offAgg, s.offIngest = 0, 0
	s.faultIns.Add(1)
	return nil
}

// shardedFromWires rebuilds a stream's raw-ingest tier from decoded,
// validated per-shard Algorithm 1 states — the canonical reconstruction
// shared by manager-snapshot restore and fault-in. Each shard's sketch is
// built once, by mg.RestoreColumns, which copies the wire's columns.
func shardedFromWires(cfg StreamConfig, wires []*encoding.SketchWire) (*ShardedSketch, error) {
	sharded := newShardedSketch(cfg.Shards, cfg.K, cfg.Universe)
	sharded.SetPublishEvery(cfg.publishEvery())
	var total int64
	for i, sw := range wires {
		sk, err := mg.RestoreColumns(sw.K, sw.Universe, sw.N, sw.Decrements, sw.Keys, sw.Vals)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		sharded.shards[i].sk = sk
		total += sw.N
	}
	// Seed the lifetime item count so the published-view freshness gate
	// (view n == total) works for restored sketches too, then publish
	// synchronously: the constructor's empty view is exact only for an
	// empty sketch, and a restored generation must never serve behind
	// reads already answered by the generation it replaces.
	sharded.total.Store(total)
	if err := sharded.Publish(); err != nil {
		return nil, err
	}
	return sharded, nil
}

// touch stamps the stream's idle clock. Data operations touch; Stats and
// the metrics scrape deliberately do not, so observability never keeps a
// stream hot.
func (s *Stream) touch(now int64) {
	s.access.Store(now)
}

// Resident reports whether the stream's counter structures are in memory
// (true) or offloaded to the store (false).
func (s *Stream) Resident() bool {
	s.life.RLock()
	defer s.life.RUnlock()
	return !s.offloaded
}

// Deleted reports whether the stream has been removed from its manager.
// A *Stream handle obtained before a DeleteStream keeps operating on the
// orphaned state (see DeleteStream); holders of long-lived handles — the
// streaming ingest path's sticky per-connection binding — use this to
// detect the tombstone and stop routing data into state nobody can ever
// release from. Because DeleteStream sets the tombstone under the
// exclusive lifecycle lock, a data operation that completed before a
// Deleted()==false read cannot have run after the delete.
func (s *Stream) Deleted() bool {
	s.life.RLock()
	defer s.life.RUnlock()
	return s.deleted
}

// LifecycleCounters are a stream's process-lifetime lifecycle and QoS
// tallies, for observability. They are not part of the durable state: like
// any Prometheus-style counters they restart from zero with the process.
type LifecycleCounters struct {
	Evictions         int64 // times this stream was offloaded
	FaultIns          int64 // times this stream was faulted back in
	ThrottledIngest   int64 // ingest calls refused by the rate ceiling
	ThrottledReleases int64 // releases refused by the in-flight ceiling
}

// Lifecycle returns the stream's lifecycle and QoS counters. Reading them
// does not touch the idle clock.
func (s *Stream) Lifecycle() LifecycleCounters {
	return LifecycleCounters{
		Evictions:         s.evictions.Load(),
		FaultIns:          s.faultIns.Load(),
		ThrottledIngest:   s.throttledIngest.Load(),
		ThrottledReleases: s.throttledReleases.Load(),
	}
}
