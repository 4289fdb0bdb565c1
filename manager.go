package dpmg

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dpmg/internal/accountant"
	"dpmg/internal/encoding"
	"dpmg/internal/merge"
	"dpmg/internal/qos"
	"dpmg/internal/registry"
)

// ErrStreamEmpty is returned (wrapped) when a release is requested from a
// managed stream that has ingested no summaries and no raw items yet; test
// with errors.Is. It is a state error, not a calibration error — no budget
// is ever spent on it.
var ErrStreamEmpty = errors.New("dpmg: stream has no ingested data")

// ErrStreamConflict is wrapped by CreateStream when the named stream
// already exists with a different configuration, and by DeleteStream when
// the named stream has operations in flight; test with errors.Is.
var ErrStreamConflict = errors.New("dpmg: stream conflict")

// StreamConfig fixes one managed stream's parameters at creation time. The
// zero value of any field means "inherit the manager default" in
// CreateStream; a fully resolved config is immutable for the stream's
// lifetime (it is part of the durable snapshot).
type StreamConfig struct {
	// K is the summary size: k counters, sketch error N/(k+1).
	K int
	// Universe bounds the stream's item universe [1, Universe].
	Universe uint64
	// Shards is the raw-ingest parallelism (ShardedSketch shards). Zero
	// inherits the default; creation resolves zero defaults to
	// min(GOMAXPROCS, 16) and the resolved value is what persists.
	Shards int
	// Mechanism names the default release mechanism in the dpmg registry
	// ("gaussian", "laplace", ...). Empty selects the sensitivity-class
	// default at release time (gaussian, for the merged class every managed
	// stream has).
	Mechanism string
	// Budget is the stream's total privacy allowance. Each stream owns an
	// independent Accountant: tenants never share an (eps, delta) account.
	Budget Budget

	// The QoS ceilings below are operational policy, not stream identity:
	// they are never part of the durable snapshot (a restarted deployment
	// re-applies its current configuration) and never conflict-checked by
	// CreateStream. For each, zero inherits the manager default and a
	// negative value means explicitly unlimited.

	// MaxIngestRate caps the stream's raw-item ingest in items/second,
	// enforced with a per-stream lock-free token bucket: one CAS on the
	// batch path, so the zero-allocation ingest property is preserved.
	// Rejected batches wrap ErrRateLimited and ingest nothing.
	MaxIngestRate float64
	// IngestBurst is the token bucket's tolerance in items. Zero inherits
	// the manager default; if that is also unset the burst defaults to one
	// second of MaxIngestRate. A single batch larger than the burst can
	// never be admitted — size it to at least the largest batch accepted.
	IngestBurst int
	// MaxInflightReleases caps the stream's concurrently running release
	// calls (each release folds shards and draws noise — a tenant looping
	// releases must not monopolize the aggregator's cores). Rejected
	// releases wrap ErrReleaseBusy and spend no budget.
	MaxInflightReleases int

	// PublishEvery is the stream's read-view republish threshold in
	// ingested items: every PublishEvery items a background fold refreshes
	// the published snapshot Estimate/N/Stats serve from (see the
	// ShardedSketch "Published read path" notes). Like the QoS ceilings it
	// is operational policy, not stream identity: never persisted, never
	// conflict-checked. Zero inherits the manager default (which itself
	// defaults to DefaultPublishEvery); negative disables volume-triggered
	// publishing — release-time folds still refresh the view.
	PublishEvery int64
	// PublishInterval is the time-based republish trigger: an ingest
	// arriving more than PublishInterval after the last timed republish
	// kicks one off, so low-volume streams still converge to fresh reads.
	// Zero inherits the manager default (which itself defaults to
	// DefaultPublishInterval); negative disables the timer. Operational
	// policy, like PublishEvery.
	PublishInterval time.Duration
}

// DefaultPublishInterval is the time-based republish trigger when none is
// configured: a low-volume stream's published reads converge within about
// a second of its last write burst.
const DefaultPublishInterval = time.Second

// publishEvery resolves the effective volume threshold (0 = disabled).
func (c StreamConfig) publishEvery() int64 {
	switch {
	case c.PublishEvery < 0:
		return 0
	case c.PublishEvery > 0:
		return c.PublishEvery
	}
	return DefaultPublishEvery
}

// publishInterval resolves the effective timed trigger (0 = disabled).
func (c StreamConfig) publishInterval() time.Duration {
	switch {
	case c.PublishInterval < 0:
		return 0
	case c.PublishInterval > 0:
		return c.PublishInterval
	}
	return DefaultPublishInterval
}

// withDefaults fills zero fields from d.
func (c StreamConfig) withDefaults(d StreamConfig) StreamConfig {
	if c.K == 0 {
		c.K = d.K
	}
	if c.Universe == 0 {
		c.Universe = d.Universe
	}
	if c.Shards == 0 {
		c.Shards = d.Shards
	}
	if c.Mechanism == "" {
		c.Mechanism = d.Mechanism
	}
	// Budget components inherit individually, like every other field: a
	// request that sets only eps still gets the default delta (and vice
	// versa). A deliberate delta of exactly 0 is not expressible through
	// defaulting — configure the manager default to 0 instead.
	if c.Budget.Eps == 0 {
		c.Budget.Eps = d.Budget.Eps
	}
	if c.Budget.Delta == 0 {
		c.Budget.Delta = d.Budget.Delta
	}
	if c.MaxIngestRate == 0 {
		c.MaxIngestRate = d.MaxIngestRate
	}
	if c.IngestBurst == 0 {
		c.IngestBurst = d.IngestBurst
	}
	if c.MaxInflightReleases == 0 {
		c.MaxInflightReleases = d.MaxInflightReleases
	}
	return c
}

// Resource ceilings a single stream config may request. Stream creation is
// reachable from untrusted input (the server's POST /v1/streams), so the
// per-stream allocation — shards × k counter slots — must be bounded by
// validation, not by the operator's good faith: without a ceiling one
// small JSON request could commit gigabytes. The caps are far above any
// useful sketch (the paper's k is in the hundreds; error is N/(k+1)) while
// keeping the worst single stream in the tens-of-MB range. Tenant quotas
// and authentication remain the deployment's job.
const (
	// MaxStreamK bounds one stream's summary size.
	MaxStreamK = 1 << 20
	// MaxStreamShards bounds one stream's raw-ingest parallelism.
	MaxStreamShards = 1 << 10
	// maxStreamSlots bounds the product shards × k (total counter slots).
	maxStreamSlots = 1 << 22
)

// validate checks a fully resolved config.
func (c StreamConfig) validate() error {
	if c.K <= 0 || c.K > MaxStreamK {
		return fmt.Errorf("dpmg: stream k %d outside [1, %d]", c.K, MaxStreamK)
	}
	if c.Universe == 0 {
		return fmt.Errorf("dpmg: stream universe must be positive")
	}
	// Algorithm 1's dummy keys are d+1..d+k, so they must fit in 64 bits.
	if c.Universe > math.MaxUint64-uint64(c.K) {
		return fmt.Errorf("dpmg: stream universe %d leaves no room for k=%d dummy keys below 2^64 (max %d)",
			c.Universe, c.K, uint64(math.MaxUint64)-uint64(c.K))
	}
	if c.Shards <= 0 || c.Shards > MaxStreamShards {
		return fmt.Errorf("dpmg: stream shards %d outside [1, %d]", c.Shards, MaxStreamShards)
	}
	if slots := c.Shards * c.K; slots > maxStreamSlots {
		return fmt.Errorf("dpmg: stream footprint %d counter slots (shards %d × k %d) exceeds %d",
			slots, c.Shards, c.K, maxStreamSlots)
	}
	if c.Mechanism != "" {
		if _, ok := MechanismByName(c.Mechanism); !ok {
			return fmt.Errorf("dpmg: unknown default mechanism %q (registered: %v)", c.Mechanism, Mechanisms())
		}
	}
	if math.IsNaN(c.MaxIngestRate) || math.IsInf(c.MaxIngestRate, 0) {
		return fmt.Errorf("dpmg: stream ingest rate must be finite, got %v", c.MaxIngestRate)
	}
	return nil
}

// defaultShards resolves the zero Shards default once, at creation: ingest
// parallelism up to the machine width, capped so tiny streams do not pay a
// 16-way merge at every release. The resolved value is persisted, so a
// snapshot restored on different hardware keeps its original sharding (and
// therefore its exact estimates).
func defaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	return n
}

// validateStreamName enforces the manager's naming rules: 1..128 characters
// of [a-zA-Z0-9._-], starting with a letter or digit — safe in URL paths,
// file names, and the snapshot wire format.
func validateStreamName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("dpmg: stream name length %d outside [1, 128]", len(name))
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '.' || c == '_' || c == '-') && i > 0:
		default:
			return fmt.Errorf("dpmg: stream name %q: character %q at %d not allowed (want [a-zA-Z0-9._-], leading alphanumeric)", name, c, i)
		}
	}
	return nil
}

// Manager is the multi-tenant stream layer of the Section 7 distributed
// setting: a registry of named streams, each an independent edge population
// with its own universe, sketch state, and (eps, delta) account — the
// C-POD edge-pod boundary as a first-class object instead of N separate
// processes. It is safe for concurrent use, and deliberately has no global
// mutex: stream lookup is lock-striped (internal/registry), so ingest into
// one stream never contends with ingest into another, and within a stream
// the raw-ingest path is sharded (ShardedSketch).
//
// The manager's full state — stream table, per-stream counters, remaining
// budgets — serializes with Snapshot and resumes with RestoreManager, so a
// restarted aggregator continues every tenant with identical estimates,
// identical seeded releases, and exactly the budget it went down with.
type Manager struct {
	defaults StreamConfig
	streams  *registry.Table[*Stream]

	// nowFn is the lifecycle clock (nanoseconds, monotone enough for idle
	// tracking); overridable in tests for deterministic eviction.
	nowFn func() int64

	// offMu guards the offload store attachment (set once, read rarely —
	// only on evict/fault-in, never on the resident hot path).
	offMu   sync.RWMutex
	offload OffloadStore
}

// NewManager returns an empty manager. defaults supplies the per-stream
// config fields CreateStream callers leave zero; it must itself resolve to
// a valid config (K, Universe, and Budget set; Shards zero means
// min(GOMAXPROCS, 16)).
func NewManager(defaults StreamConfig) (*Manager, error) {
	if defaults.Shards == 0 {
		defaults.Shards = defaultShards()
	}
	if err := defaults.validate(); err != nil {
		return nil, fmt.Errorf("dpmg: manager defaults: %w", err)
	}
	if err := defaults.Budget.valid(); err != nil {
		return nil, fmt.Errorf("dpmg: manager defaults: %w", err)
	}
	// The lifecycle clock is monotone, not wall time: idle TTLs and token
	// buckets must not jump on NTP steps (a backward step would blanket-
	// refuse rate-limited streams; a forward step larger than the TTL
	// would evict the whole fleet at once). time.Since reads the runtime's
	// monotonic reading.
	start := time.Now()
	return &Manager{
		defaults: defaults,
		streams:  registry.New[*Stream](0),
		nowFn:    func() int64 { return int64(time.Since(start)) },
	}, nil
}

// now reads the manager's lifecycle clock.
func (m *Manager) now() int64 { return m.nowFn() }

// Defaults returns the manager's default stream config.
func (m *Manager) Defaults() StreamConfig { return m.defaults }

// CreateStream creates the named stream, or returns the existing one when
// the request is compatible with it (idempotent create: retried requests
// and racing replicas converge on one stream). Compatibility is judged on
// the fields the caller set explicitly — zero fields mean "whatever the
// stream has", so a defaults-only retry stays idempotent even if the
// manager defaults changed between the calls (new flags, different
// hardware resolving a different shard default). An explicitly requested
// field that contradicts the existing stream wraps ErrStreamConflict.
// created reports whether this call performed the creation.
func (m *Manager) CreateStream(name string, cfg StreamConfig) (st *Stream, created bool, err error) {
	if err := validateStreamName(name); err != nil {
		return nil, false, err
	}
	resolved := cfg.withDefaults(m.defaults)
	if err := resolved.validate(); err != nil {
		return nil, false, err
	}
	st, created, err = m.streams.GetOrCreate(name, func() (*Stream, error) {
		return newStream(m, name, resolved)
	})
	if err != nil {
		return nil, false, err
	}
	if !created {
		if err := st.cfg.conflict(name, cfg); err != nil {
			return nil, false, err
		}
	}
	return st, created, nil
}

// conflict reports how the explicitly requested fields of r contradict the
// existing config c; zero fields of r never conflict (they inherit), and
// the QoS ceilings never conflict at all — they are operational policy,
// not stream identity.
func (c StreamConfig) conflict(name string, r StreamConfig) error {
	disagree := func(field string, want, have any) error {
		return fmt.Errorf("%w: %q has %s=%v, requested %v", ErrStreamConflict, name, field, have, want)
	}
	switch {
	case r.K != 0 && r.K != c.K:
		return disagree("k", r.K, c.K)
	case r.Universe != 0 && r.Universe != c.Universe:
		return disagree("universe", r.Universe, c.Universe)
	case r.Shards != 0 && r.Shards != c.Shards:
		return disagree("shards", r.Shards, c.Shards)
	case r.Mechanism != "" && r.Mechanism != c.Mechanism:
		return disagree("mechanism", r.Mechanism, c.Mechanism)
	case r.Budget.Eps != 0 && r.Budget.Eps != c.Budget.Eps:
		return disagree("budget eps", r.Budget.Eps, c.Budget.Eps)
	case r.Budget.Delta != 0 && r.Budget.Delta != c.Budget.Delta:
		return disagree("budget delta", r.Budget.Delta, c.Budget.Delta)
	}
	return nil
}

// Stream returns the named stream, if it exists.
func (m *Manager) Stream(name string) (*Stream, bool) {
	return m.streams.Get(name)
}

// Streams returns all streams in ascending name order.
func (m *Manager) Streams() []*Stream {
	entries := m.streams.Snapshot()
	out := make([]*Stream, len(entries))
	for i, e := range entries {
		out[i] = e.Value
	}
	return out
}

// DeleteStream removes the named stream from the manager, reporting
// whether it was deleted. A stream with any operation in flight — a
// release drawing noise, a batch mid-ingest, an eviction — is never
// deleted out from under it: DeleteStream try-acquires the stream's
// exclusive lifecycle lock atomically with the registry removal
// (registry.DeleteIf holds the stripe lock across the attempt) and
// deterministically returns an error wrapping ErrStreamConflict instead of
// racing the in-flight view. Retry once the stream is quiet.
//
// Deletion drops the stream's state, its offload record (if any), and its
// spent-budget record. A *Stream handle obtained before the delete keeps
// operating on the orphaned state; deleting and re-creating a name starts
// a fresh privacy account — callers own the composition argument across
// that boundary.
func (m *Manager) DeleteStream(name string) (bool, error) {
	store := m.store()
	var storeErr error
	_, existed, deleted := m.streams.DeleteIf(name, func(st *Stream) bool {
		if !st.life.TryLock() {
			return false
		}
		// Tombstone under the held write lock: an eviction sweep that
		// grabbed this *Stream before the removal must not offload it
		// afterwards. The offload record is removed here too, while the
		// stripe write lock still excludes CreateStream — deferring it past
		// DeleteIf would let a recreate-then-evict of the same name slip a
		// fresh record into the window and have this delete destroy it,
		// stranding the new stream offloaded with nothing to fault in from.
		st.deleted = true
		if store != nil {
			storeErr = store.Delete(name)
		}
		st.life.Unlock()
		return true
	})
	if !existed {
		return false, nil
	}
	if !deleted {
		return false, fmt.Errorf("%w: cannot delete %q with operations in flight", ErrStreamConflict, name)
	}
	if storeErr != nil {
		return true, fmt.Errorf("dpmg: delete %q: removing offload record: %w", name, storeErr)
	}
	return true, nil
}

// Len returns the number of managed streams.
func (m *Manager) Len() int { return m.streams.Len() }

// Snapshot writes the manager's full durable state — the stream table with
// each stream's config, bookkeeping, accountant balance, merged node
// aggregate, and every raw-ingest shard's full Algorithm 1 counter state —
// in the versioned binary format of internal/encoding (KindManager).
// Snapshots are canonical (equal states serialize to equal bytes) and as
// sensitive as the raw streams: they hold un-noised counters and must stay
// inside the trust boundary.
//
// Snapshot may run concurrently with ingest: each stream (and each shard
// within it) is read under its own lock at a slightly different instant,
// exactly like a release racing writers. Updates completed before the call
// began are always included; the snapshot of each stream is internally
// consistent per shard. For a byte-exact quiescent image (the shutdown
// flush), stop writers first.
//
// Offloaded streams are skipped: their offload records are the durable
// truth, and including them would fault every idle tenant back into RAM on
// each periodic flush. A full restart therefore restores in two steps —
// RestoreManager for this snapshot, then RecoverOffloaded for the rest.
func (m *Manager) Snapshot(w io.Writer) error {
	entries := m.streams.Snapshot()
	states := make([]encoding.StreamState, 0, len(entries))
	for _, e := range entries {
		st, err := e.Value.snapshotState()
		if errors.Is(err, errStreamOffloaded) {
			continue
		}
		if err != nil {
			return fmt.Errorf("dpmg: snapshot stream %q: %w", e.Name, err)
		}
		states = append(states, st)
	}
	return encoding.MarshalManager(w, states)
}

// RestoreManager reads a Snapshot back into a live manager, validating the
// header and every nested structure so corrupted or foreign bytes fail
// loudly instead of resuming garbage. defaults plays the same role as in
// NewManager — it configures streams created after the restore; the
// restored streams keep their own persisted configs. The restored manager
// is behaviorally identical to the snapshotted one: same estimates, same
// remaining budgets, byte-identical releases under the same seed, and the
// same response to any continuation of every stream.
func RestoreManager(r io.Reader, defaults StreamConfig) (*Manager, error) {
	states, err := encoding.UnmarshalManager(r)
	if err != nil {
		return nil, err
	}
	m, err := NewManager(defaults)
	if err != nil {
		return nil, err
	}
	for i := range states {
		st, err := restoreStream(m, &states[i])
		if err != nil {
			return nil, err
		}
		if _, _, err := m.streams.GetOrCreate(st.name, func() (*Stream, error) { return st, nil }); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Stream is one managed tenant: a raw-ingest ShardedSketch, a merged
// aggregate of shipped node summaries, and a private Accountant, all under
// the config fixed at creation. Every method is safe for concurrent use;
// two streams share no synchronization at all.
//
// A stream's releases carry merged (Corollary 18) sensitivity — raw items
// and node summaries funnel through the same bounded-memory Agarwal et al.
// aggregate — so the gaussian mechanism is the class default.
//
// A stream is either resident (counters in RAM) or offloaded (counters in
// the manager's OffloadStore, stub in RAM); data operations on an
// offloaded stream fault it back in transparently. See lifecycle.go for
// the eviction/offload model and Resident, Lifecycle, and Manager.EvictIdle.
type Stream struct {
	name string
	cfg  StreamConfig
	// sharded is the raw-ingest tier. It is an atomic pointer, not a plain
	// field, so the published read path (Estimate) can reach the current
	// sketch's epoch snapshot without the lifecycle lock; eviction stores
	// nil, CutSummary swaps in a fresh sketch. All mutation still happens
	// under the lifecycle interlock — the atomic is for lock-free readers.
	sharded atomic.Pointer[ShardedSketch]
	acct    *Accountant
	mgr     *Manager

	batches  atomic.Int64
	ingested atomic.Int64

	mu     sync.Mutex                    // guards nodes and merged writers
	merged atomic.Pointer[merge.Summary] // node aggregate; immutable values, lock-free loads
	nodes  int64

	// Reusable fold scratch for FoldSummary (guarded by mu): the merger
	// amortizes its working arrays across folds, and foldIn avoids a
	// per-fold input-slice allocation. The merger's output is never
	// published directly — FoldSummary clones it — so the scratch never
	// aliases a value a lock-free reader could hold.
	foldMerger merge.Merger
	foldIn     [2]*merge.Summary

	// Lifecycle state. life is the residency interlock: data operations
	// hold the read side, eviction/fault-in/deletion hold the write side.
	// offloaded, deleted, offAgg, and offIngest are guarded by life;
	// access is the idle clock (manager clock nanoseconds at last data
	// access). deleted is the tombstone DeleteStream sets so an eviction
	// sweep holding a stale handle can never write a fresh offload record
	// for a stream the tenant just deleted (which the next recovery would
	// resurrect, counters and all).
	life      sync.RWMutex
	offloaded bool
	deleted   bool
	offAgg    int // aggregate-tier live counters captured at offload
	offIngest int // raw-tier live counters captured at offload
	access    atomic.Int64

	// Published-read policy: pubInterval is the resolved timed republish
	// trigger (0 = disabled); lastPub is the manager-clock instant of the
	// last timed republish, CAS-claimed so exactly one ingest per lapsed
	// interval pays the (background) fold.
	pubInterval time.Duration
	lastPub     atomic.Int64

	// QoS admission (nil = unlimited) and observability counters.
	bucket            *qos.Bucket
	gate              *qos.Gate
	evictions         atomic.Int64
	faultIns          atomic.Int64
	throttledIngest   atomic.Int64
	throttledReleases atomic.Int64
}

// qosBurst resolves a config's effective token-bucket burst: the
// configured burst, defaulting to one second of the configured rate. A
// negative burst means explicitly unlimited tolerance — any single batch
// is admitted and only the long-run rate is enforced (the bucket's
// window saturates rather than overflows).
func (c StreamConfig) qosBurst() int {
	if c.IngestBurst < 0 {
		return math.MaxInt32
	}
	if c.IngestBurst > 0 {
		return c.IngestBurst
	}
	if c.MaxIngestRate >= 1 {
		return int(c.MaxIngestRate)
	}
	return 1
}

// newSharded builds a fresh raw-ingest sketch for cfg with the stream's
// publish policy applied — the fresh construction sites (create, cut
// reset) go through here and the restoring ones (restore, fault-in)
// through shardedFromWires, which applies the same policy, so no sketch
// ever runs with the wrong republish threshold.
func newSharded(cfg StreamConfig) *ShardedSketch {
	sh := NewShardedSketch(cfg.Shards, cfg.K, cfg.Universe)
	sh.SetPublishEvery(cfg.publishEvery())
	return sh
}

// newStream builds a fresh stream from a resolved, validated config.
func newStream(m *Manager, name string, cfg StreamConfig) (*Stream, error) {
	acct, err := NewAccountant(cfg.Budget)
	if err != nil {
		return nil, err
	}
	st := &Stream{
		name:        name,
		cfg:         cfg,
		acct:        acct,
		mgr:         m,
		pubInterval: cfg.publishInterval(),
		bucket:      qos.NewBucket(cfg.MaxIngestRate, cfg.qosBurst()),
		gate:        qos.NewGate(cfg.MaxInflightReleases),
	}
	st.sharded.Store(newSharded(cfg))
	st.access.Store(m.now())
	st.lastPub.Store(m.now())
	return st, nil
}

// restoredCfg rebuilds and validates a stream config from its snapshot
// record, re-applying the manager's current QoS defaults — QoS ceilings
// are operational policy and deliberately not persisted.
func restoredCfg(m *Manager, w *encoding.StreamState) (StreamConfig, error) {
	if err := validateStreamName(w.Name); err != nil {
		return StreamConfig{}, err
	}
	cfg := StreamConfig{
		K: w.K, Universe: w.Universe, Shards: w.Shards,
		Mechanism:           w.Mechanism,
		Budget:              Budget{Eps: w.BudgetEps, Delta: w.BudgetDelta},
		MaxIngestRate:       m.defaults.MaxIngestRate,
		IngestBurst:         m.defaults.IngestBurst,
		MaxInflightReleases: m.defaults.MaxInflightReleases,
		PublishEvery:        m.defaults.PublishEvery,
		PublishInterval:     m.defaults.PublishInterval,
	}
	if err := cfg.validate(); err != nil {
		return StreamConfig{}, fmt.Errorf("dpmg: restore stream %q: %w", w.Name, err)
	}
	return cfg, nil
}

// restoredAcct rebuilds a stream's accountant from its snapshot record.
func restoredAcct(w *encoding.StreamState) (*Accountant, error) {
	inner, err := accountant.Restore(
		accountant.Budget{Eps: w.BudgetEps, Delta: w.BudgetDelta},
		accountant.Budget{Eps: w.SpentEps, Delta: w.SpentDelta},
		int(w.Releases),
	)
	if err != nil {
		return nil, fmt.Errorf("dpmg: restore stream %q: %w", w.Name, err)
	}
	return &Accountant{inner: inner}, nil
}

// restoreStream rebuilds a resident stream from its snapshot record.
func restoreStream(m *Manager, w *encoding.StreamState) (*Stream, error) {
	cfg, err := restoredCfg(m, w)
	if err != nil {
		return nil, err
	}
	acct, err := restoredAcct(w)
	if err != nil {
		return nil, err
	}
	sharded, err := shardedFromWires(cfg, w.ShardWires)
	if err != nil {
		return nil, fmt.Errorf("dpmg: restore stream %q: %w", w.Name, err)
	}
	st := &Stream{
		name:        w.Name,
		cfg:         cfg,
		acct:        acct,
		mgr:         m,
		nodes:       w.Nodes,
		pubInterval: cfg.publishInterval(),
		bucket:      qos.NewBucket(cfg.MaxIngestRate, cfg.qosBurst()),
		gate:        qos.NewGate(cfg.MaxInflightReleases),
	}
	st.sharded.Store(sharded)
	st.merged.Store(w.Merged)
	st.batches.Store(w.Batches)
	st.ingested.Store(w.Ingested)
	st.access.Store(m.now())
	st.lastPub.Store(m.now())
	return st, nil
}

// restoreStreamStub rebuilds a stream from its offload record as an
// offloaded stub: config, accountant, bookkeeping, and the captured
// counter tallies stay in RAM; the counters themselves stay on disk until
// first access faults them in.
func restoreStreamStub(m *Manager, w *encoding.StreamState) (*Stream, error) {
	cfg, err := restoredCfg(m, w)
	if err != nil {
		return nil, err
	}
	acct, err := restoredAcct(w)
	if err != nil {
		return nil, err
	}
	st := &Stream{
		name:        w.Name,
		cfg:         cfg,
		acct:        acct,
		mgr:         m,
		nodes:       w.Nodes,
		offloaded:   true,
		offAgg:      w.AggCounters,
		offIngest:   w.IngestCounters,
		pubInterval: cfg.publishInterval(),
		bucket:      qos.NewBucket(cfg.MaxIngestRate, cfg.qosBurst()),
		gate:        qos.NewGate(cfg.MaxInflightReleases),
	}
	st.batches.Store(w.Batches)
	st.ingested.Store(w.Ingested)
	st.access.Store(m.now())
	st.lastPub.Store(m.now())
	return st, nil
}

// snapshotState captures the stream's durable state for Manager.Snapshot,
// reporting errStreamOffloaded for streams whose durable truth is their
// offload record.
func (s *Stream) snapshotState() (encoding.StreamState, error) {
	s.life.RLock()
	defer s.life.RUnlock()
	if s.offloaded {
		return encoding.StreamState{}, errStreamOffloaded
	}
	// Every record of the snapshot stays live until the table is
	// marshaled, so each gets scratch of its own.
	return s.streamState(new(coldScratch))
}

// streamState captures the stream's durable state, with the shard counter
// tables copied into sc (see ShardedSketch.shardWires); the returned
// record's ShardWires alias sc. The caller must hold the lifecycle lock
// (either side) with the stream resident.
func (s *Stream) streamState(sc *coldScratch) (encoding.StreamState, error) {
	wires, err := s.sharded.Load().shardWires(sc)
	if err != nil {
		return encoding.StreamState{}, err
	}
	s.mu.Lock()
	merged := s.merged.Load() // immutable once published; safe to serialize unlocked
	nodes := s.nodes
	s.mu.Unlock()
	// One locked read for the whole account: a spend racing the snapshot
	// is either fully in (charge and release count) or fully out, never a
	// torn record that would under-count privacy spend after a restore.
	_, spent, releases := s.acct.inner.State()
	return encoding.StreamState{
		Name: s.name, K: s.cfg.K, Universe: s.cfg.Universe, Shards: s.cfg.Shards,
		Mechanism: s.cfg.Mechanism,
		BudgetEps: s.cfg.Budget.Eps, BudgetDelta: s.cfg.Budget.Delta,
		SpentEps: spent.Eps, SpentDelta: spent.Delta,
		Releases: int64(releases),
		Nodes:    nodes, Batches: s.batches.Load(), Ingested: s.ingested.Load(),
		Merged:     merged,
		ShardWires: wires,
	}, nil
}

// Name returns the stream's registry name.
func (s *Stream) Name() string { return s.name }

// Config returns the stream's resolved, immutable config.
func (s *Stream) Config() StreamConfig { return s.cfg }

// Ingested returns the number of raw items ingested so far.
func (s *Stream) Ingested() int64 { return s.ingested.Load() }

// Batches returns the number of raw batches ingested so far.
func (s *Stream) Batches() int64 { return s.batches.Load() }

// Nodes returns the number of node summaries merged so far.
func (s *Stream) Nodes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodes
}

// Accountant returns the stream's private budget account, for callers that
// meter ad-hoc releases of related data against the same allowance.
func (s *Stream) Accountant() *Accountant { return s.acct }

// Update ingests one raw element, rejecting items outside [1, Universe]
// (the universe bound is load-bearing: dummy keys live just above it) and
// items beyond the stream's ingest rate ceiling (wrapping ErrRateLimited).
// An offloaded stream is faulted back in first.
func (s *Stream) Update(x Item) error {
	if x == 0 || uint64(x) > s.cfg.Universe {
		return fmt.Errorf("dpmg: stream %q: item %d outside universe [1, %d]", s.name, x, s.cfg.Universe)
	}
	now := s.mgr.now()
	if !s.bucket.Allow(1, now) {
		s.throttledIngest.Add(1)
		return fmt.Errorf("%w: stream %q", ErrRateLimited, s.name)
	}
	if err := s.acquire(); err != nil {
		// Nothing was ingested: hand the admitted token back so a stream
		// with a broken offload record is not also rate-limited on retry.
		s.bucket.Refund(1)
		return err
	}
	defer s.life.RUnlock()
	s.touch(now)
	s.sharded.Load().Update(x)
	s.ingested.Add(1)
	s.maybeTimedPublish(now)
	return nil
}

// UpdateBatch ingests a raw item batch: every item is validated against the
// universe before any is applied (a bad item mid-batch cannot leave a
// half-ingested batch), then the whole batch is admitted against the
// stream's ingest rate ceiling as one unit — a rejected batch (wrapping
// ErrRateLimited) consumes no tokens and ingests nothing — and finally the
// batch runs on the sharded sketch's grouped hot path. An offloaded stream
// is faulted back in first (after validation and admission, so throttled
// tenants cause no disk traffic; a failed fault-in refunds the admitted
// tokens, since nothing was ingested). Safe for concurrent use; batches on
// different streams share no locks at all, and the admitted path performs
// no allocation beyond the sketch's own pooled scratch.
func (s *Stream) UpdateBatch(xs []Item) error {
	for _, x := range xs {
		if x == 0 || uint64(x) > s.cfg.Universe {
			return fmt.Errorf("dpmg: stream %q: item %d outside universe [1, %d]", s.name, x, s.cfg.Universe)
		}
	}
	if len(xs) == 0 {
		return nil
	}
	now := s.mgr.now()
	if !s.bucket.Allow(len(xs), now) {
		s.throttledIngest.Add(1)
		return fmt.Errorf("%w: stream %q: batch of %d items", ErrRateLimited, s.name, len(xs))
	}
	if err := s.acquire(); err != nil {
		// Nothing was ingested: hand the admitted tokens back so a stream
		// with a broken offload record is not also rate-limited on retry.
		s.bucket.Refund(len(xs))
		return err
	}
	defer s.life.RUnlock()
	s.touch(now)
	s.sharded.Load().UpdateBatch(xs)
	s.batches.Add(1)
	s.ingested.Add(int64(len(xs)))
	s.maybeTimedPublish(now)
	return nil
}

// maybeTimedPublish kicks one background republish when the timed trigger
// has lapsed, so a low-volume stream's published view converges without
// ever reaching the volume threshold. The CAS claims the interval for
// exactly one ingest; the fold runs on its own goroutine against the
// sketch pointer captured here (a concurrent cut or evict at worst folds
// an orphaned sketch once). Called with the stream resident.
func (s *Stream) maybeTimedPublish(now int64) {
	if s.pubInterval <= 0 {
		return
	}
	last := s.lastPub.Load()
	if now-last < int64(s.pubInterval) || !s.lastPub.CompareAndSwap(last, now) {
		return
	}
	if sh := s.sharded.Load(); sh != nil {
		go func() { _ = sh.Publish() }()
	}
}

// FoldSummary folds one shipped node summary into the stream's bounded
// aggregate with the Agarwal et al. merge: the stream never holds more than
// 2k counters for its node tier, no matter how many edges report. Node
// summaries are not rate limited (the ceiling governs raw items); an
// offloaded stream is faulted back in first. It is the stream's one fold,
// with one ownership contract: the caller's storage is never retained, so
// the summary's backing slices may be reused the moment it returns. That is
// what the aggregation root's zero-allocation decode path needs — it
// decodes every frame into per-connection scratch and rebinds a single
// reusable summary over it. The fold runs on a per-stream reusable merger
// and publishes a fresh compact clone (two allocations at steady state);
// the clone, not the merger scratch, is what Estimate's lock-free readers
// and CutSummary's ownership transfer see, so reuse never races them.
func (s *Stream) FoldSummary(sum *MergeableSummary) error {
	if sum.K() != s.cfg.K {
		return fmt.Errorf("dpmg: stream %q: summary k=%d, stream requires k=%d", s.name, sum.K(), s.cfg.K)
	}
	if err := s.acquire(); err != nil {
		return err
	}
	defer s.life.RUnlock()
	s.touch(s.mgr.now())
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.merged.Load()
	if cur == nil {
		s.merged.Store(sum.inner.CloneCompact())
		s.nodes++
		return nil
	}
	s.foldIn[0], s.foldIn[1] = cur, sum.inner
	m, err := s.foldMerger.MergeAll(s.foldIn[:])
	s.foldIn[0], s.foldIn[1] = nil, nil
	if err != nil {
		return err
	}
	s.merged.Store(m.CloneCompact())
	s.nodes++
	return nil
}

// combined folds the raw-ingest shards (if any data arrived) into the node
// aggregate without mutating stream state. The result owns its storage —
// the node aggregate is immutable once published and the sharded summary is
// extracted as a fresh clone — so it stays valid after locks are dropped.
// nil means the stream is empty.
func (s *Stream) combined() (*merge.Summary, error) {
	base := s.merged.Load()
	if s.ingested.Load() == 0 {
		return base, nil
	}
	shardSum, err := s.sharded.Load().Summary()
	if err != nil {
		return nil, err
	}
	if base == nil {
		return shardSum.inner, nil
	}
	return merge.Merge(base, shardSum.inner)
}

// CutSummary atomically extracts the stream's combined summary (node
// aggregate ∪ raw shards) and resets both tiers, so successive cuts cover
// disjoint traffic segments — the edge-side primitive of the aggregation
// tier: ship each cut upstream and the root's folds compose with the
// Agarwal et al. merge exactly as if the root had ingested the raw traffic
// (Corollary 18 sensitivity is merge-count-independent, so cutting adds no
// error beyond the sketch's own).
//
// The whole cut runs under the stream's exclusive lifecycle lock: no ingest
// can land between the extract and the reset, so no item is ever in two
// cuts and none is dropped. persist, when non-nil, is called with the
// extracted summary inside that critical section, before the reset commits;
// if it fails the cut aborts with the stream unchanged. A shipper that
// persists the cut to its durable spool in the callback therefore gets
// exact at-most-once extraction: a crash before the callback returns leaves
// the traffic in the stream, a crash after it leaves the traffic in the
// spool — never both, never neither.
//
// The cumulative bookkeeping counters (Ingested, Batches, Nodes) are
// deliberately not reset: they are monotone lifecycle counters
// (recordNewer, stats) and a cut is not an un-ingest. An offloaded stream
// is faulted back in first. Returns (nil, nil) when the stream holds no
// data to cut.
func (s *Stream) CutSummary(persist func(*MergeableSummary) error) (*MergeableSummary, error) {
	s.life.Lock()
	defer s.life.Unlock()
	if s.deleted {
		return nil, fmt.Errorf("dpmg: cut %q: stream is deleted", s.name)
	}
	if s.offloaded {
		if err := s.faultInLocked(); err != nil {
			return nil, err
		}
	}
	s.touch(s.mgr.now())
	sum, err := s.combined()
	if err != nil {
		return nil, err
	}
	if sum == nil || sum.Len() == 0 {
		return nil, nil
	}
	out := &MergeableSummary{inner: sum}
	if persist != nil {
		if err := persist(out); err != nil {
			return nil, fmt.Errorf("dpmg: cut %q: persisting: %w", s.name, err)
		}
	}
	// Commit the reset. Ownership of the extracted summary transfers to the
	// caller: every path out of combined() either clones or returns the node
	// aggregate itself, which the nil store below unpublishes.
	s.mu.Lock()
	s.merged.Store(nil)
	s.mu.Unlock()
	s.sharded.Store(newSharded(s.cfg))
	return out, nil
}

// releaseViewLocked builds the release view; the caller must hold the
// lifecycle lock (either side) with the stream resident.
func (s *Stream) releaseViewLocked() (*ReleaseView, error) {
	sum, err := s.combined()
	if err != nil {
		return nil, err
	}
	if sum == nil {
		return nil, fmt.Errorf("%w: %q", ErrStreamEmpty, s.name)
	}
	return &ReleaseView{
		Keys: sum.Keys(),
		Vals: sum.Counts(),
		Sens: Sensitivity{Class: SensitivityMerged, K: s.cfg.K, Universe: s.cfg.Universe},
	}, nil
}

// lockedStreamView adapts an already-pinned stream to Releasable so
// Stream.ReleaseDetailed can hold the stream resident across the whole
// release (view, calibration, noise) without re-entering the lifecycle
// lock.
type lockedStreamView struct{ s *Stream }

// ReleaseView implements Releasable on the pinned stream.
func (v lockedStreamView) ReleaseView() (*ReleaseView, error) { return v.s.releaseViewLocked() }

// ReleaseView snapshots the stream for the unified release path: the
// combined (node aggregate ∪ raw shards) summary under merged
// (Corollary 18) sensitivity, flat sorted columns in the input-independent
// ascending-key order every release in this package draws in. An empty
// stream wraps ErrStreamEmpty; an offloaded stream is faulted back in.
//
// Note that a release through dpmg.Release(stream, ...) pins the stream
// only while the view is built; Stream.ReleaseDetailed pins it for the
// whole release and is the only path metered by MaxInflightReleases.
func (s *Stream) ReleaseView() (*ReleaseView, error) {
	if err := s.acquire(); err != nil {
		return nil, err
	}
	defer s.life.RUnlock()
	s.touch(s.mgr.now())
	return s.releaseViewLocked()
}

// ReleaseDetailed privatizes the stream through the unified release path,
// metered against the stream's own Accountant and defaulting to the
// stream's configured mechanism. Options are applied after the defaults, so
// WithMechanism / WithSeed / WithTopK override per call. The ordering
// guarantees of ReleaseDetailed hold: calibration failures and empty
// streams never spend budget, and ErrBudgetExhausted releases nothing.
//
// The call counts against the stream's MaxInflightReleases ceiling for its
// whole duration; beyond the ceiling it fails fast wrapping ErrReleaseBusy
// with no budget spent. The stream is held resident (faulting it in if
// offloaded) until the release completes.
func (s *Stream) ReleaseDetailed(p Params, opts ...ReleaseOption) (*ReleaseResult, error) {
	if !s.gate.Enter() {
		s.throttledReleases.Add(1)
		return nil, fmt.Errorf("%w: stream %q", ErrReleaseBusy, s.name)
	}
	defer s.gate.Leave()
	if err := s.acquire(); err != nil {
		return nil, err
	}
	defer s.life.RUnlock()
	s.touch(s.mgr.now())
	base := make([]ReleaseOption, 0, 2+len(opts))
	base = append(base, WithAccountant(s.acct))
	if s.cfg.Mechanism != "" {
		base = append(base, WithMechanism(s.cfg.Mechanism))
	}
	return ReleaseDetailed(lockedStreamView{s}, p, append(base, opts...)...)
}

// Estimate returns the stream's non-private combined estimate for x: its
// raw-shard estimate plus its node-aggregate estimate (the two tiers hold
// disjoint data).
//
// When the stream is resident and its raw tier has a published read view,
// the answer is served from that view — the shared side of the lifecycle
// lock, two atomic loads and a binary search: no shard mutex, no
// allocation, and no contention with ingest (which holds the same shared
// side). The view is bounded-stale (refreshed every PublishEvery items,
// every PublishInterval of wall time, and at every release-time fold);
// these reads deliberately do not reset the idle clock, so a dashboard polling
// estimates never keeps a stream hot. Callers that need the item's exact
// up-to-the-instant count use EstimateExact.
//
// The raw tier's view is never nil for a resident stream (construction
// installs an empty view; fault-in and restore publish synchronously), so
// reads never fall back to the locked path — which is what keeps per-item
// answers monotone. Both tiers are read under the lifecycle read lock,
// since an eviction clears both. An offloaded stream is faulted in (which
// stamps the idle clock, as any data access does) and answered from the
// view the fault-in published, never from live counters: a live read could
// run ahead of that view and the next Estimate would go backwards. If the
// fault-in fails (for example the offload record was lost) Estimate returns
// 0 — use ReleaseView or Stats for the error. Prefer ReleaseDetailed for
// anything leaving the trust boundary.
func (s *Stream) Estimate(x Item) int64 {
	s.life.RLock()
	if s.offloaded {
		s.life.RUnlock()
		if err := s.acquire(); err != nil {
			return 0
		}
		s.touch(s.mgr.now())
	}
	defer s.life.RUnlock()
	var agg int64
	if m := s.merged.Load(); m != nil {
		agg = m.Estimate(x)
	}
	return agg + s.sharded.Load().Estimate(x)
}

// Publish synchronously folds the stream's live raw tier and installs a
// fresh published read view: after it returns, Estimate and Stats observe
// every update that completed before the call. Useful between a batch
// load and a read burst; routine refresh is already handled by the
// background triggers (PublishEvery, PublishInterval, and release-time
// folds). Publishing faults an offloaded stream in.
func (s *Stream) Publish() error {
	if err := s.acquire(); err != nil {
		return err
	}
	defer s.life.RUnlock()
	return s.sharded.Load().Publish()
}

// EstimateExact returns the same combined estimate as Estimate but always
// from live counter state, reading the raw tier under its shard locks: the
// answer reflects every update that completed before the call. This is the
// pre-epoch read path — tests pinning exact counts and callers about to
// act on a single item's count use it; dashboards use Estimate.
func (s *Stream) EstimateExact(x Item) int64 {
	if err := s.acquire(); err != nil {
		return 0
	}
	defer s.life.RUnlock()
	s.touch(s.mgr.now())
	var agg int64
	if m := s.merged.Load(); m != nil {
		agg = m.Estimate(x)
	}
	return agg + s.sharded.Load().EstimateExact(x)
}

// StreamStats is a point-in-time, non-private description of one stream.
// Fields counting raw data (Ingested, IngestCounters) and the aggregate
// tier (Nodes, AggregateCounters) are each internally consistent; under
// concurrent writers the struct as a whole is a near-point snapshot, exact
// once writers quiesce. The lifecycle tallies (Evictions, FaultIns,
// ThrottledIngest, ThrottledReleases) count since process start — they are
// observability counters, not durable state.
type StreamStats struct {
	Name      string
	K         int
	Universe  uint64
	Shards    int
	Mechanism string

	Nodes             int64 // node summaries merged
	AggregateCounters int   // counters held by the node aggregate (≤ k)
	Batches           int64 // raw batches ingested
	Ingested          int64 // raw items ingested
	IngestCounters    int   // positive counters in the merged raw-shard view (≤ k)

	Remaining Budget // unspent privacy budget
	Spent     Budget // privacy budget consumed so far
	Releases  int    // releases admitted so far

	Resident          bool  // counters in RAM (false: offloaded to the store)
	Evictions         int64 // times offloaded since process start
	FaultIns          int64 // times faulted back in since process start
	ThrottledIngest   int64 // ingest calls refused by the rate ceiling
	ThrottledReleases int64 // releases refused by the in-flight ceiling
}

// Stats returns the stream's current stats. When raw data has been
// ingested into a resident stream, the live raw-tier counter tally is
// served from the published read view whenever that view is current, and
// otherwise by merging the shard summaries (bounded, ≤ k counters) — the
// same fold a release performs. For an offloaded stream the counter tallies
// captured at offload time are served instead (exact: nothing mutates an
// offloaded stream), so reading stats never faults a stream in — and
// deliberately does not touch the idle clock, so observability never keeps
// a stream hot.
func (s *Stream) Stats() (StreamStats, error) {
	s.life.RLock()
	defer s.life.RUnlock()
	var aggCounters, ingestCounters int
	s.mu.Lock()
	nodes := s.nodes
	if m := s.merged.Load(); !s.offloaded && m != nil {
		aggCounters = m.Len() // one critical section: nodes and aggregate agree
	}
	s.mu.Unlock()
	if s.offloaded {
		aggCounters, ingestCounters = s.offAgg, s.offIngest
	} else if s.ingested.Load() > 0 {
		sh := s.sharded.Load()
		// Serve the raw-tier tally from the published view when it provably
		// covers every ingested item (view item count == the sketch's live
		// total): the common dashboard scrape of a quiet stream is then two
		// atomic loads instead of a full shard fold — and still exact,
		// because Algorithm 1 counters cannot change without the item total
		// advancing. A stream mid-burst falls back to the fold.
		if p := sh.pub.Load(); p != nil && p.n == sh.total.Load() {
			ingestCounters = len(p.keys)
		} else {
			sum, err := sh.Summary()
			if err != nil {
				return StreamStats{}, err
			}
			ingestCounters = sum.Len()
		}
	}
	total, spent, releases := s.acct.inner.State() // one lock: consistent pair
	return StreamStats{
		Name: s.name, K: s.cfg.K, Universe: s.cfg.Universe, Shards: s.cfg.Shards,
		Mechanism: s.cfg.Mechanism,
		Nodes:     nodes, AggregateCounters: aggCounters,
		Batches: s.batches.Load(), Ingested: s.ingested.Load(),
		IngestCounters: ingestCounters,
		Remaining:      Budget{Eps: total.Eps - spent.Eps, Delta: total.Delta - spent.Delta},
		Spent:          Budget{Eps: spent.Eps, Delta: spent.Delta},
		Releases:       releases,
		Resident:       !s.offloaded,
		Evictions:      s.evictions.Load(), FaultIns: s.faultIns.Load(),
		ThrottledIngest: s.throttledIngest.Load(), ThrottledReleases: s.throttledReleases.Load(),
	}, nil
}

// valid reports whether the budget is usable (the accountant's rules).
func (b Budget) valid() error {
	return accountant.Budget{Eps: b.Eps, Delta: b.Delta}.Valid()
}
