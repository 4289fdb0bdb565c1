package scenario

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"dpmg/internal/framing"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

// Transport selects how a stream's batches reach the server.
type Transport string

// Transports. Mixed alternates per batch, exercising both datapaths
// against the same sketch state (their equivalence is a pinned invariant).
const (
	// TransportHTTP posts batches to POST /v1/streams/{s}/batch.
	TransportHTTP Transport = "http"
	// TransportTCP ships batches as framing data frames over a persistent
	// connection to the server's -ingest-addr listener.
	TransportTCP Transport = "tcp"
	// TransportMixed alternates HTTP and TCP per batch.
	TransportMixed Transport = "mixed"
)

// StreamSpec describes one tenant template in a scenario. Count > 1
// stamps replicas ("name-00", "name-01", …) with per-replica derived
// seeds, so a single template can describe a fleet of look-alike tenants.
type StreamSpec struct {
	// Name is the stream name (or replica prefix when Count > 1).
	Name string `json:"name"`
	// Count is the number of replicas (default 1).
	Count int `json:"count,omitempty"`

	// K is the summary size (counters per sketch). Required: the harness
	// never relies on server defaults, so runs are self-describing.
	K int `json:"k"`
	// Universe bounds items to [1, Universe]. Required.
	Universe uint64 `json:"universe"`
	// Shards pins the raw-ingest shard count. Required so the in-process
	// twin resolves to the same topology as the server regardless of
	// GOMAXPROCS (the default shard count is machine-dependent).
	Shards int `json:"shards"`
	// Eps is the stream's total ε budget. Required.
	Eps float64 `json:"eps"`
	// Delta is the stream's total δ budget. Required.
	Delta float64 `json:"delta"`
	// Mechanism optionally names the release mechanism ("" = server
	// default for the merged sensitivity class).
	Mechanism string `json:"mechanism,omitempty"`

	// MaxIngestRate is the per-stream QoS ceiling in items/s (0 = no
	// ceiling). Scenarios that want 429/AckRateLimited pressure set it
	// below the offered rate.
	MaxIngestRate float64 `json:"max_ingest_rate,omitempty"`
	// IngestBurst is the token-bucket burst in items. Must be ≥ Batch
	// when MaxIngestRate is set: a batch larger than the burst can never
	// be admitted and the sender would retry forever.
	IngestBurst int `json:"ingest_burst,omitempty"`
	// MaxInflightReleases caps concurrent releases (0 = no ceiling).
	MaxInflightReleases int `json:"max_inflight_releases,omitempty"`

	// Model selects the workload generator: zipf | uniform | adversarial
	// | heavytail | drift | packets.
	Model string `json:"model"`
	// Skew is the Zipf exponent (zipf model).
	Skew float64 `json:"skew,omitempty"`
	// Heavy is the explicit heavy-hitter / elephant / per-phase count
	// (heavytail, packets, drift models).
	Heavy int `json:"heavy,omitempty"`
	// HeavyFrac is the mass fraction the heavy set carries (heavytail,
	// packets, drift models).
	HeavyFrac float64 `json:"heavy_frac,omitempty"`
	// Phases is the number of rotation phases (drift model).
	Phases int `json:"phases,omitempty"`

	// Items is the stream length N per replica.
	Items int `json:"items"`
	// Batch is the batch size items are shipped in (default 1024).
	Batch int `json:"batch,omitempty"`
	// Transport selects the datapath (default http).
	Transport Transport `json:"transport,omitempty"`
}

// Spec is one named scenario: a tenant mix plus the release schedule and
// the hostile twist (throttle pressure, lifecycle churn, budget storm, or
// the cluster topology) the run applies.
type Spec struct {
	// Name identifies the scenario ("flash-crowd", …).
	Name string `json:"name"`
	// Tier labels the size class this spec was built for (tiny | smoke |
	// full); informational, echoed into the Result row.
	Tier string `json:"tier,omitempty"`
	// Seed is the master seed; every replica derives its own stream seed
	// from it, so a Spec is one deterministic experiment.
	Seed uint64 `json:"seed"`
	// Workers bounds concurrent stream drivers (default 4). Each stream
	// is always driven by exactly one worker — per-stream sends stay
	// sequential, which is what makes the realized sketch state (and so
	// the whole run) deterministic.
	Workers int `json:"workers,omitempty"`
	// Streams is the tenant mix.
	Streams []StreamSpec `json:"streams"`

	// ReleaseEps is the ε grid released per stream after ingest (ignored
	// when BudgetStorm is set). Defaults to {0.25, 1, 4} — dyadic, so
	// ledger checks are bitwise exact.
	ReleaseEps []float64 `json:"release_eps,omitempty"`
	// ReleaseDelta is the per-release δ (default 2⁻²³).
	ReleaseDelta float64 `json:"release_delta,omitempty"`

	// EvictEvery > 0 turns on lifecycle churn: after every EvictEvery
	// batches the driver round-trips the stream through the admin
	// evict/fault-in levers while ingest continues. Requires a server
	// with -state.
	EvictEvery int `json:"evict_every,omitempty"`
	// ExpectThrottle asserts that QoS pressure actually materialized
	// (throttled_ingest > 0 server-side).
	ExpectThrottle bool `json:"expect_throttle,omitempty"`
	// BudgetStorm hammers releases of StormEps each until the accountant
	// refuses, asserting the exact admitted count.
	BudgetStorm bool `json:"budget_storm,omitempty"`
	// StormEps is the per-release ε during a budget storm.
	StormEps float64 `json:"storm_eps,omitempty"`
	// StormWorkers is the concurrent release-storm client count per
	// stream (default 3).
	StormWorkers int `json:"storm_workers,omitempty"`
	// Cluster runs the scenario against a 1-root + 2-edge topology:
	// batches round-robin across the edges, edges are drained, and all
	// checks read the root's folded state.
	Cluster bool `json:"cluster,omitempty"`
	// ProbeTop is how many top-true items per stream are probed through
	// /estimate for the envelope checks (default 8).
	ProbeTop int `json:"probe_top,omitempty"`
}

// DefaultReleaseDelta is the per-release δ when a spec leaves it zero:
// 2⁻²³, exactly representable so ledger arithmetic stays bitwise exact.
const DefaultReleaseDelta = 1.0 / (1 << 23)

// defaultReleaseEps is the dyadic default ε grid.
func defaultReleaseEps() []float64 { return []float64{0.25, 1, 4} }

// Normalize fills defaults and validates the spec. It is idempotent; Run
// calls it, as does the tests' JSON parser, so hand-built specs get the
// same treatment as parsed ones.
func (sp *Spec) Normalize() error {
	if sp.Workers == 0 {
		sp.Workers = 4
	}
	if sp.ProbeTop == 0 {
		sp.ProbeTop = 8
	}
	if sp.ReleaseDelta == 0 {
		sp.ReleaseDelta = DefaultReleaseDelta
	}
	if len(sp.ReleaseEps) == 0 && !sp.BudgetStorm {
		sp.ReleaseEps = defaultReleaseEps()
	}
	if sp.BudgetStorm && sp.StormWorkers == 0 {
		sp.StormWorkers = 3
	}
	for i := range sp.Streams {
		ss := &sp.Streams[i]
		if ss.Count == 0 {
			ss.Count = 1
		}
		if ss.Batch == 0 {
			ss.Batch = 1024
		}
		if ss.Transport == "" {
			ss.Transport = TransportHTTP
		}
	}
	return sp.Validate()
}

// Validate checks the spec for configurations the server or the checks
// cannot honor. It reports the first problem found.
func (sp *Spec) Validate() error {
	if sp.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if len(sp.Streams) == 0 {
		return fmt.Errorf("scenario %s: needs at least one stream", sp.Name)
	}
	if len(sp.Streams) > 1024 {
		return fmt.Errorf("scenario %s: %d stream templates, over the 1024 cap", sp.Name, len(sp.Streams))
	}
	if sp.Workers < 1 || sp.Workers > 256 {
		return fmt.Errorf("scenario %s: workers %d outside [1, 256]", sp.Name, sp.Workers)
	}
	if sp.ProbeTop < 1 || sp.ProbeTop > 1024 {
		return fmt.Errorf("scenario %s: probe_top %d outside [1, 1024]", sp.Name, sp.ProbeTop)
	}
	if sp.ReleaseDelta <= 0 || sp.ReleaseDelta >= 1 {
		return fmt.Errorf("scenario %s: release_delta %g outside (0, 1)", sp.Name, sp.ReleaseDelta)
	}
	for _, eps := range sp.ReleaseEps {
		if eps <= 0 {
			return fmt.Errorf("scenario %s: release_eps entries must be positive, got %g", sp.Name, eps)
		}
	}
	if sp.BudgetStorm {
		if sp.StormEps <= 0 {
			return fmt.Errorf("scenario %s: budget_storm needs storm_eps > 0", sp.Name)
		}
		if sp.StormWorkers < 1 || sp.StormWorkers > 64 {
			return fmt.Errorf("scenario %s: storm_workers %d outside [1, 64]", sp.Name, sp.StormWorkers)
		}
		if len(sp.ReleaseEps) > 0 {
			return fmt.Errorf("scenario %s: budget_storm and release_eps are mutually exclusive", sp.Name)
		}
	}
	if sp.Cluster && sp.EvictEvery > 0 {
		return fmt.Errorf("scenario %s: cluster excludes evict_every (edges refuse -state)", sp.Name)
	}
	if sp.Cluster && sp.BudgetStorm {
		return fmt.Errorf("scenario %s: cluster excludes budget_storm (keep the ledger check single-owner)", sp.Name)
	}
	seen := make(map[string]bool)
	for i := range sp.Streams {
		ss := &sp.Streams[i]
		if err := ss.validate(sp); err != nil {
			return err
		}
		for r := 0; r < ss.Count; r++ {
			name := ss.ReplicaName(r)
			if seen[name] {
				return fmt.Errorf("scenario %s: duplicate stream name %q", sp.Name, name)
			}
			seen[name] = true
		}
	}
	if sp.Cluster {
		// Root auto-creation stamps streams from the root manager's
		// defaults, which cmd/dpmg-scenario derives from the spec — so
		// every cluster stream must agree on sketch identity and budget.
		first := sp.Streams[0]
		for _, ss := range sp.Streams[1:] {
			if ss.K != first.K || ss.Universe != first.Universe ||
				ss.Eps != first.Eps || ss.Delta != first.Delta || ss.Mechanism != first.Mechanism {
				return fmt.Errorf("scenario %s: cluster streams must share k/universe/eps/delta/mechanism (root auto-creates from one default)", sp.Name)
			}
		}
	}
	return nil
}

// validate checks one stream template against the enclosing spec.
func (ss *StreamSpec) validate(sp *Spec) error {
	where := fmt.Sprintf("scenario %s stream %s", sp.Name, ss.Name)
	if ss.Name == "" {
		return fmt.Errorf("scenario %s: stream needs a name", sp.Name)
	}
	if ss.Count < 1 || ss.Count > 512 {
		return fmt.Errorf("%s: count %d outside [1, 512]", where, ss.Count)
	}
	if ss.K < 1 {
		return fmt.Errorf("%s: k must be ≥ 1", where)
	}
	if ss.Universe < 2 || ss.Universe > 1<<31 {
		return fmt.Errorf("%s: universe %d outside [2, 2³¹]", where, ss.Universe)
	}
	if ss.Shards < 1 || ss.Shards > 64 {
		return fmt.Errorf("%s: shards %d outside [1, 64] (explicit shards keep the twin deterministic)", where, ss.Shards)
	}
	if ss.Eps <= 0 || ss.Delta <= 0 || ss.Delta >= 1 {
		return fmt.Errorf("%s: budget needs eps > 0 and delta in (0, 1)", where)
	}
	if ss.Items < 1 || ss.Items > 1<<32 {
		return fmt.Errorf("%s: items %d outside [1, 2³²] (the cap keeps fleet totals overflow-safe)", where, ss.Items)
	}
	if ss.Batch < 1 || ss.Batch > framing.MaxDataItems {
		return fmt.Errorf("%s: batch %d outside [1, %d]", where, ss.Batch, framing.MaxDataItems)
	}
	if ss.MaxIngestRate > 0 && ss.IngestBurst < ss.Batch {
		return fmt.Errorf("%s: ingest_burst %d < batch %d: a batch above the burst is never admitted and the sender would retry forever", where, ss.IngestBurst, ss.Batch)
	}
	if ss.MaxIngestRate < 0 || ss.IngestBurst < 0 || ss.MaxInflightReleases < 0 {
		return fmt.Errorf("%s: QoS ceilings must be non-negative (the spec layer has no 'inherit' sentinel)", where)
	}
	switch ss.Transport {
	case TransportHTTP, TransportTCP, TransportMixed:
	default:
		return fmt.Errorf("%s: unknown transport %q", where, ss.Transport)
	}
	if !sp.BudgetStorm {
		var grid float64
		for _, eps := range sp.ReleaseEps {
			grid += eps
		}
		if grid > ss.Eps {
			return fmt.Errorf("%s: release_eps grid sums to %g, over the stream's ε budget %g", where, grid, ss.Eps)
		}
		if d := float64(len(sp.ReleaseEps)) * sp.ReleaseDelta; d > ss.Delta {
			return fmt.Errorf("%s: release grid spends δ %g, over the stream's δ budget %g", where, d, ss.Delta)
		}
	}
	if sp.BudgetStorm && ss.Eps < sp.StormEps {
		return fmt.Errorf("%s: ε budget %g below storm_eps %g admits zero releases", where, ss.Eps, sp.StormEps)
	}
	d := int(ss.Universe)
	switch ss.Model {
	case "zipf":
		if ss.Skew <= 0 {
			return fmt.Errorf("%s: zipf needs skew > 0", where)
		}
	case "uniform":
	case "adversarial":
		if uint64(ss.K)+1 > ss.Universe {
			return fmt.Errorf("%s: adversarial needs universe ≥ k+1", where)
		}
	case "heavytail":
		if ss.Heavy < 1 || ss.Heavy > d {
			return fmt.Errorf("%s: heavytail needs heavy in [1, universe]", where)
		}
		if ss.HeavyFrac <= 0 || ss.HeavyFrac > 1 {
			return fmt.Errorf("%s: heavytail needs heavy_frac in (0, 1]", where)
		}
	case "drift":
		if ss.Phases < 1 || ss.Heavy < 1 || ss.Phases*ss.Heavy > d {
			return fmt.Errorf("%s: drift needs phases ≥ 1, heavy ≥ 1, phases×heavy ≤ universe", where)
		}
		if ss.HeavyFrac <= 0 || ss.HeavyFrac > 1 {
			return fmt.Errorf("%s: drift needs heavy_frac in (0, 1]", where)
		}
	case "packets":
		if ss.Heavy < 1 || ss.Heavy >= d {
			return fmt.Errorf("%s: packets needs heavy (elephants) in [1, universe)", where)
		}
		if ss.HeavyFrac <= 0 || ss.HeavyFrac >= 1 {
			return fmt.Errorf("%s: packets needs heavy_frac in (0, 1)", where)
		}
	default:
		return fmt.Errorf("%s: unknown model %q", where, ss.Model)
	}
	return nil
}

// ReplicaName returns the stream name of replica i: the bare Name when
// Count is 1, "name-NN" otherwise.
func (ss *StreamSpec) ReplicaName(i int) string {
	if ss.Count <= 1 {
		return ss.Name
	}
	return fmt.Sprintf("%s-%02d", ss.Name, i)
}

// ReplicaSeed derives the deterministic per-replica seed: master seed
// mixed with an FNV-1a hash of the replica name, so replicas differ but a
// rerun reproduces every stream exactly.
func (sp *Spec) ReplicaSeed(replica string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(replica)) //nolint:errcheck // hash.Hash never errors
	seed := sp.Seed ^ h.Sum64()
	if seed == 0 {
		seed = 1
	}
	return seed
}

// Generate produces replica i's full item sequence. The sequence depends
// only on (spec seed, replica name, template), never on timing, which is
// what the determinism checks lean on.
func (ss *StreamSpec) Generate(sp *Spec, i int) stream.Stream {
	seed := sp.ReplicaSeed(ss.ReplicaName(i))
	d := int(ss.Universe)
	switch ss.Model {
	case "zipf":
		return workload.Zipf(ss.Items, d, ss.Skew, seed)
	case "uniform":
		return workload.Uniform(ss.Items, d, seed)
	case "adversarial":
		return workload.Adversarial(ss.Items, ss.K)
	case "heavytail":
		return workload.HeavyTail(ss.Items, d, ss.Heavy, ss.HeavyFrac, seed)
	case "drift":
		return workload.Drift(ss.Items, d, ss.Phases, ss.Heavy, ss.HeavyFrac, seed)
	case "packets":
		return workload.NewPacketTrace(d, ss.Heavy, ss.HeavyFrac, seed).Stream(ss.Items)
	}
	panic(fmt.Sprintf("scenario: unvalidated model %q", ss.Model)) // Validate gates Run
}

// TotalItems is the offered load across all replicas of all templates.
func (sp *Spec) TotalItems() int64 {
	var n int64
	for _, ss := range sp.Streams {
		n += int64(ss.Items) * int64(ss.Count)
	}
	return n
}

// TotalStreams is the replica count across all templates.
func (sp *Spec) TotalStreams() int {
	n := 0
	for _, ss := range sp.Streams {
		n += ss.Count
	}
	return n
}

// NeedsStore reports whether the scenario requires a server with an
// offload store (-state): lifecycle churn does, everything else not.
func (sp *Spec) NeedsStore() bool { return sp.EvictEvery > 0 }

// StormExpected is the exact number of storm releases the accountant
// admits for a stream with the given ε budget: the largest m with
// m×storm_eps ≤ budget. Computed by repeated addition, not division, so
// it mirrors the accountant's own running-sum arithmetic bit for bit.
func StormExpected(budgetEps, stormEps float64) int {
	spent, m := 0.0, 0
	for spent+stormEps <= budgetEps+1e-12 {
		spent += stormEps
		m++
		if m > 1<<20 {
			break // degenerate spec; Validate keeps real ones far below
		}
	}
	return m
}

// Marshal renders the spec back to canonical JSON (stable field order,
// trailing newline) — the fuzz target round-trips specs through it.
func (sp *Spec) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Fingerprintable reports whether probe estimates may be folded into the
// run fingerprint. Standalone runs are fully deterministic; cluster runs
// are not item-for-item (ship-cycle timing moves cut boundaries, and a
// merged MG view depends on them), so their fingerprint covers only the
// timing-independent facts (N, ledger).
func (sp *Spec) Fingerprintable() bool { return !sp.Cluster }

// dyadic reports whether f is exactly representable as a sum of powers of
// two with a short mantissa — the property that makes ledger comparisons
// bitwise. Used by catalog tests to keep the shipped scenarios honest.
func dyadic(f float64) bool {
	if f <= 0 {
		return false
	}
	frac, _ := math.Frexp(f)
	// frac is in [0.5, 1); short mantissa ⇔ frac × 2¹⁶ is an integer.
	scaled := frac * (1 << 16)
	return scaled == math.Trunc(scaled)
}

// sortedNames returns all replica names in sorted order (fingerprints and
// reports iterate streams in this order).
func (sp *Spec) sortedNames() []string {
	var names []string
	for _, ss := range sp.Streams {
		for i := 0; i < ss.Count; i++ {
			names = append(names, ss.ReplicaName(i))
		}
	}
	sort.Strings(names)
	return names
}
