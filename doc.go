// Package dpmg is a differentially private streaming heavy-hitters library:
// a production-oriented implementation of "Better Differentially Private
// Approximate Histograms and Heavy Hitters using the Misra-Gries Sketch"
// (Lebeda & Tětek, PODS 2023).
//
// The core object is the Misra-Gries sketch of size k, which summarizes a
// stream of n items with at most k counters and per-item error n/(k+1).
// This package releases such sketches under differential privacy with noise
// of magnitude O(1/eps) per counter — independent of k — via the paper's
// two-layer Laplace mechanism:
//
//	sk := dpmg.NewSketch(256, 1_000_000)         // k counters, universe [1, d]
//	for _, x := range stream { sk.Update(x) }
//	hh, err := dpmg.Release(sk, dpmg.Params{Eps: 1, Delta: 1e-6})
//
// Releases satisfy (eps, delta)-differential privacy under add/remove
// neighbors.
//
// # Orientation in the paper
//
// The load-bearing results, and where they surface in the API:
//
//   - Algorithm 1 is the Misra-Gries variant the sketch core implements
//     (internal/mg): k counters, decrement-all on overflow, plus the
//     bookkeeping (total count n, decrement count) that the privacy
//     analysis consumes. Sketch.Update/UpdateBatch are its ingest path,
//     and a serialized sketch (Snapshot, manager snapshots, offload
//     records) is exactly this state.
//   - Lemma 8 is the key structural fact: on neighboring streams, the
//     sketch's counter vectors differ by at most 1 in each coordinate,
//     all in the same direction. It is what lets the two-layer Laplace
//     mechanism add O(1/eps) noise per counter instead of scaling with k.
//     Front-ends whose state preserves this structure (Sketch,
//     StandardSketch, StringSketch) carry SensitivitySingleStream.
//   - Corollary 18 extends the analysis to merged summaries (the Agarwal
//     et al. merge of many sketches): the merged counter vector has
//     L2-sensitivity bounded by sqrt(k+1), so the Gaussian Sparse
//     Histogram Mechanism applies. MergeableSummary, ShardedSketch, and
//     every managed Stream (whose view is node summaries ∪ raw shards)
//     carry SensitivityMerged.
//   - Theorem 30 covers user-level privacy: when each user contributes a
//     set of at most m distinct items, the UserSketch releases under
//     user-level (eps, delta)-DP (SensitivityUserLevel).
//
// # The unified release API
//
// Every sketch front-end (Sketch, StandardSketch, MergeableSummary,
// ShardedSketch, UserSketch, StringSketch, ContinualMonitor, Stream)
// implements Releasable: it exposes its counters plus its sensitivity
// class — single-stream (Lemma 8), merged (Corollary 18), or user-level
// (Theorem 30). One entry point releases them all:
//
//	h, err := dpmg.Release(sk, p,
//		dpmg.WithMechanism("geometric"), // registry name; default per class
//		dpmg.WithSeed(seed),             // omit for a CSPRNG-drawn seed
//		dpmg.WithAccountant(acct),       // meter against a shared budget
//		dpmg.WithTopK(10),               // free post-processing cut
//	)
//
// Mechanisms live in a by-name registry (RegisterMechanism) and split
// calibration from noising: every failure mode — bad parameters, a
// mechanism that does not apply to the sketch's sensitivity class, an
// infeasible noise search — surfaces in Calibrate, before any budget is
// spent. The built-in mechanisms:
//
//	name       noise                    applies to                 prefer when
//	laplace    two-layer Laplace        single-stream (1/eps),     default for one sketch: tightest
//	                                    merged (k/eps)             error, O(1/eps) noise (Thm 14)
//	geometric  two-sided geometric      single-stream              integer outputs; floating-point
//	                                                               side channels matter (Sec 5.2)
//	pure       Laplace(2/eps) over      single-stream              pure eps-DP required; pays
//	           the whole universe                                  Theta(d) release time (Sec 6)
//	gaussian   N(0, sigma^2) with       single-stream, merged,     merged/sharded/user sketches:
//	           sigma ~ sqrt(k)/eps      user-level                 sqrt(k) beats k/eps at large k
//
// Release is the only release entry point (StringSketch.ReleaseTop maps
// its result back to strings). What a Releasable hands it is a ReleaseView
// in one layout — keys strictly ascending with parallel counters — which
// Release validates before calibrating or charging anything; each mechanism
// is one loop over those columns, so noise is always drawn in the sorted,
// input-independent order Section 5.2 requires and no map sits between
// Release and a noise draw.
//
// # Budget accounting
//
// An Accountant meters cumulative privacy loss under basic composition:
// it is given a total (eps, delta) budget up front and atomically admits
// or refuses each release against the remainder (ErrBudgetExhausted).
// The charge is ordered after view validation and calibration and before
// noising, so a refused view or a calibration error never burns budget and
// a charged release always yields a histogram. Every managed Stream owns a private Accountant —
// tenants never share an account — and accountant state round-trips
// exactly through snapshots, restarts, and offload records.
//
// Live sketches serialize with Sketch.Snapshot and resume with
// RestoreSketch, so long-running ingest survives restarts; a restored
// sketch releases byte-identically to the original under the same seed.
//
// # Multi-tenant serving
//
// A Manager hosts many independent named streams — the Section 7 setting
// with every edge population as a first-class object: per-stream sketch
// state (sharded raw ingest plus a bounded merged-summary aggregate),
// per-stream config (k, universe, default mechanism), and a private
// Accountant per stream. Stream lookup is lock-striped, so ingest on
// different streams never contends. Manager.Snapshot / RestoreManager make
// the whole stream table durable: a restarted service resumes every tenant
// with identical estimates, byte-identical seeded releases, and exactly
// the remaining budget. The dpmg-server command serves this layer over
// HTTP (/v1/streams).
//
// # Distributed aggregation
//
// The Section 7 deployment at fleet scale is the edge→root tier
// (internal/cluster, dpmg-server -role=edge / -role=root): every edge
// ingests its local traffic into a full sketch stack, periodically cuts
// each stream into a flat mergeable summary, and ships it upstream; the
// root folds the summaries with the Agarwal et al. merge into one
// per-stream aggregate and is the only node holding a privacy budget.
// Corollary 18 is what makes the tier sound AND cheap: a merged summary's
// L2-sensitivity is bounded by sqrt(k+1) regardless of how many summaries
// were folded into it, so the root's single Gaussian release is calibrated
// identically whether eight edges shipped or eight thousand — the noise
// does not grow with the fleet, and no per-edge budget splitting is
// needed. (Contrast the untrusted-aggregator alternative, one Algorithm 2
// release per edge merged after noising, where error grows with the edge
// count; examples/distributed runs both side by side.) Failover rides
// sequence-numbered re-shipping from a durable edge spool with
// deduplication at the root, so crashes and restarts never double-count a
// summary — which matters for privacy accounting as much as for accuracy,
// since a double-fold would distort the very counters the sensitivity
// argument is about.
//
// # Stream lifecycle and QoS
//
// Managed streams have a residency lifecycle: an idle stream can be
// evicted (Manager.EvictIdle, Manager.Evict) — its full state offloaded
// to an OffloadStore as one canonical record — and is faulted back in
// transparently on the next data access, resuming identical estimates,
// byte-identical seeded releases, and its exact remaining budget.
// Restarted deployments recover offloaded streams as stubs
// (Manager.RecoverOffloaded) that stay on disk until first touched.
// Per-stream QoS ceilings (StreamConfig.MaxIngestRate, a lock-free token
// bucket, and MaxInflightReleases) bound what one tenant can demand of
// the aggregator; violations wrap ErrRateLimited / ErrReleaseBusy and
// never partially apply. See lifecycle.go and PERFORMANCE.md.
//
// # The published read path
//
// Point reads never stall ingest: ShardedSketch keeps an immutable
// published view (flat sorted columns behind one atomic pointer),
// republished off the hot path — piggybacked on release-time
// summarization and re-folded in the background after
// StreamConfig.PublishEvery ingested items or PublishInterval elapsed.
// Estimate, N, Stream.Estimate, Stats, and the server's stats/estimate
// endpoints serve from it: one atomic load plus a binary search, zero
// shard locks, zero allocations (Stream.Estimate also takes the shared
// side of the stream's lifecycle lock, because an eviction drops the
// view), bounded staleness (every served value was
// exact at some publish point, at most PublishEvery items plus one
// in-flight fold behind the live counters). The view is never nil —
// construction installs an empty view and restore paths publish
// synchronously — so published reads never mix with locked fallback
// values, which is what makes per-item answers monotone. EstimateExact
// and NExact fold the live counters when exactness matters more than
// latency; Stream.Publish forces a synchronous fold when a caller needs
// the view brought current (say, between a batch load and a read burst).
//
// Published views are read-only serving state, never an input: no
// release, merge, or serialization path consumes one — releases re-fold
// the live shards under the release mutex in ascending shard order, so
// the Section 5.2 input-independent release-order invariant and
// byte-identical seeded releases are unaffected by when (or whether) a
// view was published.
//
// # Performance
//
// The sketch core is flat storage (contiguous counter array + open
// addressing + a lazy decrement offset, see internal/mg) and Update never
// allocates. Batch ingest (UpdateBatch, ShardedSketch.UpdateBatch, the
// dpmg-server /v1/streams/{s}/batch endpoint) amortizes call and lock overhead when
// items already arrive grouped. Measured on one 2.10 GHz Xeon core
// (go test -bench=BenchmarkSketch, k=256, d=65536, n=2^20), against the
// previous map-based core:
//
//	BenchmarkSketchUpdate             138.2 ns/op → 43.6 ns/op  (3.2x, 0 allocs)
//	BenchmarkSketchUpdateAdversarial  126.3 ns/op →  5.6 ns/op (22.6x, 0 allocs)
//
// The adversarial stream (k+1 items round-robin, maximal decrement rate)
// is the paper's worst case for Misra-Gries: the old core paid an O(k)
// counter-map sweep per decrement, the flat core pays a single offset
// increment plus an amortized O(1) zero-census scan (Fact 7 bounds
// decrement steps by n/(k+1)). The map-based implementation survives as
// the test-only reference (internal/mg/mgref.Ref) that differential and fuzz
// harnesses check the flat core against, observable for observable.
//
// The merge and release tier is flat too: mergeable summaries are sorted
// parallel key/count columns, MergeAll adds them over a balanced tree of
// two-way merges and subtracts once, and a SummaryMerger merges with zero
// steady-state allocations (8 summaries of k=256: 170.0 µs and 72 allocs
// with maps, 0 allocs flat). See PERFORMANCE.md
// for the design, the measured numbers, and the input-independent-order
// invariant every release path maintains.
//
// Beyond the micro-benchmarks, the scenario harness (internal/scenario,
// cmd/dpmg-scenario, scripts/scenario_json.sh) drives the composed
// dpmg-server — both datapaths, concurrent tenants, QoS, lifecycle
// churn, and the distributed tier — through a catalog of named hostile
// workloads and continuously measures the accuracy/privacy/throughput
// frontier, asserting the Lemma 8 envelope, a bitwise budget ledger, and
// seeded-release determinism on every run (SCENARIO_core.json in CI).
package dpmg
