#!/usr/bin/env bash
# bench_json.sh — run the ingest/merge/release micro-benchmarks and emit a
# machine-readable BENCH_core.json (benchmark name, ns/op, B/op, allocs/op,
# MB/s where the benchmark reports throughput, and host_cpus — the CPU
# count of the host that ran it — on every row), seeding the repo's perf
# trajectory: CI uploads the file as an artifact so regressions are
# diffable run over run.
#
# Usage: scripts/bench_json.sh [output.json]
#   DPMG_BENCHTIME=2s scripts/bench_json.sh   # override go test -benchtime
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_core.json}"
BENCHTIME="${DPMG_BENCHTIME:-1s}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT
HOST_CPUS="$(nproc)"

# cpu_list keeps the values of a comma-separated -cpu sweep this host can
# run: a GOMAXPROCS above the CPU count measures time slicing, not
# parallelism, so its row would only look like a scaling number.
cpu_list() {
  local keep=() c
  IFS=, read -ra all <<< "$1"
  for c in "${all[@]}"; do
    if (( c <= HOST_CPUS )); then keep+=("$c"); fi
  done
  (IFS=,; echo "${keep[*]}")
}

run() { # run <package> <bench regex> [extra go-test flags...]
  local pkg="$1" regex="$2"
  shift 2
  go test -run='^$' -bench="$regex" -benchmem -benchtime="$BENCHTIME" "$@" "$pkg" | tee -a "$TMP"
}

# Ingest tier: flat sketch hot paths and the sharded router. The Serving
# row is one shard's update on the shape every BENCHMARK.json workload
# serves (k=256, d=2^20: the Algorithm 1 miss path) and the Hits row the
# same shape fed only counter hits (hot-http's 64 keys); the ZeroOrder rows
# are one epoch's eviction ordering at that shape.
run . 'BenchmarkSketchUpdate$|BenchmarkSketchUpdateAdversarial$|BenchmarkSketchUpdateBatch$|BenchmarkSketchUpdateServing$|BenchmarkSketchUpdateHits$|BenchmarkShardedUpdate$|BenchmarkShardedUpdateBatch$'
run ./internal/mg 'BenchmarkZeroOrder$'
# Read tier: point queries under saturating ingest. The published row is
# the epoch read path (atomic load + binary search, 0 allocs); the locked
# row is the pre-epoch shard-mutex baseline it is measured against.
run . 'BenchmarkEstimateUnderIngest'
# Merge/release tier: steady-state merges and the release loops. The
# MergeFold row is one root fold at the fanin-fold workload's shape.
run . 'BenchmarkMergeSummaries$|BenchmarkMergeSummariesOneShot$|BenchmarkShardedRelease$|BenchmarkRelease$'
run ./internal/merge 'BenchmarkMergeAllWide$|BenchmarkMergeFold$|BenchmarkReleaseBounded$'
# Lifecycle tier: the offloaded-tenant cold start (delta record decode +
# canonical sketch reconstruction) and the cold-tier record encode with its
# footprint (record_bytes of one delta-varint offload record). Both
# benchmarks also fail on their allocation ceilings (evict + fault-in
# cycle; record encode into a warmed buffer).
run . 'BenchmarkFaultIn$'
run ./internal/encoding 'BenchmarkOffloadRecord'
# Server tier: HTTP batch ingest and streamed release, plus the
# multi-tenant pair — BenchmarkServerMultiStreamIngest (parallel workers on
# distinct streams, no shared mutex) against BenchmarkServerSingleStreamIngest
# (same load, one contended stream) — whose ratio tracks the manager's
# cross-stream scaling. The lifecycle rows: the QoS-enabled ingest variant
# must stay at parity with the plain multi-stream row (token-bucket
# admission is one CAS), and BenchmarkServerMetrics tracks the per-scrape
# observability tax over 64 streams.
run ./cmd/dpmg-server 'BenchmarkServerBatchIngest$|BenchmarkServerRelease$|BenchmarkServerMultiStreamIngest$|BenchmarkServerSingleStreamIngest$|BenchmarkServerMultiStreamRelease$|BenchmarkServerMultiStreamIngestQoS$|BenchmarkServerMetrics$'
# Streaming-datapath tier: the binary ingest datapath against the real-TCP
# HTTP baseline. Subtracting the shared decode+sketch floor, the pair is
# the per-batch protocol overhead comparison the datapath exists to win.
run ./cmd/dpmg-server 'BenchmarkServerStreamIngest$|BenchmarkServerHTTPIngestE2E$'
# Aggregation tier: summary fan-in throughput at the root (summaries
# folded per second over loopback edge connections). Three shapes — single
# (one edge, one stream: the serial-path regression guard), parallel (one
# worker per connection, per-worker streams, default fold lanes), and
# serial (the same parallel load through a single fold lane, the
# lock-convoy baseline) — each swept over -cpu 1,4,8, minus the values
# above the host's CPU count, so the artifact records the lane scaling
# curve only as far as the host can show it; the awk below keeps the
# GOMAXPROCS suffix as the "cpus" field, so the sweep produces distinct
# rows.
run ./internal/cluster 'BenchmarkClusterFanIn' -cpu="$(cpu_list 1,4,8)"

# The streaming-datapath and fan-in rows are the acceptance evidence for
# the binary ingest path and the aggregation tier; a refactor that
# silently drops one of these benchmarks must fail the bench job, not
# produce a quietly thinner artifact.
for required in BenchmarkServerStreamIngest BenchmarkServerHTTPIngestE2E BenchmarkServerBatchIngest \
                BenchmarkClusterFanIn/single BenchmarkClusterFanIn/parallel BenchmarkClusterFanIn/serial \
                BenchmarkEstimateUnderIngest/published BenchmarkEstimateUnderIngest/locked \
                BenchmarkFaultIn BenchmarkOffloadRecord/delta BenchmarkMergeFold \
                BenchmarkSketchUpdateServing BenchmarkSketchUpdateHits BenchmarkZeroOrder/n=16 BenchmarkZeroOrder/n=64 \
                BenchmarkZeroOrder/n=205 BenchmarkZeroOrder/n=256; do
  if ! grep -q "^${required}" "$TMP"; then
    echo "bench_json.sh: required benchmark ${required} missing from output" >&2
    exit 1
  fi
done

awk -v host_cpus="$HOST_CPUS" '
/^Benchmark/ {
  name = $1
  cpus = ""
  if (match(name, /-[0-9]+$/)) {
    cpus = substr(name, RSTART + 1)
    name = substr(name, 1, RSTART - 1)
  }
  ns = ""; bytes = ""; allocs = ""; mbs = ""; items = ""; sums = ""; rec = ""
  for (i = 2; i < NF; i++) {
    if ($(i + 1) == "ns/op") ns = $i
    if ($(i + 1) == "B/op") bytes = $i
    if ($(i + 1) == "allocs/op") allocs = $i
    if ($(i + 1) == "MB/s") mbs = $i
    if ($(i + 1) == "items/s") items = $i
    if ($(i + 1) == "summaries/s") sums = $i
    if ($(i + 1) == "record_bytes") rec = $i
  }
  if (ns == "") next
  if (n++) printf ",\n"
  printf "  {\"name\": \"%s\", \"ns_per_op\": %s", name, ns
  if (cpus != "") printf ", \"cpus\": %s", cpus
  printf ", \"host_cpus\": %s", host_cpus
  if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
  if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
  if (mbs != "") printf ", \"mb_per_s\": %s", mbs
  if (items != "") printf ", \"items_per_s\": %s", items
  if (sums != "") printf ", \"summaries_per_s\": %s", sums
  if (rec != "") printf ", \"record_bytes\": %s", rec
  printf "}"
}
BEGIN { printf "[\n" }
END { printf "\n]\n" }
' "$TMP" > "$OUT"

echo "wrote $(grep -c '"name"' "$OUT") benchmark entries to $OUT" >&2
