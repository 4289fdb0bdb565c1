#!/usr/bin/env bash
# smoke_cluster.sh — multi-node smoke for the distributed aggregation
# tier: one root and two edges as real dpmg-server processes on loopback.
#
#  1. Both edges create the stream "smoke", ingest raw batches into it
#     over HTTP and ship cut summaries upstream (the root auto-creates
#     the stream on its first fold); the script waits for each fold to
#     land at the root.
#  2. One edge is SIGKILLed mid-run; the root must keep serving from the
#     survivor.
#  3. The killed edge restarts with the same -edge-id and -spool and
#     creates "smoke" again (an edge keeps no state but its spool); its
#     next cut must fold exactly once (seq baseline re-sync + dedup —
#     zero double-counts, asserted via summaries_merged at the root).
#  4. Releases succeed only at the root; an edge answers 403.
#
# The byte-identical seeded differential against a single-process twin
# lives in the Go tests (TestClusterSmoke/TestClusterFailover and the
# drain suite) — the HTTP release endpoint deliberately refuses caller
# seeds, so this script asserts the deterministic state instead:
# summaries_merged counts every fold and dedup swallows every re-ship,
# which is the zero-double-count invariant end to end.
#
# Usage: scripts/smoke_cluster.sh
set -euo pipefail
cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/dpmg-server" ./cmd/dpmg-server

# Pick ports nothing is listening on (loopback connect must be refused).
freeport() {
  local p
  while :; do
    p=$((20000 + RANDOM % 20000))
    if ! (exec 3<>"/dev/tcp/127.0.0.1/$p") 2>/dev/null; then
      echo "$p"
      return
    fi
    exec 3>&- || true
  done
}
ROOT_HTTP="$(freeport)"; ROOT_CLUSTER="$(freeport)"
E1_HTTP="$(freeport)"; E2_HTTP="$(freeport)"

COMMON=(-k 64 -d 1000 -eps 16 -delta 1e-3)
"$TMP/dpmg-server" "${COMMON[@]}" -role=root -addr "127.0.0.1:$ROOT_HTTP" \
  -cluster-addr "127.0.0.1:$ROOT_CLUSTER" -state "$TMP/root-state" \
  >"$TMP/root.log" 2>&1 &
PIDS+=($!)

start_edge1() {
  "$TMP/dpmg-server" "${COMMON[@]}" -role=edge -addr "127.0.0.1:$E1_HTTP" \
    -upstream "127.0.0.1:$ROOT_CLUSTER" -edge-id edge-1 \
    -spool "$TMP/spool1" -ship-interval 100ms \
    >>"$TMP/edge1.log" 2>&1 &
  EDGE1_PID=$!
  PIDS+=("$EDGE1_PID")
  disown "$EDGE1_PID" # keep bash from reporting the deliberate SIGKILL
}
start_edge1
"$TMP/dpmg-server" "${COMMON[@]}" -role=edge -addr "127.0.0.1:$E2_HTTP" \
  -upstream "127.0.0.1:$ROOT_CLUSTER" -edge-id edge-2 \
  -spool "$TMP/spool2" -ship-interval 100ms \
  >"$TMP/edge2.log" 2>&1 &
PIDS+=($!)

wait_http() { # wait_http <port>
  for _ in $(seq 1 100); do
    if curl -sf "http://127.0.0.1:$1/metrics" >/dev/null 2>&1; then return; fi
    sleep 0.1
  done
  echo "smoke_cluster: server on port $1 never came up" >&2
  exit 1
}
wait_http "$ROOT_HTTP"; wait_http "$E1_HTTP"; wait_http "$E2_HTTP"

STREAM=smoke
S="/v1/streams/$STREAM"
create_stream() { # create_stream <port>: the stream inherits the flags
  curl -sf -X POST -d "{\"name\":\"$STREAM\"}" "http://127.0.0.1:$1/v1/streams" >/dev/null
}
create_stream "$E1_HTTP"; create_stream "$E2_HTTP"

# One raw item is an 8-byte little-endian uint64; a batch is their
# concatenation (the .../batch wire format).
batch() { # batch <key>...
  local k v i
  for k in "$@"; do
    v=$k
    for i in 0 1 2 3 4 5 6 7; do
      printf '\\x%02x' $((v & 0xff))
      v=$((v >> 8))
    done
  done
}
post_batch() { # post_batch <port> <key>...
  local port=$1; shift
  # shellcheck disable=SC2059 # batch emits \xNN escapes for printf to expand
  printf "$(batch "$@")" |
    curl -sf -X POST --data-binary @- "http://127.0.0.1:$port$S/batch" >/dev/null
}

folded() { # current dpmg_cluster_folded_total at the root
  curl -sf "http://127.0.0.1:$ROOT_HTTP/metrics" |
    awk '$1 == "dpmg_cluster_folded_total" { print $2; found = 1 } END { if (!found) print 0 }'
}
wait_folded() { # wait_folded <count>
  for _ in $(seq 1 100); do
    [ "$(folded)" -ge "$1" ] && return
    sleep 0.1
  done
  echo "smoke_cluster: root never folded $1 summaries (have $(folded))" >&2
  exit 1
}

echo "== both edges ingest and ship" >&2
post_batch "$E1_HTTP" 1 1 1 2 2
wait_folded 1
post_batch "$E2_HTTP" 1 1 3 3 3 3
wait_folded 2

echo "== kill edge-1 mid-run; root serves from the survivor" >&2
kill -9 "$EDGE1_PID"
post_batch "$E2_HTTP" 2
wait_folded 3
curl -sf "http://127.0.0.1:$ROOT_HTTP$S/release?eps=1&delta=0.000001" >/dev/null

echo "== restart edge-1 (same identity and spool); re-ship is idempotent" >&2
start_edge1
wait_http "$E1_HTTP"
create_stream "$E1_HTTP"
post_batch "$E1_HTTP" 1
wait_folded 4

# Zero double-counts: every fold at the root is a distinct sequence, so
# summaries_merged on the fan-in stream must equal the fold count exactly.
merged="$(curl -sf "http://127.0.0.1:$ROOT_HTTP$S/stats" |
  sed -n 's/.*"summaries_merged":\([0-9]*\).*/\1/p')"
if [ "$merged" != "4" ]; then
  echo "smoke_cluster: root merged $merged summaries, want exactly 4 (double-count or loss)" >&2
  exit 1
fi

echo "== releases are root-only" >&2
code="$(curl -s -o /dev/null -w '%{http_code}' \
  "http://127.0.0.1:$E2_HTTP$S/release?eps=1&delta=0.000001")"
if [ "$code" != "403" ]; then
  echo "smoke_cluster: edge answered release with $code, want 403" >&2
  exit 1
fi
code="$(curl -s -o /dev/null -w '%{http_code}' \
  "http://127.0.0.1:$ROOT_HTTP$S/release?eps=1&delta=0.000001")"
if [ "$code" != "200" ]; then
  echo "smoke_cluster: root answered release with $code, want 200" >&2
  exit 1
fi

echo "smoke_cluster: OK (4 folds, survivor served through the kill, restart deduped)" >&2
