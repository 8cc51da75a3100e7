#!/usr/bin/env bash
# Cluster smoke gate (run by `make cluster-smoke` and the CI
# cluster-smoke job), in five acts:
#
#   1. Differential: 3 shards + router + a single-node reference at
#      SF 0.01. Every merged result the router returns must match the
#      reference byte for byte at full 3/3 shard coverage, with zero
#      failed queries and zero detections.
#   2. Injection: the load generator plants faults through the router's
#      /inject relay. Queries must keep succeeding at 3/3 coverage and
#      the corruptions must surface in the router's merge-point
#      detection counter - never as failures.
#   3. Shard loss: kill one shard of the single-replica router. It must
#      quarantine it and keep answering in explicit degraded mode (2/3
#      coverage), stay ready, and then drain cleanly on SIGTERM.
#   4. Replica takeover: a second router with two replicas per slice.
#      Killing a primary must NOT degrade service - the router
#      quarantines it, promotes the replica, records the transition on
#      /alerts, and every response stays 3/3 and byte-identical to the
#      single-node reference.
#   5. Anti-entropy: corrupt a replica's hardened column through
#      /inject, then POST /sync/from-peer naming its healthy twin. The
#      chunk-digest sync must heal the column (chunks_healed > 0, a
#      second pass finds nothing), and the replica's answers must come
#      back byte-identical to the peer's with zero detections.
set -euo pipefail

REF_ADDR=127.0.0.1:18100
S1_ADDR=127.0.0.1:18101
S2_ADDR=127.0.0.1:18102
S3_ADDR=127.0.0.1:18103
P1_ADDR=127.0.0.1:18104
P2_ADDR=127.0.0.1:18105
P3_ADDR=127.0.0.1:18106
R1_ADDR=127.0.0.1:18107
R2_ADDR=127.0.0.1:18108
R3_ADDR=127.0.0.1:18109
RT_ADDR=127.0.0.1:18090
RT2_ADDR=127.0.0.1:18091
REF=http://$REF_ADDR
RT=http://$RT_ADDR
RT2=http://$RT2_ADDR

REF_LOG=$(mktemp) S1_LOG=$(mktemp) S2_LOG=$(mktemp) S3_LOG=$(mktemp)
P1_LOG=$(mktemp) P2_LOG=$(mktemp) P3_LOG=$(mktemp)
R1_LOG=$(mktemp) R2_LOG=$(mktemp) R3_LOG=$(mktemp) RT_LOG=$(mktemp) RT2_LOG=$(mktemp)
PIDS=()
cleanup() {
    for p in "${PIDS[@]}"; do kill "$p" 2>/dev/null || true; done
    echo "--- router log ---"; cat "$RT_LOG"
    echo "--- replica router log ---"; cat "$RT2_LOG"
    rm -f "$REF_LOG" "$S1_LOG" "$S2_LOG" "$S3_LOG" "$P1_LOG" "$P2_LOG" "$P3_LOG" \
        "$R1_LOG" "$R2_LOG" "$R3_LOG" "$RT_LOG" "$RT2_LOG"
}
trap cleanup EXIT

go build -o bin/ahead-serve ./cmd/ahead-serve
go build -o bin/ahead-router ./cmd/ahead-router
go build -o bin/ahead-loadgen ./cmd/ahead-loadgen

wait_ready() {
    for _ in $(seq 1 120); do
        if curl -fsS "$1/readyz" >/dev/null 2>&1; then return 0; fi
        if ! kill -0 "$2" 2>/dev/null; then
            echo "FAIL: $3 died during startup" >&2; exit 1
        fi
        sleep 0.5
    done
    echo "FAIL: $3 never became ready" >&2; exit 1
}

metric() { echo "$2" | awk -v m="$1" '$1 == m { print $2 }'; }

echo "=== boot: 3 shards + single-node reference + router ==="
./bin/ahead-serve -addr "$REF_ADDR" -sf 0.01 >"$REF_LOG" 2>&1 &
REF_PID=$!; PIDS+=("$REF_PID")
./bin/ahead-serve -addr "$S1_ADDR" -sf 0.01 -shard 1/3 -inject-seed 42 >"$S1_LOG" 2>&1 &
S1_PID=$!; PIDS+=("$S1_PID")
./bin/ahead-serve -addr "$S2_ADDR" -sf 0.01 -shard 2/3 -inject-seed 43 >"$S2_LOG" 2>&1 &
S2_PID=$!; PIDS+=("$S2_PID")
./bin/ahead-serve -addr "$S3_ADDR" -sf 0.01 -shard 3/3 -inject-seed 44 >"$S3_LOG" 2>&1 &
S3_PID=$!; PIDS+=("$S3_PID")
wait_ready "$REF" "$REF_PID" reference
wait_ready "http://$S1_ADDR" "$S1_PID" shard1
wait_ready "http://$S2_ADDR" "$S2_PID" shard2
wait_ready "http://$S3_ADDR" "$S3_PID" shard3

./bin/ahead-router -addr "$RT_ADDR" \
    -shards "http://$S1_ADDR,http://$S2_ADDR,http://$S3_ADDR" \
    -probe-interval 200ms -quarantine-after 3 -backoff-base 2s >"$RT_LOG" 2>&1 &
RT_PID=$!; PIDS+=("$RT_PID")
wait_ready "$RT" "$RT_PID" router

echo "=== act 1: merged results must equal the single-node reference ==="
./bin/ahead-loadgen -addr "$RT" -concurrency 16 -duration 10s -seed 7 \
    -reference "$REF" -expect-shards 3/3

METRICS=$(curl -fsS "$RT/metrics")
SERVED=$(metric ahead_router_queries_total "$METRICS")
FAILED=$(metric ahead_router_queries_failed_total "$METRICS")
DETECTED=$(metric ahead_router_detected_errors_total "$METRICS")
[ "$SERVED" -gt 0 ] || { echo "FAIL: router served nothing" >&2; exit 1; }
[ "$FAILED" -eq 0 ] || { echo "FAIL: $FAILED router queries failed" >&2; exit 1; }
[ "$DETECTED" -eq 0 ] || { echo "FAIL: $DETECTED detections without injection" >&2; exit 1; }

echo "=== act 2: injected faults must be detected at the merge, not failed ==="
./bin/ahead-loadgen -addr "$RT" -concurrency 16 -duration 10s -seed 11 \
    -inject-rate 0.05 -expect-shards 3/3

METRICS=$(curl -fsS "$RT/metrics")
echo "$METRICS" | grep -E '^ahead_router' || true
FAILED=$(metric ahead_router_queries_failed_total "$METRICS")
DETECTED=$(metric ahead_router_detected_errors_total "$METRICS")
[ "$FAILED" -eq 0 ] || { echo "FAIL: $FAILED router queries failed under injection" >&2; exit 1; }
[ "$DETECTED" -gt 0 ] || { echo "FAIL: injected faults never surfaced at the merge" >&2; exit 1; }

echo "=== act 3: shard loss must degrade service, not break it ==="
kill -9 "$S3_PID"
# Give the probe loop time to accumulate consecutive failures and
# quarantine the dead shard (200ms probes, threshold 3).
sleep 3

./bin/ahead-loadgen -addr "$RT" -concurrency 8 -duration 5s -seed 13 \
    -expect-shards 2/3

METRICS=$(curl -fsS "$RT/metrics")
DEGRADED=$(metric ahead_router_queries_degraded_total "$METRICS")
UP3=$(echo "$METRICS" | awk '$1 == "ahead_router_shard_up{shard=\"2\",replica=\"0\"}" { print $2 }')
QUAR3=$(echo "$METRICS" | awk '$1 == "ahead_router_shard_quarantines_total{shard=\"2\",replica=\"0\"}" { print $2 }')
[ "$DEGRADED" -gt 0 ] || { echo "FAIL: no degraded responses after shard loss" >&2; exit 1; }
[ "$UP3" = 0 ] || { echo "FAIL: dead shard still marked up" >&2; exit 1; }
[ "$QUAR3" -gt 0 ] || { echo "FAIL: dead shard never quarantined" >&2; exit 1; }
curl -fsS "$RT/readyz" >/dev/null || { echo "FAIL: router not ready in degraded mode" >&2; exit 1; }

echo "--- drain the single-replica router ---"
kill -TERM "$RT_PID"
for _ in $(seq 1 60); do
    if ! kill -0 "$RT_PID" 2>/dev/null; then break; fi
    sleep 0.5
done
if kill -0 "$RT_PID" 2>/dev/null; then
    echo "FAIL: router did not drain within 30s" >&2; exit 1
fi
wait "$RT_PID" || true
grep -q '^bye$' "$RT_LOG" || { echo "FAIL: router exited without draining" >&2; exit 1; }

echo "=== act 4: killing a primary must promote its replica, not degrade ==="
# A fresh 3-slice x 2-replica tier: clean primaries (acts 1-3 planted
# persistent corruption in S1/S2 via /inject, so they cannot back a
# byte-identical comparison) plus a second replica of each slice -
# identical deterministic partitions from the same (sf, seed, shard).
./bin/ahead-serve -addr "$P1_ADDR" -sf 0.01 -shard 1/3 >"$P1_LOG" 2>&1 &
P1_PID=$!; PIDS+=("$P1_PID")
./bin/ahead-serve -addr "$P2_ADDR" -sf 0.01 -shard 2/3 >"$P2_LOG" 2>&1 &
P2_PID=$!; PIDS+=("$P2_PID")
./bin/ahead-serve -addr "$P3_ADDR" -sf 0.01 -shard 3/3 >"$P3_LOG" 2>&1 &
P3_PID=$!; PIDS+=("$P3_PID")
./bin/ahead-serve -addr "$R1_ADDR" -sf 0.01 -shard 1/3 -replica 1 -inject-seed 51 >"$R1_LOG" 2>&1 &
R1_PID=$!; PIDS+=("$R1_PID")
./bin/ahead-serve -addr "$R2_ADDR" -sf 0.01 -shard 2/3 -replica 1 >"$R2_LOG" 2>&1 &
R2_PID=$!; PIDS+=("$R2_PID")
./bin/ahead-serve -addr "$R3_ADDR" -sf 0.01 -shard 3/3 -replica 1 >"$R3_LOG" 2>&1 &
R3_PID=$!; PIDS+=("$R3_PID")
wait_ready "http://$P1_ADDR" "$P1_PID" primary1
wait_ready "http://$P2_ADDR" "$P2_PID" primary2
wait_ready "http://$P3_ADDR" "$P3_PID" primary3
wait_ready "http://$R1_ADDR" "$R1_PID" replica1
wait_ready "http://$R2_ADDR" "$R2_PID" replica2
wait_ready "http://$R3_ADDR" "$R3_PID" replica3

./bin/ahead-router -addr "$RT2_ADDR" \
    -shards "http://$P1_ADDR|http://$R1_ADDR,http://$P2_ADDR|http://$R2_ADDR,http://$P3_ADDR|http://$R3_ADDR" \
    -probe-interval 200ms -quarantine-after 3 -backoff-base 2s -hedge-delay 50ms >"$RT2_LOG" 2>&1 &
RT2_PID=$!; PIDS+=("$RT2_PID")
wait_ready "$RT2" "$RT2_PID" replica-router

# Healthy baseline: full coverage, byte-identical to the single node.
./bin/ahead-loadgen -addr "$RT2" -concurrency 8 -duration 5s -seed 17 \
    -reference "$REF" -expect-shards 3/3

# Kill slice 2's primary mid-flight; the replica must absorb every query.
kill -9 "$P2_PID"
sleep 2
./bin/ahead-loadgen -addr "$RT2" -concurrency 8 -duration 5s -seed 19 \
    -reference "$REF" -expect-shards 3/3

METRICS=$(curl -fsS "$RT2/metrics")
echo "$METRICS" | grep -E '^ahead_router' || true
DEGRADED2=$(metric ahead_router_queries_degraded_total "$METRICS")
UP2=$(echo "$METRICS" | awk '$1 == "ahead_router_shard_up{shard=\"1\",replica=\"0\"}" { print $2 }')
PREF2=$(echo "$METRICS" | awk '$1 == "ahead_router_slice_preferred_replica{shard=\"1\"}" { print $2 }')
PROMOTES=$(echo "$METRICS" | awk '$1 == "ahead_router_remediations_total{action=\"promote\"}" { print $2 }')
TRANSITIONS=$(echo "$METRICS" | awk '$1 == "ahead_router_health_transitions_total{to=\"quarantined\"}" { print $2 }')
[ "$DEGRADED2" -eq 0 ] || { echo "FAIL: $DEGRADED2 degraded responses despite live replicas" >&2; exit 1; }
[ "$UP2" = 0 ] || { echo "FAIL: killed primary still marked up" >&2; exit 1; }
[ "$PREF2" = 1 ] || { echo "FAIL: slice 2 never promoted its replica (preferred=$PREF2)" >&2; exit 1; }
[ "$PROMOTES" -gt 0 ] || { echo "FAIL: no promote remediation recorded" >&2; exit 1; }
[ "$TRANSITIONS" -gt 0 ] || { echo "FAIL: no quarantine transition recorded" >&2; exit 1; }

ALERTS=$(curl -fsS "$RT2/alerts")
echo "$ALERTS" | grep -q '"quarantined"' || { echo "FAIL: /alerts missing the quarantine transition" >&2; exit 1; }
echo "$ALERTS" | grep -q '"promote"' || { echo "FAIL: /alerts missing the promote remediation" >&2; exit 1; }

echo "--- graceful drain ---"
kill -TERM "$RT2_PID"
for _ in $(seq 1 60); do
    if ! kill -0 "$RT2_PID" 2>/dev/null; then break; fi
    sleep 0.5
done
if kill -0 "$RT2_PID" 2>/dev/null; then
    echo "FAIL: replica router did not drain within 30s" >&2; exit 1
fi
wait "$RT2_PID" || true
grep -q '^bye$' "$RT2_LOG" || { echo "FAIL: replica router exited without draining" >&2; exit 1; }

echo "=== act 5: anti-entropy sync must heal a corrupted replica from its peer ==="
# R1 and P1 hold identical shard-1/3 partitions. An unfiltered sum
# touches every row of the target column, so planted corruption cannot
# hide from the comparison.
Q='{"adhoc":{"table":"lineorder","agg":"sum","agg_col":"lo_quantity"},"mode":"continuous"}'
strip_elapsed() { sed -E 's/"elapsed_ms":[0-9.eE+-]+//g'; }
REF_BODY=$(curl -fsS -X POST "http://$P1_ADDR/query" -d "$Q" | strip_elapsed)

INJ=$(curl -fsS -X POST "http://$R1_ADDR/inject" -d '{"col":"lo_quantity","count":8}')
echo "injected: $INJ"
CORRUPT_BODY=$(curl -fsS -X POST "http://$R1_ADDR/query" -d "$Q" | strip_elapsed)
echo "$CORRUPT_BODY" | grep -q '"detected"' \
    || { echo "FAIL: corrupted replica reported no detections" >&2; exit 1; }

sum_healed() { grep -o '"chunks_healed":[0-9]*' | awk -F: '{ s += $2 } END { print s+0 }'; }
SYNC=$(curl -fsS -X POST "http://$R1_ADDR/sync/from-peer" -d "{\"peer\":\"http://$P1_ADDR\"}")
echo "sync: $SYNC"
HEALED1=$(echo "$SYNC" | sum_healed)
[ "$HEALED1" -gt 0 ] || { echo "FAIL: sync healed no chunks" >&2; exit 1; }
echo "$SYNC" | grep -q '"skipped"' && { echo "FAIL: sync skipped a column" >&2; exit 1; }

# Convergence: an immediate second pass must find nothing to heal.
HEALED2=$(curl -fsS -X POST "http://$R1_ADDR/sync/from-peer" \
    -d "{\"peer\":\"http://$P1_ADDR\"}" | sum_healed)
[ "$HEALED2" -eq 0 ] || { echo "FAIL: second sync pass healed $HEALED2 chunks" >&2; exit 1; }

POST_BODY=$(curl -fsS -X POST "http://$R1_ADDR/query" -d "$Q" | strip_elapsed)
echo "$POST_BODY" | grep -q '"detected"' \
    && { echo "FAIL: healed replica still reports detections" >&2; exit 1; }
[ "$POST_BODY" = "$REF_BODY" ] \
    || { echo "FAIL: healed replica diverges from its peer:" >&2
         echo "peer:    $REF_BODY" >&2
         echo "replica: $POST_BODY" >&2; exit 1; }

R1_METRICS=$(curl -fsS "http://$R1_ADDR/metrics")
SYNC_RUNS=$(metric ahead_sync_runs_total "$R1_METRICS")
SYNC_CHUNKS=$(metric ahead_sync_healed_chunks_total "$R1_METRICS")
[ "$SYNC_RUNS" -eq 2 ] || { echo "FAIL: expected 2 sync runs, saw $SYNC_RUNS" >&2; exit 1; }
[ "$SYNC_CHUNKS" -gt 0 ] || { echo "FAIL: no healed chunks counted" >&2; exit 1; }

for spec in "$S1_PID:$S1_LOG:shard1" "$S2_PID:$S2_LOG:shard2" \
            "$P1_PID:$P1_LOG:primary1" "$P3_PID:$P3_LOG:primary3" \
            "$R1_PID:$R1_LOG:replica1" "$R2_PID:$R2_LOG:replica2" \
            "$R3_PID:$R3_LOG:replica3" "$REF_PID:$REF_LOG:reference"; do
    pid=${spec%%:*}; rest=${spec#*:}; log=${rest%%:*}; name=${rest#*:}
    kill -TERM "$pid"
    for _ in $(seq 1 60); do
        if ! kill -0 "$pid" 2>/dev/null; then break; fi
        sleep 0.5
    done
    wait "$pid" || true
    grep -q '^bye$' "$log" || { echo "FAIL: $name exited without draining" >&2; exit 1; }
done

echo "cluster-smoke OK: served=$SERVED detected=$DETECTED degraded=$DEGRADED promotes=$PROMOTES sync_healed=$SYNC_CHUNKS"
