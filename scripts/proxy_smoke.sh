#!/usr/bin/env sh
# Multi-process serving smoke: boots a 2-shard fbadsd topology plus a proxy
# that sends each estimate to one shard in rotation, floods it with
# cmd/fbadsload, and gates failover. Every shard holds the whole world's
# shares, so every answer served is exact; the "degraded" stamp means a
# shard is down, not that a number is approximate.
#
#   1. healthy renormalize proxy answers the whole flood with 0 errors,
#      0 sheds and 0 deadline expiries;
#   2. replica pass: shard 0 runs as a two-replica set behind a hedging
#      proxy; one replica is killed mid-flood — the lane fails if the flood
#      has already finished by then — and the flood must finish with
#      0 errors, 0 degraded stamps, and the post-kill answer must be
#      byte-identical to the healthy one (replica failover is EXACT);
#   3. with shard 1 killed, the renormalize proxy still answers everything
#      (0 errors), stamps responses degraded (gated via the loadgen
#      "degraded" tally), and answers the healthy reach (failover to the
#      other shard is exact too);
#   4. a fail-policy proxy over the same (half-dead) topology answers 503
#      with a JSON body naming the dead shard's URL.
#
# The slow-shard pass (RPC timeout, breaker, renormalize) is a Go test:
# TestServerOverProxySlowShard in internal/adsapi.
#
# Parameterized by environment so CI can scale it down:
#   CATALOG, POPULATION  world size (must match across every process)
#   ACCOUNTS, PROBES, INTERESTS, CONCURRENCY  flood shape
#   REPLICA_PROBES  per-account probes of the replica lane's flood (default:
#                   ~20000 requests in all, enough to outlast the kill)
#   OUT_JSON  where the healthy-run loadgen baseline JSON goes
# Binaries and scratch answers go to a fresh directory under $TMPDIR
# (default /tmp), removed on exit.
set -eu

CATALOG="${CATALOG:-4000}"
POPULATION="${POPULATION:-2000001}"
ACCOUNTS="${ACCOUNTS:-40}"
PROBES="${PROBES:-5}"
INTERESTS="${INTERESTS:-10}"
CONCURRENCY="${CONCURRENCY:-8}"
REPLICA_PROBES="${REPLICA_PROBES:-$(( (20000 + ACCOUNTS - 1) / ACCOUNTS ))}"
if [ "$REPLICA_PROBES" -lt "$PROBES" ]; then
    REPLICA_PROBES="$PROBES"
fi
OUT_JSON="${OUT_JSON:-proxy-smoke.json}"
WORK="$(mktemp -d)"

SHARD0_PORT=19100
SHARD1_PORT=19101
SHARD0B_PORT=19102
PROXY_PORT=19080
FAIL_PROXY_PORT=19081
REPLICA_PROXY_PORT=19083

WORLD="-catalog $CATALOG -population $POPULATION"
# fbadsload is a client: the world flag it needs is the catalog to draw
# interest IDs from.
FLOOD="-catalog $CATALOG -accounts $ACCOUNTS -interests $INTERESTS -concurrency $CONCURRENCY"
LOAD="$FLOOD -probes $PROBES"
PIDS=""
cleanup() {
    for pid in $PIDS; do
        kill "$pid" 2>/dev/null || true
    done
    # A shard mid-model-build can shrug off SIGTERM's grace; escalate so an
    # aborted smoke never strands bench-scale processes (and their ports).
    sleep 1
    for pid in $PIDS; do
        kill -9 "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "==> building fbadsd and fbadsload"
go build -o $WORK/fbadsd ./cmd/fbadsd
go build -o $WORK/fbadsload ./cmd/fbadsload

# Bench-scale worlds (make bench-serving) take far longer to build than the
# CI smoke world, so the boot wait is generous: 600 x 0.2s = 2 minutes.
wait_http() {
    url="$1"; tries=0
    until curl -gfsS "$url" >/dev/null 2>&1; do
        tries=$((tries + 1))
        if [ "$tries" -gt 600 ]; then
            echo "FAIL: $url never came up" >&2
            exit 1
        fi
        sleep 0.2
    done
}

echo "==> booting 2 shard processes"
$WORK/fbadsd $WORLD -shard-of 0/2 -shard-listen "127.0.0.1:$SHARD0_PORT" &
PIDS="$PIDS $!"
$WORK/fbadsd $WORLD -shard-of 1/2 -shard-listen "127.0.0.1:$SHARD1_PORT" &
SHARD1_PID=$!
PIDS="$PIDS $SHARD1_PID"
wait_http "http://127.0.0.1:$SHARD0_PORT/shard/v1/health"
wait_http "http://127.0.0.1:$SHARD1_PORT/shard/v1/health"

echo "==> booting renormalize and fail proxies"
SHARD_URLS="http://127.0.0.1:$SHARD0_PORT,http://127.0.0.1:$SHARD1_PORT"
$WORK/fbadsd $WORLD -proxy "$SHARD_URLS" -degrade renormalize \
    -health-interval 200ms -addr "127.0.0.1:$PROXY_PORT" &
PIDS="$PIDS $!"
$WORK/fbadsd $WORLD -proxy "$SHARD_URLS" -degrade fail \
    -health-interval 200ms -addr "127.0.0.1:$FAIL_PROXY_PORT" &
PIDS="$PIDS $!"
SPEC='{"geo_locations":{"countries":["ES"]}}'
wait_http "http://127.0.0.1:$PROXY_PORT/v9.0/act_1/reachestimate?targeting_spec=$SPEC"
wait_http "http://127.0.0.1:$FAIL_PROXY_PORT/v9.0/act_1/reachestimate?targeting_spec=$SPEC"

# The healthy reach, which failover to the surviving shard must reproduce.
curl -gfsS "http://127.0.0.1:$PROXY_PORT/v9.0/act_1/reachestimate?targeting_spec=$SPEC" \
    > "$WORK/healthy.json"

echo "==> flood 1: healthy 2-shard topology through the renormalize proxy"
$WORK/fbadsload -url "http://127.0.0.1:$PROXY_PORT" \
    $LOAD -note "proxy 2-process topology (healthy)" \
    -json "$OUT_JSON"
for gate in '"errors": 0' '"shed": 0' '"deadline_exceeded": 0'; do
    grep -q "$gate" "$OUT_JSON" || {
        echo "FAIL: healthy proxy flood missing $gate:" >&2
        cat "$OUT_JSON" >&2
        exit 1
    }
done
if grep -q '"degraded"' "$OUT_JSON"; then
    echo "FAIL: healthy proxy stamped responses degraded" >&2
    exit 1
fi

echo "==> flood 2 (replicas): shard 0 replicated, one replica killed mid-flood"
REPLICA_JSON="${OUT_JSON%.json}-replica.json"
$WORK/fbadsd $WORLD -shard-of 0/2 -shard-listen "127.0.0.1:$SHARD0B_PORT" &
SHARD0B_PID=$!
PIDS="$PIDS $SHARD0B_PID"
wait_http "http://127.0.0.1:$SHARD0B_PORT/shard/v1/health"
REPLICA_URLS="http://127.0.0.1:$SHARD0_PORT|http://127.0.0.1:$SHARD0B_PORT,http://127.0.0.1:$SHARD1_PORT"
$WORK/fbadsd $WORLD -proxy "$REPLICA_URLS" -degrade renormalize \
    -hedge-after 50ms -health-interval 200ms -addr "127.0.0.1:$REPLICA_PROXY_PORT" &
PIDS="$PIDS $!"
wait_http "http://127.0.0.1:$REPLICA_PROXY_PORT/v9.0/act_1/reachestimate?targeting_spec=$SPEC"
# Reference answer with every replica healthy: replica failover must
# reproduce it byte-for-byte later.
curl -gfsS "http://127.0.0.1:$REPLICA_PROXY_PORT/v9.0/act_1/reachestimate?targeting_spec=$SPEC" \
    > "$WORK/replica-healthy.json"
$WORK/fbadsload -url "http://127.0.0.1:$REPLICA_PROXY_PORT" \
    $FLOOD -probes "$REPLICA_PROBES" \
    -note "proxy 3-process topology (shard 0 x2 replicas, replica b killed mid-flood)" \
    -json "$REPLICA_JSON" &
FLOOD_PID=$!
sleep 0.2
if ! kill -0 "$FLOOD_PID" 2>/dev/null; then
    echo "FAIL: the replica flood finished before replica b was killed; raise REPLICA_PROBES" >&2
    exit 1
fi
echo "==> killing shard 0 replica b ($SHARD0B_PID) mid-flood"
kill "$SHARD0B_PID"
wait "$SHARD0B_PID" 2>/dev/null || true
wait "$FLOOD_PID"
# A dead REPLICA must be invisible: nothing errored, nothing shed or
# out-deadlined, and — unlike a dead SHARD — nothing renormalized.
for gate in '"errors": 0' '"shed": 0' '"deadline_exceeded": 0'; do
    grep -q "$gate" "$REPLICA_JSON" || {
        echo "FAIL: replica flood missing $gate:" >&2
        cat "$REPLICA_JSON" >&2
        exit 1
    }
done
if grep -q '"degraded"' "$REPLICA_JSON"; then
    echo "FAIL: replica failover stamped responses degraded (failover must be exact)" >&2
    cat "$REPLICA_JSON" >&2
    exit 1
fi
curl -gfsS "http://127.0.0.1:$REPLICA_PROXY_PORT/v9.0/act_1/reachestimate?targeting_spec=$SPEC" \
    > "$WORK/replica-failover.json"
cmp "$WORK/replica-healthy.json" "$WORK/replica-failover.json" || {
    echo "FAIL: answer changed after losing a replica (want byte-identical):" >&2
    cat "$WORK/replica-healthy.json" "$WORK/replica-failover.json" >&2
    exit 1
}

echo "==> killing shard 1 ($SHARD1_PID)"
kill "$SHARD1_PID"
wait "$SHARD1_PID" 2>/dev/null || true
sleep 1  # > health-interval: let the probes notice

echo "==> flood 3: one shard down, renormalize proxy must answer everything"
DEGRADED_JSON="${OUT_JSON%.json}-degraded.json"
$WORK/fbadsload -url "http://127.0.0.1:$PROXY_PORT" \
    $LOAD -note "proxy 2-process topology (shard 1 down, renormalize)" \
    -json "$DEGRADED_JSON"
grep -q '"errors": 0' "$DEGRADED_JSON" || {
    echo "FAIL: degraded proxy flood had request errors:" >&2
    cat "$DEGRADED_JSON" >&2
    exit 1
}
grep -q '"degraded"' "$DEGRADED_JSON" || {
    echo "FAIL: renormalize responses with a dead shard were not stamped degraded" >&2
    cat "$DEGRADED_JSON" >&2
    exit 1
}
curl -gfsS "http://127.0.0.1:$PROXY_PORT/v9.0/act_1/reachestimate?targeting_spec=$SPEC" \
    > "$WORK/degraded.json"
users() { sed -n 's/.*"users":\([0-9]*\).*/\1/p' "$1"; }
if [ -z "$(users "$WORK/healthy.json")" ] || [ "$(users "$WORK/healthy.json")" != "$(users "$WORK/degraded.json")" ]; then
    echo "FAIL: reach changed with shard 1 down (want the healthy answer):" >&2
    cat "$WORK/healthy.json" "$WORK/degraded.json" >&2
    exit 1
fi

echo "==> fail-policy proxy must 503 naming the dead shard"
BODY=$(curl -gs -w '\n%{http_code}' \
    "http://127.0.0.1:$FAIL_PROXY_PORT/v9.0/act_1/reachestimate?targeting_spec=$SPEC")
STATUS=$(printf '%s' "$BODY" | tail -n 1)
PAYLOAD=$(printf '%s' "$BODY" | sed '$d')
if [ "$STATUS" != "503" ]; then
    echo "FAIL: fail-policy proxy answered HTTP $STATUS, want 503 ($PAYLOAD)" >&2
    exit 1
fi
case "$PAYLOAD" in
*"127.0.0.1:$SHARD1_PORT"*) ;;
*)
    echo "FAIL: 503 body does not name the dead shard: $PAYLOAD" >&2
    exit 1
    ;;
esac

echo "PASS: proxy topology served every request exactly, stamped shard loss, and failed loudly"
