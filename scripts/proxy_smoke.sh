#!/usr/bin/env sh
# Multi-process serving smoke: boots three whole-world fbadsd replicas plus
# proxies that send each estimate to one replica in rotation, floods them
# with cmd/fbadsload, and gates failover. Every replica serves the
# byte-identical world, so every answer served is exact, whichever replica
# gives it.
#
#   1. a healthy proxy answers the whole flood with 0 errors, 0 sheds and
#      0 deadline expiries;
#   2. replica lane: a hedging proxy over the same replicas loses replica c
#      mid-flood — the lane fails if the flood has already finished by
#      then — and the flood must finish with 0 errors, 0 sheds and 0
#      deadline expiries, and the post-kill answer must be byte-identical
#      to the healthy one (failover is EXACT);
#   3. with replica b killed too, the last replica answers a flood with
#      0 errors, and its answer is byte-identical to the healthy one;
#   4. with every replica dead, the proxy answers 503 with a JSON body
#      naming every replica's URL.
#
# The slow-replica pass (RPC timeout, breaker, failover) is a Go test:
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

REPLICA_A_PORT=19100
REPLICA_B_PORT=19101
REPLICA_C_PORT=19102
PROXY_PORT=19080
HEDGE_PROXY_PORT=19083

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
    # A replica mid-model-build can shrug off SIGTERM's grace; escalate so
    # an aborted smoke never strands bench-scale processes (and their ports).
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

# gate_flood FILE WHAT: the flood result in FILE answered every request.
gate_flood() {
    for gate in '"errors": 0' '"shed": 0' '"deadline_exceeded": 0'; do
        grep -q "$gate" "$1" || {
            echo "FAIL: $2 flood missing $gate:" >&2
            cat "$1" >&2
            exit 1
        }
    done
}

SPEC='{"geo_locations":{"countries":["ES"]}}'
# answer PORT FILE: one reach estimate through the proxy on PORT.
answer() {
    curl -gfsS "http://127.0.0.1:$1/v9.0/act_1/reachestimate?targeting_spec=$SPEC" > "$2"
}
# same_as_healthy FILE WHAT: FILE is byte-identical to the healthy answer.
same_as_healthy() {
    cmp "$WORK/healthy.json" "$1" || {
        echo "FAIL: answer changed $2 (want byte-identical):" >&2
        cat "$WORK/healthy.json" "$1" >&2
        exit 1
    }
}

echo "==> booting 3 whole-world replicas"
$WORK/fbadsd $WORLD -shard-listen "127.0.0.1:$REPLICA_A_PORT" &
REPLICA_A_PID=$!
$WORK/fbadsd $WORLD -shard-listen "127.0.0.1:$REPLICA_B_PORT" &
REPLICA_B_PID=$!
$WORK/fbadsd $WORLD -shard-listen "127.0.0.1:$REPLICA_C_PORT" &
REPLICA_C_PID=$!
PIDS="$PIDS $REPLICA_A_PID $REPLICA_B_PID $REPLICA_C_PID"
for port in $REPLICA_A_PORT $REPLICA_B_PORT $REPLICA_C_PORT; do
    wait_http "http://127.0.0.1:$port/shard/v1/health"
done

echo "==> booting a plain and a hedging proxy"
REPLICA_URLS="http://127.0.0.1:$REPLICA_A_PORT,http://127.0.0.1:$REPLICA_B_PORT,http://127.0.0.1:$REPLICA_C_PORT"
$WORK/fbadsd $WORLD -proxy "$REPLICA_URLS" \
    -health-interval 200ms -addr "127.0.0.1:$PROXY_PORT" &
PIDS="$PIDS $!"
$WORK/fbadsd $WORLD -proxy "$REPLICA_URLS" -hedge-after 50ms \
    -health-interval 200ms -addr "127.0.0.1:$HEDGE_PROXY_PORT" &
PIDS="$PIDS $!"
wait_http "http://127.0.0.1:$PROXY_PORT/v9.0/act_1/reachestimate?targeting_spec=$SPEC"
wait_http "http://127.0.0.1:$HEDGE_PROXY_PORT/v9.0/act_1/reachestimate?targeting_spec=$SPEC"

# The healthy answer, which every later lane must reproduce byte for byte.
answer $PROXY_PORT "$WORK/healthy.json"
answer $HEDGE_PROXY_PORT "$WORK/hedge-healthy.json"
same_as_healthy "$WORK/hedge-healthy.json" "between the plain and the hedging proxy"

echo "==> flood 1: healthy 3-replica topology"
$WORK/fbadsload -url "http://127.0.0.1:$PROXY_PORT" \
    $LOAD -note "proxy over 3 replica processes (healthy)" \
    -json "$OUT_JSON"
gate_flood "$OUT_JSON" "healthy proxy"

echo "==> flood 2 (replicas): hedging proxy, replica c killed mid-flood"
REPLICA_JSON="${OUT_JSON%.json}-replica.json"
$WORK/fbadsload -url "http://127.0.0.1:$HEDGE_PROXY_PORT" \
    $FLOOD -probes "$REPLICA_PROBES" \
    -note "hedging proxy over 3 replica processes (replica c killed mid-flood)" \
    -json "$REPLICA_JSON" &
FLOOD_PID=$!
sleep 0.2
if ! kill -0 "$FLOOD_PID" 2>/dev/null; then
    echo "FAIL: the replica flood finished before replica c was killed; raise REPLICA_PROBES" >&2
    exit 1
fi
echo "==> killing replica c ($REPLICA_C_PID) mid-flood"
kill "$REPLICA_C_PID"
wait "$REPLICA_C_PID" 2>/dev/null || true
wait "$FLOOD_PID"
gate_flood "$REPLICA_JSON" "replica"
answer $HEDGE_PROXY_PORT "$WORK/replica-failover.json"
same_as_healthy "$WORK/replica-failover.json" "after losing a replica"

echo "==> killing replica b ($REPLICA_B_PID): the last replica answers alone"
kill "$REPLICA_B_PID"
wait "$REPLICA_B_PID" 2>/dev/null || true
$WORK/fbadsload -url "http://127.0.0.1:$PROXY_PORT" \
    $LOAD -note "proxy over 3 replica processes (two dead)" \
    -json "$WORK/last-replica.json"
gate_flood "$WORK/last-replica.json" "last-replica"
answer $PROXY_PORT "$WORK/last-replica-answer.json"
same_as_healthy "$WORK/last-replica-answer.json" "with two replicas dead"

echo "==> killing replica a ($REPLICA_A_PID): the proxy must 503 naming every replica"
kill "$REPLICA_A_PID"
wait "$REPLICA_A_PID" 2>/dev/null || true
BODY=$(curl -gs -w '\n%{http_code}' \
    "http://127.0.0.1:$PROXY_PORT/v9.0/act_1/reachestimate?targeting_spec=$SPEC")
STATUS=$(printf '%s' "$BODY" | tail -n 1)
PAYLOAD=$(printf '%s' "$BODY" | sed '$d')
if [ "$STATUS" != "503" ]; then
    echo "FAIL: proxy with every replica dead answered HTTP $STATUS, want 503 ($PAYLOAD)" >&2
    exit 1
fi
for port in $REPLICA_A_PORT $REPLICA_B_PORT $REPLICA_C_PORT; do
    case "$PAYLOAD" in
    *"127.0.0.1:$port"*) ;;
    *)
        echo "FAIL: 503 body does not name the dead replica on port $port: $PAYLOAD" >&2
        exit 1
        ;;
    esac
done

echo "PASS: every request answered exactly through replica loss, and a loud 503 once none was left"
