#!/bin/sh
# cluster_smoke.sh — boot a coordinator over two real zbpd backends,
# exercise the fleet end to end, and prove the elastic-membership and
# coordinator-cache behavior: the cold sweep computes on the backends,
# the repeat sweep is served entirely from the coordinator's own
# result cache (zero backend dispatches), a third backend can be
# registered at runtime with `zbpctl backends add`, a member can be
# deregistered (draining first), and the whole fleet drains cleanly on
# SIGTERM. Used by `make cluster-smoke` and CI. No jq: responses are
# picked apart with grep/sed/awk.
set -eu

B1="127.0.0.1:18961"
B2="127.0.0.1:18962"
B3="127.0.0.1:18964"
CO="127.0.0.1:18963"
TMP="$(mktemp -d)"
BIN="$TMP/zbpd"
CTL="$TMP/zbpctl"
LOG1="$TMP/backend1.log"
LOG2="$TMP/backend2.log"
LOG3="$TMP/backend3.log"
LOGC="$TMP/coord.log"

cleanup() {
    for p in "${CPID:-}" "${PID1:-}" "${PID2:-}" "${PID3:-}"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/zbpd
go build -o "$CTL" ./cmd/zbpctl

"$BIN" -addr "$B1" -workers 2 -cache-dir "$TMP/cache1" >"$LOG1" 2>&1 &
PID1=$!
"$BIN" -addr "$B2" -workers 2 -cache-dir "$TMP/cache2" >"$LOG2" 2>&1 &
PID2=$!

wait_healthy() {
    i=0
    until curl -sf "http://$1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "cluster-smoke: $2 never became healthy" >&2
            cat "$3" >&2
            exit 1
        fi
        sleep 0.1
    done
}
wait_healthy "$B1" "backend 1" "$LOG1"
wait_healthy "$B2" "backend 2" "$LOG2"

# -audit-every -1: the coordinator's cache auditor re-dispatches
# sampled hits for real, which would break the zero-dispatch
# assertions below. -max-sweep-cells 4 admits the 4-cell sweeps below
# and nothing larger.
"$BIN" -coordinator -backends "http://$B1,http://$B2" -audit-every -1 \
    -max-sweep-cells 4 -addr "$CO" >"$LOGC" 2>&1 &
CPID=$!
wait_healthy "$CO" "coordinator" "$LOGC"

curl -sf "http://$CO/healthz" | grep -q '"role": "coordinator"' || {
    echo "cluster-smoke: coordinator healthz missing role" >&2
    curl -sf "http://$CO/healthz" >&2
    exit 1
}
echo "cluster-smoke: coordinator + 2 backends healthy"

# The coordinator enforces its own -max-sweep-cells: a 6-cell sync
# sweep is refused before anything is dispatched.
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$CO/v1/sweep" \
    -d '{"workloads":["loops","micro","callret"],"seeds":[1,2],"instructions":1000}')
[ "$CODE" = 400 ] || {
    echo "cluster-smoke: 6-cell sweep over a 4-cell cap answered $CODE, want 400" >&2
    exit 1
}
echo "cluster-smoke: coordinator grid cap enforced (6 cells -> 400)"

# metric prints one metric's value; the name must match exactly up to
# its label block ("backends" must not also match "backends_version").
metric() {
    curl -sf "http://$1/metrics" | grep "^$2[ {]" | sed 's/.* //'
}

# dispatched sums the coordinator's per-backend dispatch counters: how
# many /v1/cell calls ever left the coordinator.
dispatched() {
    curl -sf "http://$CO/healthz" |
        grep -o '"dispatched": [0-9]*' |
        awk '{ s += $2 } END { print s + 0 }'
}

SWEEP='{"sweep":{"workloads":["loops","micro"],"seeds":[1,2],"instructions":100000}}'
CELLS=4

submit_and_wait() {
    CREATED=$(curl -sf -X POST "http://$CO/v1/jobs" -d "$1")
    JOB=$(echo "$CREATED" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
    [ -n "$JOB" ] || {
        echo "cluster-smoke: no job ID in submit response: $CREATED" >&2
        exit 1
    }
    i=0
    while :; do
        STATUS=$(curl -sf "http://$CO/v1/jobs/$JOB")
        echo "$STATUS" | grep -q '"state": "done"' && break
        echo "$STATUS" | grep -qE '"state": "(failed|canceled)"' && {
            echo "cluster-smoke: job $JOB did not finish cleanly: $STATUS" >&2
            exit 1
        }
        i=$((i + 1))
        if [ "$i" -gt 300 ]; then
            echo "cluster-smoke: job $JOB never finished: $STATUS" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# Cold pass: the grid is sharded over both backends and computed.
submit_and_wait "$SWEEP"
echo "cluster-smoke: cold sweep job $JOB done"

EVENTS=$(curl -sf "http://$CO/v1/jobs/$JOB/events")
echo "$EVENTS" | grep -q '"type":"cell"' || {
    echo "cluster-smoke: event stream has no cell events: $EVENTS" >&2
    exit 1
}
echo "$EVENTS" | grep -q '"backend"' || {
    echo "cluster-smoke: cell events carry no backend attribution: $EVENTS" >&2
    exit 1
}
echo "cluster-smoke: event stream ok (cells attributed to backends)"

HITS_BEFORE=$(metric "$CO" zbpd_coord_cache_hits_total)
DISP_BEFORE=$(dispatched)

# Warm pass: the repeat grid must be served entirely from the
# coordinator's own result cache — every cell a coordinator cache hit,
# not one request reaching a backend.
submit_and_wait "$SWEEP"
echo "cluster-smoke: warm sweep job $JOB done"

curl -sf "http://$CO/v1/jobs/$JOB" | grep -q "\"cells_cached\": $CELLS" || {
    echo "cluster-smoke: warm sweep was not fully cache-served" >&2
    curl -sf "http://$CO/v1/jobs/$JOB" >&2
    exit 1
}
HITS_AFTER=$(metric "$CO" zbpd_coord_cache_hits_total)
DISP_AFTER=$(dispatched)
[ $((HITS_AFTER - HITS_BEFORE)) -eq "$CELLS" ] || {
    echo "cluster-smoke: coordinator cache hits rose by $((HITS_AFTER - HITS_BEFORE)), want $CELLS" >&2
    exit 1
}
[ "$DISP_AFTER" -eq "$DISP_BEFORE" ] || {
    echo "cluster-smoke: warm sweep dispatched $((DISP_AFTER - DISP_BEFORE)) cells to backends, want 0" >&2
    exit 1
}
echo "cluster-smoke: warm pass fully coordinator-cache-served ($CELLS hits, 0 backend dispatches)"

# Elastic membership: boot a third backend and register it at runtime.
"$BIN" -addr "$B3" -workers 2 -cache-dir "$TMP/cache3" >"$LOG3" 2>&1 &
PID3=$!
wait_healthy "$B3" "backend 3" "$LOG3"

"$CTL" -addr "http://$CO" backends add "http://$B3" >/dev/null || {
    echo "cluster-smoke: zbpctl backends add failed" >&2
    exit 1
}
"$CTL" -addr "http://$CO" backends list | grep -q "http://$B3" || {
    echo "cluster-smoke: registered backend missing from backends list" >&2
    "$CTL" -addr "http://$CO" backends list >&2
    exit 1
}
N_BACKENDS=$(metric "$CO" zbpd_coord_backends)
[ "$N_BACKENDS" -eq 3 ] || {
    echo "cluster-smoke: coordinator reports $N_BACKENDS backends after add, want 3" >&2
    exit 1
}
echo "cluster-smoke: third backend registered at runtime"

# Deregister one of the original members: the removal must drain and
# the fleet must keep answering.
"$CTL" -addr "http://$CO" backends rm "http://$B1" | grep -q '"drained": true' || {
    echo "cluster-smoke: backends rm did not report a drained removal" >&2
    exit 1
}
N_BACKENDS=$(metric "$CO" zbpd_coord_backends)
[ "$N_BACKENDS" -eq 2 ] || {
    echo "cluster-smoke: coordinator reports $N_BACKENDS backends after rm, want 2" >&2
    exit 1
}
echo "cluster-smoke: backend deregistered (drained) at runtime"

# The repeat sweep must still be fully coordinator-cache-served on the
# churned fleet: the cached bytes live on the coordinator, so losing
# the backend that computed them costs nothing.
DISP_BEFORE=$(dispatched)
submit_and_wait "$SWEEP"
curl -sf "http://$CO/v1/jobs/$JOB" | grep -q "\"cells_cached\": $CELLS" || {
    echo "cluster-smoke: post-churn repeat sweep was not fully cache-served" >&2
    curl -sf "http://$CO/v1/jobs/$JOB" >&2
    exit 1
}
DISP_AFTER=$(dispatched)
[ "$DISP_AFTER" -eq "$DISP_BEFORE" ] || {
    echo "cluster-smoke: post-churn repeat dispatched $((DISP_AFTER - DISP_BEFORE)) cells, want 0" >&2
    exit 1
}
echo "cluster-smoke: post-churn repeat sweep served without backend dispatches"

# SIGTERM everything: coordinator first, then backends; all must exit 0.
stop() {
    kill -TERM "$2"
    i=0
    while kill -0 "$2" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "cluster-smoke: $1 did not exit after SIGTERM" >&2
            cat "$3" >&2
            exit 1
        fi
        sleep 0.1
    done
    wait "$2" 2>/dev/null || {
        echo "cluster-smoke: $1 exited non-zero after SIGTERM" >&2
        cat "$3" >&2
        exit 1
    }
}
stop coordinator "$CPID" "$LOGC"
CPID=""
stop "backend 1" "$PID1" "$LOG1"
PID1=""
stop "backend 2" "$PID2" "$LOG2"
PID2=""
stop "backend 3" "$PID3" "$LOG3"
PID3=""
echo "cluster-smoke: graceful shutdown ok"
