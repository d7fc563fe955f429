#!/bin/sh
# jobs_smoke.sh — boot zbpd with a persistent result cache, drive the
# async job API end to end (submit, poll, stream), prove that an
# identical resubmission is served from the cache without simulating,
# then SIGTERM the server with a job in flight and require a clean
# drain. Used by `make jobs-smoke` and CI. No jq: responses are picked
# apart with grep/sed.
set -eu

ADDR="127.0.0.1:18935"
TMP="$(mktemp -d)"
BIN="$TMP/zbpd"
CACHE="$TMP/cache"
LOG="$TMP/zbpd.log"

cleanup() {
    [ -n "${PID:-}" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/zbpd
"$BIN" -addr "$ADDR" -workers 2 -cache-dir "$CACHE" -audit-every 1 >"$LOG" 2>&1 &
PID=$!

i=0
until curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "jobs-smoke: zbpd never became healthy" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.1
done
echo "jobs-smoke: /healthz ok"

metric() {
    curl -sf "http://$ADDR/metrics" | grep "^$1" | sed 's/.* //'
}

SWEEP='{"sweep":{"workloads":["loops","micro"],"seeds":[1,2],"instructions":100000}}'

submit_and_wait() {
    CREATED=$(curl -sf -X POST "http://$ADDR/v1/jobs" -d "$1")
    JOB=$(echo "$CREATED" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
    [ -n "$JOB" ] || {
        echo "jobs-smoke: no job ID in submit response: $CREATED" >&2
        exit 1
    }
    i=0
    while :; do
        STATUS=$(curl -sf "http://$ADDR/v1/jobs/$JOB")
        echo "$STATUS" | grep -q '"state": "done"' && break
        echo "$STATUS" | grep -qE '"state": "(failed|canceled)"' && {
            echo "jobs-smoke: job $JOB did not finish cleanly: $STATUS" >&2
            exit 1
        }
        i=$((i + 1))
        if [ "$i" -gt 300 ]; then
            echo "jobs-smoke: job $JOB never finished: $STATUS" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# Cold run: every cell computed, nothing cached yet.
submit_and_wait "$SWEEP"
COLD_JOB="$JOB"
echo "jobs-smoke: cold sweep job $COLD_JOB done"

EVENTS=$(curl -sf "http://$ADDR/v1/jobs/$COLD_JOB/events")
echo "$EVENTS" | grep -q '"type":"cell"' || {
    echo "jobs-smoke: event stream has no cell events: $EVENTS" >&2
    exit 1
}
echo "$EVENTS" | grep -q '"type":"done"' || {
    echo "jobs-smoke: event stream did not terminate with done: $EVENTS" >&2
    exit 1
}
echo "jobs-smoke: event stream ok"

INSTR_BEFORE=$(metric zbpd_instructions_total)
HITS_BEFORE=$(metric zbpd_cache_hits_total)
# The cold run simulated, so the counter must be present and nonzero;
# otherwise the unchanged-counter check below would pass vacuously.
awk -v a="${INSTR_BEFORE:-0}" 'BEGIN { exit !(a > 0) }' || {
    echo "jobs-smoke: cold sweep left zbpd_instructions_total at '$INSTR_BEFORE'" >&2
    exit 1
}

# Identical resubmission: served from the result cache — cache hits
# rise, and not one additional instruction is simulated (the
# simulated-instruction counter must not move).
submit_and_wait "$SWEEP"
echo "jobs-smoke: cached sweep job $JOB done"

curl -sf "http://$ADDR/v1/jobs/$JOB" | grep -q '"cells_cached": 4' || {
    echo "jobs-smoke: resubmitted sweep was not fully cache-served" >&2
    curl -sf "http://$ADDR/v1/jobs/$JOB" >&2
    exit 1
}
INSTR_AFTER=$(metric zbpd_instructions_total)
HITS_AFTER=$(metric zbpd_cache_hits_total)
[ "$INSTR_BEFORE" = "$INSTR_AFTER" ] || {
    echo "jobs-smoke: cached resubmission simulated instructions ($INSTR_BEFORE -> $INSTR_AFTER)" >&2
    exit 1
}
awk -v a="$HITS_BEFORE" -v b="$HITS_AFTER" 'BEGIN { exit !(b > a) }' || {
    echo "jobs-smoke: cache hits did not rise ($HITS_BEFORE -> $HITS_AFTER)" >&2
    exit 1
}
echo "jobs-smoke: cache-served resubmission ok (hits $HITS_BEFORE -> $HITS_AFTER, simulated instructions unchanged)"

# SIGTERM with a job still running: drain must cancel it and exit 0.
curl -sf -X POST "http://$ADDR/v1/jobs" \
    -d '{"sweep":{"workloads":["lspr"],"seeds":[1,2,3,4],"instructions":5000000}}' >/dev/null
kill -TERM "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "jobs-smoke: zbpd did not exit after SIGTERM with a running job" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.1
done
wait "$PID" 2>/dev/null || {
    echo "jobs-smoke: zbpd exited non-zero after SIGTERM" >&2
    cat "$LOG" >&2
    exit 1
}
PID=""
echo "jobs-smoke: graceful shutdown with running job ok"
