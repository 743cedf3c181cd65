#!/usr/bin/env bash
# End-to-end smoke for the egdserve daemon over real HTTP: boot it on an
# ephemeral port, drive a job to completion, stream its SSE timeline, then
# pause a long run mid-flight, resume it, and assert its /result is
# byte-identical (minus job id and elapsed time) to the same spec run
# uninterrupted; SIGTERM then asserts a clean shutdown. A second, durable
# daemon (-data-dir) is kill -9'd mid-job and restarted over the same
# directory: recovery must resume the job from its checkpoint and produce
# the uninterrupted run's result, and a final SIGTERM must drain cleanly.
set -euo pipefail

cd "$(dirname "$0")/.."

GO=${GO:-go}
TMP=$(mktemp -d)
SERVE_PID=
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

echo "serve-smoke: building egdserve"
$GO build -o "$TMP/egdserve" ./cmd/egdserve

wait_base() { # daemon log file -> sets BASE
    BASE=
    for _ in $(seq 1 100); do
        BASE=$(sed -n 's/^egdserve: listening on //p' "$1")
        [ -n "$BASE" ] && break
        sleep 0.1
    done
    if [ -z "$BASE" ]; then
        echo "serve-smoke: FAIL: daemon never came up" >&2
        cat "$1" >&2
        exit 1
    fi
}

"$TMP/egdserve" -addr 127.0.0.1:0 -workers 2 > "$TMP/serve.out" 2>&1 &
SERVE_PID=$!
wait_base "$TMP/serve.out"
echo "serve-smoke: daemon at $BASE"

curl -fsS "$BASE/healthz" > /dev/null

submit() { curl -fsS -X POST -d "$1" "$BASE/api/v1/jobs" | sed -n 's/.*"id": "\(j-[0-9-]*\)".*/\1/p'; }
state()  { curl -fsS "$BASE/api/v1/jobs/$1" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p'; }
gen()    { curl -fsS "$BASE/api/v1/jobs/$1" | sed -n 's/.*"generation": \([0-9]*\).*/\1/p'; }

wait_state() { # job id, wanted state
    for _ in $(seq 1 600); do
        s=$(state "$1")
        [ "$s" = "$2" ] && return 0
        case "$s" in failed|canceled)
            echo "serve-smoke: FAIL: job $1 settled as $s while waiting for $2" >&2
            curl -fsS "$BASE/api/v1/jobs/$1" >&2
            return 1;;
        esac
        sleep 0.05
    done
    echo "serve-smoke: FAIL: job $1 never reached $2 (last: $(state "$1"))" >&2
    return 1
}

# A parity diff of two filtered /result bodies proves nothing if both are
# empty (or filtered down to nothing): each must still hold the document.
assert_result() { # filtered /result files
    for f in "$@"; do
        if [ ! -s "$f" ] || ! grep -q '"final_fitness"' "$f"; then
            echo "serve-smoke: FAIL: $f holds no /result document" >&2
            exit 1
        fi
    done
}

echo "serve-smoke: small job runs to completion"
SMALL=$(submit '{"memory":1,"ssets":8,"generations":200,"rounds":20,"seed":7,"sample_stride":20}')
wait_state "$SMALL" done
curl -fsS "$BASE/api/v1/jobs/$SMALL/result" -o "$TMP/small.json"
grep -q '"final_fitness"' "$TMP/small.json"

echo "serve-smoke: SSE timeline replays for the finished job"
curl -fsS --max-time 30 -N "$BASE/api/v1/jobs/$SMALL/events" > "$TMP/sse.out"
grep -q '^event: sample' "$TMP/sse.out"
grep -q '"state":"done"' "$TMP/sse.out"

# The long jobs play with errors: error_rate > 0 keeps every match out of the
# payoff table, which would serve these noise-free specs in milliseconds, so
# each job runs long enough to interrupt — and each check below asserts that
# the interruption landed before the job finished.
echo "serve-smoke: pause/resume parity against an uninterrupted run"
SPEC='{"memory":1,"ssets":12,"generations":2000,"rounds":100,"error_rate":0.01,"seed":99,"full_recompute":true}'
A=$(submit "$SPEC")
for _ in $(seq 1 400); do
    g=$(gen "$A")
    [ -n "$g" ] && [ "$g" -ge 100 ] && break
    sleep 0.02
done
curl -fsS -X POST "$BASE/api/v1/jobs/$A/pause" > /dev/null
wait_state "$A" paused
PAUSED_AT=$(gen "$A")
echo "serve-smoke: paused $A at generation $PAUSED_AT"
if [ "$PAUSED_AT" -ge 2000 ]; then
    echo "serve-smoke: FAIL: $A paused at generation $PAUSED_AT, not mid-run" >&2
    exit 1
fi
curl -fsS -X POST "$BASE/api/v1/jobs/$A/resume" > /dev/null
wait_state "$A" done
curl -fsS "$BASE/api/v1/jobs/$A/result" | grep -v '"id"\|"elapsed_seconds"' > "$TMP/paused.json"

B=$(submit "$SPEC")
wait_state "$B" done
curl -fsS "$BASE/api/v1/jobs/$B/result" | grep -v '"id"\|"elapsed_seconds"' > "$TMP/straight.json"

assert_result "$TMP/straight.json" "$TMP/paused.json"
if ! diff -u "$TMP/straight.json" "$TMP/paused.json"; then
    echo "serve-smoke: FAIL: paused+resumed result diverged from the uninterrupted run" >&2
    exit 1
fi

echo "serve-smoke: daemon metrics cover the finished jobs"
curl -fsS "$BASE/metrics" | grep -q 'egd_server_jobs_finished_total{state="done"} 3'

echo "serve-smoke: SIGTERM shuts the daemon down cleanly"
kill -TERM "$SERVE_PID"
rc=0
wait "$SERVE_PID" || rc=$?
SERVE_PID=
if [ "$rc" -ne 0 ]; then
    echo "serve-smoke: FAIL: daemon exited with status $rc" >&2
    cat "$TMP/serve.out" >&2
    exit 1
fi
grep -q 'shutting down' "$TMP/serve.out"

echo "serve-smoke: durable daemon survives kill -9 with a bit-identical result"
DATA="$TMP/data"
"$TMP/egdserve" -addr 127.0.0.1:0 -workers 1 -data-dir "$DATA" -checkpoint-every 250 > "$TMP/serve2.out" 2>&1 &
SERVE_PID=$!
wait_base "$TMP/serve2.out"
echo "serve-smoke: durable daemon at $BASE (data dir $DATA)"

CSPEC='{"memory":1,"ssets":8,"generations":6000,"rounds":200,"error_rate":0.01,"seed":4242,"full_recompute":true}'
C=$(submit "$CSPEC")
wait_state "$C" done
curl -fsS "$BASE/api/v1/jobs/$C/result" | grep -v '"id"\|"elapsed_seconds"' > "$TMP/uninterrupted.json"

D=$(submit "$CSPEC")
for _ in $(seq 1 600); do
    g=$(gen "$D")
    [ -n "$g" ] && [ "$g" -ge 1000 ] && break
    sleep 0.02
done
echo "serve-smoke: kill -9 at generation $(gen "$D")"
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=

"$TMP/egdserve" -addr 127.0.0.1:0 -workers 1 -data-dir "$DATA" -checkpoint-every 250 > "$TMP/serve3.out" 2>&1 &
SERVE_PID=$!
wait_base "$TMP/serve3.out"
# C finished before the kill; D must come back unfinished, to be re-queued,
# and journaled running: the kill interrupted it.
if ! grep -q 'recovered 2 jobs from journal (1 re-queued, 0 paused, 1 terminal, 0 unrecoverable), 1 interrupted while running' "$TMP/serve3.out"; then
    echo "serve-smoke: FAIL: the kill -9 did not land mid-run: $(grep recovered "$TMP/serve3.out")" >&2
    exit 1
fi
echo "serve-smoke: restarted daemon at $BASE, job $D recovering"
wait_state "$D" done
curl -fsS "$BASE/api/v1/jobs/$D/result" | grep -v '"id"\|"elapsed_seconds"' > "$TMP/recovered.json"
assert_result "$TMP/uninterrupted.json" "$TMP/recovered.json"
if ! diff -u "$TMP/uninterrupted.json" "$TMP/recovered.json"; then
    echo "serve-smoke: FAIL: post-crash result diverged from the uninterrupted run" >&2
    exit 1
fi
# Terminal results survive restarts (grep a downloaded copy: grep -q on a
# pipe closes it mid-transfer and fails curl under pipefail).
curl -fsS "$BASE/api/v1/jobs/$C/result" -o "$TMP/c-after-restart.json"
grep -q '"final_fitness"' "$TMP/c-after-restart.json"

echo "serve-smoke: SIGTERM drains the durable daemon cleanly"
kill -TERM "$SERVE_PID"
rc=0
wait "$SERVE_PID" || rc=$?
SERVE_PID=
if [ "$rc" -ne 0 ]; then
    echo "serve-smoke: FAIL: durable daemon exited with status $rc" >&2
    cat "$TMP/serve3.out" >&2
    exit 1
fi
grep -q 'drain complete, no job left running' "$TMP/serve3.out"

echo "serve-smoke: PASS"
