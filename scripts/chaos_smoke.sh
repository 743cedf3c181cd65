#!/usr/bin/env bash
# Multi-process chaos smoke for the wire transport and egdrun's fleet
# supervisor: run the same seeded config three times through egdrun —
# fault-free, with a worker SIGKILLed mid-run, and with a worker SIGSTOPped
# mid-run — and assert that each fault caused exactly one relaunch of the
# fleet from the Nature rank's latest snapshot, and that every deterministic
# summary line ("work:", fitness, cooperation, WSLS, distinct strategies) is
# byte-identical across the three runs. Two configs take the trio:
# memory-one noisy and memory-six pure strategies. -full keeps GamesPlayed
# deterministic across a resume (an incremental resume replays every pair
# once), and the noisy memory-one matches replay exactly: each draws from
# its own (generation, pair) stream.
set -euo pipefail

cd "$(dirname "$0")/.."

GO=${GO:-go}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# A checkpoint every 500 generations gives the relaunch a snapshot to resume
# from; one relaunch is the budget each fault may spend.
RESTART_FLAGS=(-checkpoint-every 500 -max-restarts 1)

echo "chaos-smoke: building egdrun"
$GO build -o "$TMP/egdrun" ./cmd/egdrun

strip_summary() { grep -v '^run:' "$1" > "$1.det"; }

# A fault that fires after the run has ended proves nothing: each chaos run
# must report the one relaunch it was scripted to cause.
expect_relaunch() {
    if ! grep -q '^run: 4 ranks, 1 restarts, ' "$1" || [ "$(grep -c '^egdrun: relaunch ' "$1.err")" != 1 ]; then
        echo "chaos-smoke: FAIL: the scripted fault did not cause exactly one relaunch: $(head -1 "$1")" >&2
        cat "$1.err" >&2
        exit 1
    fi
    grep '^egdrun: relaunch ' "$1.err"
}

# trio NAME FLAGS...: one seeded config three times through egdrun.
trio() {
    local name=$1; shift
    echo "chaos-smoke[$name]: fault-free baseline"
    "$TMP/egdrun" "$@" "${RESTART_FLAGS[@]}" > "$TMP/clean.out"
    strip_summary "$TMP/clean.out"

    echo "chaos-smoke[$name]: SIGKILL worker 2 mid-run"
    "$TMP/egdrun" "$@" "${RESTART_FLAGS[@]}" -chaos-kill 2@300ms > "$TMP/kill.out" 2> "$TMP/kill.out.err"
    expect_relaunch "$TMP/kill.out"
    strip_summary "$TMP/kill.out"

    # Nothing but a receive deadline notices a stopped worker: a rank
    # waiting on it fails after -worker-timeout, and the launcher relaunches.
    echo "chaos-smoke[$name]: SIGSTOP worker 3 mid-run"
    "$TMP/egdrun" "$@" "${RESTART_FLAGS[@]}" -worker-timeout 1s -chaos-stop 3@300ms:1m > "$TMP/stop.out" 2> "$TMP/stop.out.err"
    expect_relaunch "$TMP/stop.out"
    strip_summary "$TMP/stop.out"

    for chaos in kill stop; do
        if ! diff -u "$TMP/clean.out.det" "$TMP/$chaos.out.det"; then
            echo "chaos-smoke[$name]: FAIL: $chaos run diverged from the fault-free baseline" >&2
            exit 1
        fi
    done
    echo "chaos-smoke[$name]: PASS: chaos runs bit-identical to fault-free baseline"
    cat "$TMP/clean.out.det"
}

# A fault at 300 ms must land inside each set's generations, past its first
# checkpoint. The memory-1 set plays with errors, so its payoff table is
# keyed by SSet and, under -full, the ranks meet every generation to fill
# all 240 cells (1.4–3.4 s for the fault-free run on a 2-vCPU VM):
# noise-free, its 16 SSets share a handful of types and the table by type
# serves the whole run in well under 300 ms. The memory-6 set is error-free
# and pure, so it is served by type: every rank holds the payoff table, and
# the ranks meet to fill it as mutants bring new types and, under
# -worker-timeout, at each sampled generation. Its fault-free run took
# 0.6–0.7 s on a 2-vCPU VM at 16 000 generations. No strategy crosses the
# wire in either set: every rank draws the mutants itself, and a relaunched
# rank reads the snapshot from the fleet's temp dir.
trio memory-1 -np 4 -ssets 16 -gens 8000 -rounds 20 -error 0.01 -seed 7 -full
trio memory-6 -np 4 -memory 6 -ssets 8 -gens 16000 -rounds 20 -seed 7 -full
