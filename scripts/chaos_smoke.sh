#!/usr/bin/env bash
# Multi-process chaos smoke for the wire transport: run the same seeded
# config three times through egdrun — fault-free, with a worker SIGKILLed
# mid-run, and with a worker SIGSTOPped through its own eviction — and
# assert that every deterministic summary line ("work:", fitness,
# cooperation, WSLS, distinct strategies) is byte-identical across runs and
# that each fault did evict its rank. Two configs take the trio: memory-one
# and memory-six pure strategies. -full keeps GamesPlayed deterministic under
# eviction replay (and the noisy memory-one matches replayable: each draws
# from its own (generation, pair) stream).
set -euo pipefail

cd "$(dirname "$0")/.."

GO=${GO:-go}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

EVICT_FLAGS=(-evict -heartbeat-every 25ms -heartbeat-misses 5)

echo "chaos-smoke: building egdrun"
$GO build -o "$TMP/egdrun" ./cmd/egdrun

strip_summary() { grep -v '^run:' "$1" > "$1.det"; }

# A fault that fires after the run has ended proves nothing: each chaos run
# must report the eviction it was scripted to cause.
expect_eviction() {
    if ! grep -q '^run: 3 ranks finish, 1 evictions, ' "$1"; then
        echo "chaos-smoke: FAIL: the scripted fault did not land mid-run: $(head -1 "$1")" >&2
        exit 1
    fi
}

# trio NAME FLAGS...: one seeded config three times through egdrun.
trio() {
    local name=$1; shift
    echo "chaos-smoke[$name]: fault-free baseline"
    "$TMP/egdrun" "$@" > "$TMP/clean.out"
    strip_summary "$TMP/clean.out"

    echo "chaos-smoke[$name]: SIGKILL worker 2 mid-run"
    "$TMP/egdrun" "$@" "${EVICT_FLAGS[@]}" -chaos-kill 2@150ms > "$TMP/kill.out"
    expect_eviction "$TMP/kill.out"
    strip_summary "$TMP/kill.out"

    echo "chaos-smoke[$name]: SIGSTOP worker 3 mid-run, SIGCONT after eviction"
    "$TMP/egdrun" "$@" "${EVICT_FLAGS[@]}" -chaos-stop 3@150ms:2s > "$TMP/stop.out"
    expect_eviction "$TMP/stop.out"
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

# A fault at 150 ms must land inside each set's generations. The memory-1 set
# plays with errors, so its payoff table is keyed by SSet and, under -full,
# the ranks meet every generation to fill all 240 cells (1.35 s for the
# fault-free run on a 2-vCPU VM): noise-free, its 16 SSets share a handful of
# types and the table by type serves the whole run in well under 150 ms. The
# memory-6 set is error-free and pure, so it is served by type: every rank
# holds the payoff table, and the ranks meet to fill it as mutants bring new
# types and, under -evict, at each sampled generation — about a thousand
# meetings whatever -gens is, since the automatic stride grows with it. With
# -evict its run took 0.39–0.45 s on a 2-vCPU VM at 16 000 generations
# (0.29–0.32 s at 8 000). No strategy crosses the wire in either set but the
# post-eviction resume: every rank draws the mutants itself.
trio memory-1 -np 4 -ssets 16 -gens 8000 -rounds 20 -error 0.01 -seed 7 -full
trio memory-6 -np 4 -memory 6 -ssets 8 -gens 16000 -rounds 20 -seed 7 -full
