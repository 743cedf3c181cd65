GO ?= go

.PHONY: all build test vet lint lint-json race fuzz bench bench-e2e bench-compare bench-check docs loc chaos serve-smoke check clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# egdlint: the repo's own static analyzer for the determinism invariant
# (see internal/lint/README.md). Exit 0 means every package honours it.
lint:
	$(GO) run ./cmd/egdlint ./...

# Machine-readable findings for CI artifacts and tooling.
lint-json:
	$(GO) run ./cmd/egdlint -json ./... > egdlint.json; \
	code=$$?; cat egdlint.json; exit $$code

# Race-detector pass over every package: the fault-injection and restart
# tests run scripted kills/stalls under -race, and the packages a restart
# leans on (stats, trace, checkpoint) ride along.
race:
	$(GO) test -race ./...

# Short fuzz pass over every fuzz target in the tree, 10 s each. The list
# is whatever `go test -list '^Fuzz' ./...` reports (target names, then an
# "ok <package>" line per package), so a new target is fuzzed in CI the day
# it lands. Today: the checkpoint wire format and the bitset decoder under
# it, the fault-spec grammar, the wire frame and payload decoder, the
# parallel engine's message decoders, the job-store journal replayer
# (arbitrary tail damage must never panic), strategy fingerprints, and the
# egdlint allow-directive grammar.
fuzz:
	@set -e; list=$$($(GO) test -list '^Fuzz' ./...); \
	echo "$$list" | awk '/^Fuzz/ {t[n++] = $$1} /^ok/ {for (i = 0; i < n; i++) print t[i], $$2; n = 0}' | \
	while read target pkg; do \
		echo "== $$target ($$pkg)"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime=10s $$pkg || exit 1; \
	done

# Multi-process chaos smoke: egdrun spawns a real worker fleet over unix
# sockets, runs a seeded config fault-free, then reruns it once with a
# worker SIGKILLed and once with a worker SIGSTOPped mid-run, and asserts
# each fault caused exactly one relaunch from the latest snapshot and the
# deterministic summary lines are byte-identical — at memory one and at
# memory six (see scripts/chaos_smoke.sh).
chaos:
	./scripts/chaos_smoke.sh

# Service smoke: boot egdserve on an ephemeral port and drive the job
# lifecycle over real HTTP — submit, SSE stream, pause mid-run, resume,
# and assert the resumed /result matches an uninterrupted run's bit for
# bit; then kill -9 a durable (-data-dir) daemon mid-job, restart it over
# the same directory, and assert the recovered job's /result is identical
# too (see scripts/serve_smoke.sh).
serve-smoke:
	./scripts/serve_smoke.sh

# Regenerates the paper's artefacts: a single-iteration sweep of the
# per-table/figure benchmarks (bench_test.go) with allocation stats,
# streamed as test2json records to BENCH_10.json — the machine-readable
# artifact CI uploads. One iteration keeps the sweep minutes-scale; shapes
# (scaling curves, compute/comm split) survive, but absolute ns/op are noisy
# at -benchtime=1x, so this is not the basis for performance claims —
# bench-e2e is (bench/README.md).
bench:
	$(GO) test -json -run '^$$' -bench . -benchmem -benchtime 1x . > BENCH_10.json

# The end-to-end benchmark BENCHMARK.json declares: eight fixed workloads
# with verified result hashes, end-to-end and per-layer metrics
# (bench/README.md). bench-compare prints the paired table for two result
# files, e.g. a parent commit's run against this checkout's.
bench-e2e:
	bash bench/run.sh

bench-compare:
	bash bench/run.sh -compare $(A) $(B)

# The committed perf trajectory: a PR that runs the benchmark commits its
# change-side bench/out/result.json as BENCH_<PR>.json at the root.
# bench-check compares this checkout's last bench-e2e run with the newest of
# those records and exits 1 on a regression beyond a metric's bound — on the
# host the record names in its header; elsewhere it is a report.
bench-check:
	bash bench/run.sh -compare $$(ls BENCH_*.json | sort -V | tail -1) bench/out/result.json

# Documentation gate (cmd/egddoc): a package comment on every Go package,
# and no broken relative links, heading anchors or stale paths anywhere in
# the markdown tree.
docs:
	$(GO) run ./cmd/egddoc

# Code size: non-test Go lines that are neither blank nor comment-only, per
# package and in total, outside bench/, .bench_build/ and testdata/ (analyzer
# fixtures are test inputs, not code) — the pipeline CHANGES.md has quoted
# since PR 12, so "less code" is a number every PR can show (CI prints it in
# the docs job).
LOC_FILES = -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' -not -path '*/testdata/*'
LOC_COUNT = xargs cat | grep -v '^\s*//' | grep -vc '^\s*$$'
loc:
	@for d in $$(find . $(LOC_FILES) | xargs -n1 dirname | sort -u); do \
		printf '%6d  %s\n' "$$(find $$d -maxdepth 1 $(LOC_FILES) | $(LOC_COUNT))" "$$d"; \
	done
	@printf '%6d  total\n' "$$(find . $(LOC_FILES) | $(LOC_COUNT))"

check: vet lint
	$(GO) test -race ./...

clean:
	$(GO) clean ./...
