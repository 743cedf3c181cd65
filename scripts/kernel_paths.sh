#!/usr/bin/env bash
# Runs a `go test -v` command over kernel-parity tests, prints its log, and
# appends a HEADING plus the path each test ran to $GITHUB_STEP_SUMMARY
# (stdout when unset), taken from cputest.EachKernel's "the go path" /
# "the kernel path" log lines. Exits with the test command's status.
#
#   scripts/kernel_paths.sh HEADING go test -count=1 -v -run 'Parity' ./internal/game
set -uo pipefail

heading=$1
shift
log=$(mktemp)
trap 'rm -f "$log"' EXIT

status=0
"$@" > "$log" 2>&1 || status=$?
cat "$log"
{
    echo "#### $heading"
    awk '/^=== RUN/ {test = $3} /: the (go|kernel) path \(/ {sub(/^[ \t]*[^ ]+: /, ""); print "- `" test "`: " $0}' "$log"
} >> "${GITHUB_STEP_SUMMARY:-/dev/stdout}"
exit $status
