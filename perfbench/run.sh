#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build at
# the repository root and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload check-static --seed 1 --seconds 36 --trace 0
#
# Every build artefact (binary, Go build cache) stays under
# .bench_build, so the first run compiles the standard library once.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
