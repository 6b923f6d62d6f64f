#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload train-dense --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# traced runs' span files all stay under .bench_build in that directory.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
