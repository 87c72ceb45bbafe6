#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build leaves behind (binary, Go build cache) stays in
# .bench_build at the root of the checkout, so nothing outside it is written.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local GOWORK=off
# Outside a git work tree the build cannot stamp the commit; do without it.
go build -C benchmark -o "$out/benchmark" . 2>/dev/null ||
	go build -C benchmark -buildvcs=false -o "$out/benchmark" .
exec "$out/benchmark" "$@"
