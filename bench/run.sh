#!/usr/bin/env bash
# Builds the benchmark and the edgeagent binary from source into
# .bench_build/ at the root of the checkout, then runs the benchmark from
# that root with the given arguments. Go's build cache, the temporary
# directory and the Go tool's own configuration are pointed inside
# .bench_build/ too, so nothing is read or written outside the checkout.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
(cd "$bench" && go build -o "$build/edgebench" . && go build -o "$build/edgeagent" edgesurgeon/cmd/edgeagent)
cd "$(dirname "$bench")"
exec "$build/edgebench" "$@"
