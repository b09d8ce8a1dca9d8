#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 30 --trace 0
#
# Build products and the Go build cache stay in the build directory,
# CARGO_TARGET_DIR if set, else .bench_build/ in the working directory,
# so a run writes nothing outside it.
set -euo pipefail

# Go's default install location, for shells whose PATH lacks it.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
