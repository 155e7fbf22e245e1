#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root, for example:
#   bash perfbench/run.sh --workload lookup-hot --seed 1 --seconds 12 --trace 0
# Everything the build and the run write stays under .bench_build in the
# current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" --build-dir "$out" "$@"
