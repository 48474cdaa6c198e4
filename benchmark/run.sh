#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the go tool writes — build cache, binary,
# configuration — goes under .bench_build/ in the checkout, so a run reads and
# writes nothing outside it. Run from the root of the repository:
#
#   bash benchmark/run.sh --workload wire-1link --seed 7 --seconds 12 --trace 0
set -euo pipefail

root=$(pwd -P)
if [[ ! -f "$root/go.mod" || ! -d "$root/benchmark" ]]; then
	echo "benchmark/run.sh: run from the root of the repository (no go.mod beside benchmark/ in $root)" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/saad-benchmark" ./benchmark
exec "$build/saad-benchmark" "$@"
