#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#	bash perfbench/run.sh --workload sim-cold --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every file the build and the run write stays
# under .bench_build/ in that directory: the Go build cache, the binary, the
# benchmark's scratch caches and its trace files. The toolchain is the local
# one and nothing is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

go -C "$root/perfbench" build -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" "$@"
