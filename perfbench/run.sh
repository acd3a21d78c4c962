#!/bin/bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark, e.g.
#
#	bash perfbench/run.sh --workload relocate --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and outputs stay under .bench_build/
# in the working directory.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" TMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
