#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments. Run it from
# the repository root:
#
#   bash benchmark/run.sh --workload chat8 --seed 1 --seconds 20 --trace 0
#
# The build is offline and keeps everything it writes (binary, Go build
# cache and temporary files, Go settings) under .bench_build/ in the
# current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local
(cd benchmark && go build -o "$build/skipbench" .)
exec "$build/skipbench" "$@"
