#!/usr/bin/env bash
# Builds the benchmark and the non-race dpmserved it drives from this
# checkout's sources, then runs one workload:
#
#   bash bench/run.sh --workload sweep-disk --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes (build
# cache, binaries, temp files) and the traced run's span files stay under
# .bench_build/ in the checkout. Build output goes to stderr; the last line of
# stdout is the run's JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=

go -C bench build -o "$out/bin/dpmbench-run" . >&2
go -C bench build -o "$out/bin/dpmserved" repro/cmd/dpmserved >&2

exec "$out/bin/dpmbench-run" -daemon "$out/bin/dpmserved" -trace-dir "$out/trace" "$@"
