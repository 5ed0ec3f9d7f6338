#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs it.
#
#   bash perfbench/run.sh --workload simon-elimlin --seed 1 --seconds 20 --trace 0
#
# Everything the build leaves behind (binary, Go build cache, the go
# command's telemetry counters, which live under the user config
# directory) goes under .bench_build/ at the root of the checkout. A
# checkout without the repro module (no ../go.mod) fails the build, so the
# script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$here" && XDG_CONFIG_HOME="$out/config" go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
