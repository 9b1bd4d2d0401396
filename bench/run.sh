#!/usr/bin/env bash
# Entry point for the benchmark contract's driver, run from the repository
# root as `bash bench/run.sh --workload W --seed N --seconds S --trace T`.
# Everything the Go toolchain writes (build cache, work directories,
# telemetry counters) is pointed inside the checkout, under .bench_build/.
# People can equally run `cd bench && go run . ...`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/bin/sdobench" .)
exec "$build/bin/sdobench" -root "$root" "$@"
