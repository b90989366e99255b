#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# The pipeline's contract: a run reads and writes only inside its checkout,
# so everything the go command would put under $HOME goes to .bench_build/
# at the checkout root instead.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/../.bench_build"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache"        # compiler cache
export GOPATH="$out/gopath"          # module cache (created even with no dependencies)
export XDG_CONFIG_HOME="$out/config" # go/env and the telemetry counters
export GOTOOLCHAIN=local             # never download another toolchain
export GOFLAGS=-buildvcs=false       # never start git: the checkout may sit inside someone else's repository
(cd "$here" && go build -o "$out/regcast-perfbench" .)
exec "$out/regcast-perfbench" "$@"
