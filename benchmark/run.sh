#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the repository
# root. Everything the Go toolchain writes (build cache, module cache,
# telemetry) is kept under .bench_build, so a run touches nothing outside
# the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/mykil-benchmark" .)
cd "$root"
exec "$build/mykil-benchmark" "$@"
