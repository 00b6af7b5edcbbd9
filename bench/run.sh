#!/usr/bin/env bash
# Builds `verifai` and the benchmark from the checkout this script sits in,
# then runs the benchmark with the arguments given. Every file the build and
# the run write stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root" && go build -o "$build/verifai" ./cmd/verifai) >&2
(cd "$root/bench" && go build -o "$build/bench" .) >&2
cd "$root"
exec "$build/bench" "$@"
