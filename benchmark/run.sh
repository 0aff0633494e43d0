#!/usr/bin/env bash
# Builds sepmark from source into .bench_build/ at the root of the checkout
# and runs it there with the arguments given. Everything the build and the
# run write (Go's build cache included) stays inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/sepmark" .)
cd "$root"
exec "$build/sepmark" "$@"
