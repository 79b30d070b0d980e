#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from any checkout of the
# repository: bash bench/run.sh [flags]. Everything the build and the run
# leave behind stays inside the checkout — the binary and the Go build
# cache under .bench_build/, traces and spill segments under bench/out/.
# The environment below is what keeps the build there: Go's build cache,
# temp dir and module path default to the user's home and /tmp, a newer
# go line would make the toolchain download itself, and a go.work above
# the checkout would change what is built.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
