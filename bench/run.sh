#!/usr/bin/env bash
# Builds the harness inside the checkout and runs it: everything the build
# and the run write (Go build cache, binary, data directories, span files)
# lands under .bench_build/, which the root .gitignore names.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go -C "$here" build -o "$out/reef-bench" .
cd "$root"
exec "$out/reef-bench" "$@"
