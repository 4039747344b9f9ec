#!/usr/bin/env bash
# Builds smtbench from source and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload serve-warm --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write (Go build cache, binaries,
# daemon state, spans, profiles) stays under .bench_build/ at the root of
# the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home" "$build/bin"

export HOME="$build/home"
export XDG_CACHE_HOME="$build/home/.cache"
export XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

go -C "$root/bench" build -o "$build/bin/smtbench" ./smtbench
exec "$build/bin/smtbench" -repo "$root" -out "$build/out" "$@"
