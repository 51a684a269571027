#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; every argument is
# passed through (see bench/README.md). Run it from the repository root.
# The Go build cache, the go command's own state (telemetry counters live
# under the user config directory), the binaries and the profiles all stay
# under .bench_build/, so a run writes nothing outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd bench && go build -o "$out/rcastbench" .)
exec "$out/rcastbench" -root "$PWD" -build "$out" "$@"
