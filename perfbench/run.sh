#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root; every argument passes through to the binary (see
# perfbench/README.md). The Go build cache, the binary and everything a run
# leaves behind stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/config"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files in
# the checkout too.
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOMODCACHE="$build/go-mod" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" ./cmd/perfbench)
exec "$build/perfbench" "$@"
