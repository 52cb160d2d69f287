#!/usr/bin/env bash
# Builds the host-time benchmark from this checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload mix1-hotloop --seed 42 --seconds 15 --trace 0
#
# All build state (Go build cache, temporaries, the binary, span trees)
# stays in the build directory: $CARGO_TARGET_DIR when set, else
# .bench_build.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off \
	GOPROXY=off GOFLAGS= GOTOOLCHAIN=local

bin="$build/perfbench"
(cd perfbench && go build -o "$bin.$$" .)
mv -f "$bin.$$" "$bin"
exec "$bin" --out "$build" "$@"
