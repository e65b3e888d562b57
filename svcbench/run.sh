#!/usr/bin/env bash
# Builds the service benchmark from the checkout it is run in, then runs it.
#
#   bash svcbench/run.sh --workload sweep-small --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache, traced
# spans and CPU profiles go under $CARGO_TARGET_DIR (default .bench_build),
# so nothing is written outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/svcbench" "$out/gotmp" "$out/config/go/telemetry"

# Turn the toolchain's telemetry off: in its default mode the go command
# starts a detached child process that outlives this script.
printf 'off\n' >"$out/config/go/telemetry/mode"

# Keep the toolchain's caches and config inside the build directory, and
# never reach for the network: the module needs only the standard library.
env GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly \
	go build -o "$out/svcbench/svcbench" ./svcbench >&2

exec "$out/svcbench/svcbench" --out "$out/svcbench" "$@"
