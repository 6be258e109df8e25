#!/usr/bin/env bash
# Builds the nptsnbench harness from the surrounding checkout and runs one
# workload:
#
#   bash nptsnbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run leave behind (Go build cache, binary,
# temporary zoo and journal directories, trace files) stays under
# .bench_build/ at the root of the checkout.
set -u
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/core" ]; then
	echo "nptsnbench: $root holds no planner source to build" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build" || exit 2
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files
# inside the checkout too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
if ! (cd "$here" && go build -o "$build/nptsnbench" .); then
	echo "nptsnbench: build failed" >&2
	exit 2
fi
cd "$root" || exit 2
exec "$build/nptsnbench" "$@"
