#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload cold-search --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/: the Go
# build cache, Go's temporary files, its GOPATH and configuration directory
# (where it keeps telemetry counters), the binary, the fleet's cache
# directories and the traced run's span files. Run it from the root of the
# checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the root of a graphpipe checkout (go.mod and internal/ not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
