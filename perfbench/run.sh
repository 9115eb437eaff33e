#!/usr/bin/env bash
# Builds perfbench from source into .bench_build/ and runs it; all arguments
# are passed through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload collapsed-mix --seed 1 --seconds 20 --trace 0
#
# The Go build cache and every other file the build or the run writes stay
# under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --out "$build/traces" "$@"
