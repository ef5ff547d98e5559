#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark from the root of a checkout:
#
#   bash e2ebench/run.sh --workload soccer-delete --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, span files and the service-disk
# stores and journals.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/e2ebench/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp" "$out/gocache" "$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

# No telemetry: the go command would otherwise keep counter files and may
# start a background process that outlives the build.
go telemetry off
go -C "$root/e2ebench" build -o "$out/e2ebench.tmp" .
mv "$out/e2ebench.tmp" "$out/e2ebench"
exec "$out/e2ebench" --out "$out/e2ebench-out" "$@"
