#!/usr/bin/env bash
# Builds the CacheCraft benchmark from source and runs it. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload sim-divergent --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, span files and scratch stores all
# stay under .bench_build/perfbench in the working directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
