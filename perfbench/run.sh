#!/usr/bin/env bash
# Builds directoryd from this checkout and the perfbench load program, then runs
# one benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 25 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
# The go command's cache, module path, temp files, config and local
# telemetry all live under .bench_build too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
mkdir -p "$out/bin" "$GOTMPDIR"
go build -o "$out/bin/directoryd" ./cmd/directoryd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -directoryd "$out/bin/directoryd" -work "$out/work" "$@"
