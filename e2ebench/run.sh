#!/usr/bin/env bash
# Builds cmd/libra-serve and the e2ebench program from source, then runs
# e2ebench with the given arguments:
#
#   bash e2ebench/run.sh --workload cold-solve --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that directory (Go build cache included).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its telemetry settings under the user config
# directory; keep them in the checkout too. Telemetry is switched off:
# in its default mode every go command starts a detached child process
# that outlives the build.
export XDG_CONFIG_HOME="$out/config"
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
export GOTOOLCHAIN=local GOENV=off CGO_ENABLED=0 GOWORK=off

go build -o "$out/bin/libra-serve" ./cmd/libra-serve
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" -root "$root" -serve-bin "$out/bin/libra-serve" "$@"
