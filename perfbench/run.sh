#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload profile-distinct --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go's build cache, the binary, traces) goes
# under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (no go.mod or perfbench/ here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
# The go command's telemetry counters live under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
