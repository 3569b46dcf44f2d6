#!/usr/bin/env bash
# Builds varserve, varroute and the benchmark from source, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload uc1_bench --seed 1 --seconds 12 --trace 0
#
# Everything it builds or writes goes under .bench_build/ in the working
# directory: the Go build cache, the go command's scratch files and its
# config directory included. Go telemetry is switched off in that config
# directory, because with it on the go command leaves a detached child
# process running after it exits.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/varserve" ] || [ ! -d "$root/cmd/varroute" ]; then
	echo "perfbench: run from the repository root; go.mod, cmd/varserve or cmd/varroute is missing" >&2
	exit 2
fi
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"
printf 'off\n' >"$out/config/go/telemetry/mode"
go build -o "$out/bin/" ./cmd/varserve ./cmd/varroute
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"
