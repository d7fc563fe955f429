#!/usr/bin/env bash
# Builds the zbp benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload sweep-local --seed 1 --seconds 20 --trace 0
#
# Every build artifact, the Go build cache included, lives under
# .bench_build at the checkout root, so a run reads and writes nothing
# outside the checkout. The build fails (and so does the run, before it
# prints anything) when the zbp sources are not beside this directory.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/zbpbench" .)
cd "$root"
exec "$out/zbpbench" "$@"
