#!/usr/bin/env bash
# Builds perfbench from source inside the checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload split-vgg-tcp --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the working directory; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly GOWORK=off

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
