#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload sim-cnn --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artefact (binary, Go build
# cache, temporary files) stays under .bench_build/ so the benchmark reads
# and writes nothing outside the checkout. The build fails, and the script
# exits non-zero, when the repository's module is missing.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off \
	CGO_ENABLED=0

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
