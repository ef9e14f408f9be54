#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload fig7_wget --seed 11 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and Go's
# own configuration state all stay under $CARGO_TARGET_DIR (default
# .bench_build) in the current directory; nothing is fetched.
set -eu
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
