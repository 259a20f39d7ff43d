#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the
# root of a checkout:
#
#   bash skvbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The build cache, the binary, profiles and per-run records all stay under
# .bench_build/ in the checkout. The self-tests run with
# `cd skvbench && go test .` under the same environment.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/skvbench" && go build -o "$build/skvbench.bin" .)
exec "$build/skvbench.bin" "$@"
