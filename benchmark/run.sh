#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark inside the
# checkout and runs it with the arguments given. Everything the Go toolchain
# writes (build cache, module cache, its own telemetry counters) is pointed
# into .bench_build, so a run reads and writes only inside the checkout. The
# benchmark builds cmd/lpmserve itself, with the same environment.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=$root/.bench_build
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOWORK=off
mkdir -p "$out/bin"
(cd "$root/benchmark" && go build -o "$out/bin/benchmark" .)
exec "$out/bin/benchmark" -root "$root" -scratch "$out" "$@"
