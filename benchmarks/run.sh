#!/usr/bin/env bash
# Build the benchmark from source and run it, keeping every file the Go
# toolchain writes inside the checkout. The driver calls
#   bash benchmarks/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# from the root of a checkout; `go run ./benchmarks ...` is the same
# program with the toolchain's default cache locations.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# The benchmark drives the module's internal/ packages: a directory that
# holds only BENCHMARK.json and benchmarks/ has nothing to measure (and
# must not pick up a go.mod from some parent directory).
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmarks/run.sh: $PWD is not a checkout of the module (no go.mod or internal/)" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
# A no-op when the binary is up to date.
go build -o "$build/gridqr-bench" ./benchmarks
exec "$build/gridqr-bench" "$@"
