#!/bin/sh
# Regenerates every artifact: build, tests, every table/figure sweep.
# Usage: scripts/run_all.sh [build-dir]
set -e

BUILD="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

cmake -B "$BUILD" -G Ninja
cmake --build "$BUILD"

ctest --test-dir "$BUILD" 2>&1 | tee "$ROOT/test_output.txt"

for name in $("$BUILD"/tools/gpuwalk sweep --list | cut -d' ' -f1); do
    echo "##### $name #####"
    "$BUILD"/tools/gpuwalk sweep "$name"
done 2>&1 | tee "$ROOT/bench_output.txt"
