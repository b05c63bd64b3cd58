#!/bin/sh
# Tier-1 verification: configure, build and run the full test suite
# (the paper claims, ctest label `claims`, included).
# Usage: scripts/check.sh [build-dir]
set -e

BUILD="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

cmake -B "$BUILD" -S .
cmake --build "$BUILD" -j "$(nproc 2>/dev/null || echo 4)"
ctest --test-dir "$BUILD" --output-on-failure -j \
    "$(nproc 2>/dev/null || echo 4)"

echo "check.sh: all green"
