#!/bin/sh
# Tier-1 verification: configure, build, run the full test suite, then
# smoke one experiment sweep through the parallel runner and
# sanity-check its structured JSON output.
# Usage: scripts/check.sh [build-dir]
set -e

BUILD="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

cmake -B "$BUILD" -S .
cmake --build "$BUILD" -j "$(nproc 2>/dev/null || echo 4)"
ctest --test-dir "$BUILD" --output-on-failure -j \
    "$(nproc 2>/dev/null || echo 4)"

# Smoke sweep: one figure on the thread pool with JSON output.
SMOKE_JSON=/tmp/out.json
rm -f "$SMOKE_JSON"
"$BUILD"/tools/gpuwalk sweep fig02 --jobs 2 --json "$SMOKE_JSON"

# JSON sanity: well-formed, schema v1, runs present, jobs as requested.
python3 - "$SMOKE_JSON" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema_version"] == 1, doc.get("schema_version")
assert doc["jobs"] == 2, doc["jobs"]
assert doc["runs"], "no runs in JSON"
assert doc["wall_seconds"] > 0
for run in doc["runs"]:
    assert run["workload"] and run["scheduler"]
    assert run["stats"]["runtime_ticks"] > 0
    assert run["wall_seconds"] > 0
assert doc["config_fingerprint"]
print("JSON sanity ok:", len(doc["runs"]), "runs,",
      "fingerprint", doc["config_fingerprint"],
      "git", doc["git_sha"])
EOF

echo "check.sh: all green"
