#!/usr/bin/env bash
# Fuzz smoke: every fuzz target committed in the tree (found by name, so
# a new one is covered without touching this script) runs for 10 s on
# top of its seed corpus. Long enough to catch a parser that panics on
# near-seed bytes, short enough for every push; a crasher the fuzzer
# finds is written under the package's testdata/fuzz and fails the run.
#
# Usage: ci/fuzz-smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

found=0
while IFS=: read -r file decl; do
    target=${decl#func }
    echo "== fuzz $target ($(dirname "$file"))"
    go test -run '^$' -fuzz "^${target}\$" -fuzztime 10s "$(dirname "$file")"
    found=$((found + 1))
done < <(grep -rHoE '^func Fuzz[A-Za-z0-9_]+' --include='*_test.go' --exclude-dir=testdata .)

if [ "$found" -eq 0 ]; then
    echo "FAIL: fuzz-smoke found no fuzz targets"
    exit 1
fi
echo "PASS: fuzz-smoke ($found targets)"
