#!/usr/bin/env bash
# Static-analysis gate: the same checks CI's lint job runs, runnable
# locally before a push. Ordered cheapest-first so the common failure
# (an unformatted file) costs seconds, not a full type-check.
#
#   gofmt        formatting (whole tree, fixtures included)
#   go vet       the stock toolchain analyzers
#   arm64        cross-compile the tree and vet the kernel packages for
#                arm64, so the pure-Go fallbacks of the amd64 assembly
#                paths (internal/mat: GEMM tiles, row sweep, packed
#                panels, int8 tile) keep building where no CI job runs
#                them
#   darwin, windows  cross-compile the tree and vet internal/serve for
#                both, so the batcher's runtime-timer fallback of the
#                Linux timerfd gap timer keeps building (windows leaves
#                out bench, which reads CPU time with getrusage)
#   noble-vet    the repo's own invariant suite (internal/vetrules) —
#                must be clean on the tree AND must still refuse the
#                three reconstructed historical bugs, so a broken
#                analyzer cannot silently pass everything
#   staticcheck  bug-finding (SA*) + simplification/style per
#                staticcheck.conf — skipped with a notice if the binary
#                is not installed (CI always has it)
#   govulncheck  known-vuln scan over the call graph — likewise
#                optional locally, required in CI
#   fuzz-smoke   every committed fuzz target for 10 s (ci/fuzz-smoke.sh)
#   batcher x20  the batcher's tests 20 times under the race detector, so
#                one that depends on timing shows up as a flake here
#   split x10    core's split-pass tests 10 times under the race detector:
#                a forward pass's row chunks run on several goroutines
#
# Usage: ci/lint.sh
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0

echo "== gofmt"
out=$(gofmt -l .)
if [ -n "$out" ]; then
    echo "gofmt needed on:"
    echo "$out"
    fail=1
fi

echo "== go vet"
go vet ./... || fail=1

echo "== arm64 cross-compile (non-amd64 kernel fallbacks)"
GOARCH=arm64 go build ./... || fail=1
GOARCH=arm64 go vet ./internal/mat ./internal/nn || fail=1

echo "== darwin and windows cross-compile (non-Linux gap timer)"
GOOS=darwin go build ./... || fail=1
GOOS=darwin go vet ./internal/serve || fail=1
GOOS=windows go build $(GOOS=windows go list ./... | grep -v '^noble/bench$') || fail=1
GOOS=windows go vet ./internal/serve || fail=1

echo "== noble-vet (internal/vetrules invariant suite)"
mkdir -p build
go build -o build/noble-vet ./cmd/noble-vet
if ! build/noble-vet ./...; then
    echo "noble-vet found violations (see docs/LINT.md for the rules and the //vet:ignore syntax)"
    fail=1
fi
# Each reconstructed historical bug must keep exiting 1: that is
# TestExitStatus in cmd/noble-vet, part of go test ./...

echo "== staticcheck"
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./... || fail=1
else
    echo "   staticcheck not installed; skipping (CI runs it — go install honnef.co/go/tools/cmd/staticcheck@2024.1.1)"
fi

echo "== govulncheck"
if command -v govulncheck >/dev/null 2>&1; then
    govulncheck ./... || fail=1
else
    echo "   govulncheck not installed; skipping (CI runs it — go install golang.org/x/vuln/cmd/govulncheck@latest)"
fi

echo "== fuzz-smoke"
ci/fuzz-smoke.sh || fail=1

echo "== batcher tests x20 under -race"
go test -race -count=20 -run 'Batcher' ./internal/serve/ || fail=1

echo "== split-pass tests x10 under -race"
go test -race -count=10 -run 'SplitPass' ./internal/core/ || fail=1

if [ "$fail" -ne 0 ]; then
    echo "FAIL: lint"
    exit 1
fi
echo "PASS: lint"
