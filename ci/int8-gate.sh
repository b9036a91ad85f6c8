#!/usr/bin/env bash
# Accuracy-gate check for the int8 serving tier: the publish-blocking
# gate must hold at BOTH enforcement points (see DESIGN.md §9).
#
#  1. Positive: the tiny demo bundles — which include int8 twins whose
#     calibration ran the train-time gate — all pass the load-time
#     recheck (noble-serve -check-bundles exits 0).
#  2. Train-time negative: noble-train -precision int8 with a
#     calibration that destroys accuracy (0.5th-percentile clipping)
#     must refuse to publish anything.
#  3. Load-time negative: hand-corrupting a published bundle's
#     act_scales (ci/corruptcalib) must make -check-bundles exit 1 —
#     the registry refuses the bundle even though the manifest and
#     weights are untouched.
#  4. Recovery: restoring the original calibration.json clears the
#     failure (the registry stamp covers every payload file, so the
#     fix is noticed).
#
# Usage: ci/int8-gate.sh [workdir]
set -euo pipefail

work="${1:-$(mktemp -d)}"
made_work=""
[ -n "${1:-}" ] || made_work="$work"
bin="$work/bin"
models="$work/models"
mkdir -p "$bin" "$models"

cleanup() {
    [ -n "$made_work" ] && rm -rf "$made_work" || true
}
trap cleanup EXIT

fail() {
    echo "FAIL: $1"
    for log in "$work"/*.log; do
        [ -f "$log" ] || continue
        echo "---- tail of $log ----"
        tail -n 20 "$log" | sed 's/^/   /'
    done
    exit 1
}

echo "== building noble-serve, noble-train, corruptcalib"
go build -o "$bin/" ./cmd/noble-serve ./cmd/noble-train ./ci/corruptcalib

echo "== 1. train tiny demo bundles (int8 twins run the train-time gate) and check-load them"
"$bin/noble-serve" -demo-tiny -models "$models" -check-bundles \
    >"$work/check1.log" 2>&1 || fail "freshly published bundles did not pass -check-bundles"
grep -q "bundle check passed" "$work/check1.log" || fail "no 'bundle check passed' in output"
[ -f "$models/demo-wifi-int8/calibration.json" ] || fail "demo-wifi-int8 has no calibration.json"

echo "== 2. train-time gate must block a publish with destroyed calibration"
if "$bin/noble-train" -dataset ipin -size small -epochs 2 \
    -precision int8 -calib-method percentile -calib-percentile 0.5 \
    -bundle "$work/blocked-models" >"$work/train.log" 2>&1; then
    fail "noble-train published an int8 model through a 0.5th-percentile calibration"
fi
grep -q "int8 publish blocked" "$work/train.log" \
    || fail "train exited nonzero but not with the publish-blocked message"
[ ! -d "$work/blocked-models" ] \
    || fail "gate reported blocked but a bundle directory was still created"

echo "== 3. load-time gate must refuse a hand-corrupted published bundle"
cp "$models/demo-wifi-int8/calibration.json" "$work/calibration.json.good"
"$bin/corruptcalib" -bundle "$models/demo-wifi-int8" -factor 1e6
if "$bin/noble-serve" -models "$models" -check-bundles >"$work/check2.log" 2>&1; then
    fail "-check-bundles passed with corrupted act_scales"
fi
grep -q "accuracy gate failed" "$work/check2.log" \
    || fail "corrupted bundle was refused, but not by the accuracy gate"

echo "== 4. restoring the calibration clears the failure"
cp "$work/calibration.json.good" "$models/demo-wifi-int8/calibration.json"
"$bin/noble-serve" -models "$models" -check-bundles \
    >"$work/check3.log" 2>&1 || fail "restored bundle still refused"

echo "PASS: accuracy gate enforced at train time and registry load, and recovery works"
