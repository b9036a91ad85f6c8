#!/usr/bin/env bash
# Retrain gate: end-to-end proof of the drift-driven retraining loop
# (DESIGN.md §11) with real processes and real traffic. One noble-serve
# run with a durable journal:
#
#   A. tracking load with periodic WiFi fixes fills the session WAL with
#      re-anchor evidence (the loop's free supervision);
#   B. noble-retrain one-shot harvests the WAL into a corpus (an empty
#      corpus is a hard failure), retrains demo-wifi on seed + corpus,
#      and republishes with a loose auto-promote sidecar: the new
#      generation must enter SHADOW and ride the PR-9 pipeline to
#      active with no human in the loop;
#   C. the in-server path: a curl POST /admin/retrain/demo-wifi on
#      the admin plane kicks the in-process manager, /debug/retrain
#      must report the run ok, the noble_retrain_* metrics must account
#      for it, and the second republish must promote the same way.
#
# Stage transitions are asserted through /debug/lifecycle (via
# ci/lifecyclewait) and the noble_lifecycle_*/noble_retrain_* counters
# on /metrics.
#
# Usage: ci/retrain-gate.sh [workdir]
set -euo pipefail

work="${1:-$(mktemp -d)}"
made_work=""
[ -n "${1:-}" ] || made_work="$work"
bin="$work/bin"
models="$work/models"
state="$work/state"
mkdir -p "$bin" "$models"
rm -rf "$state"

serve_pid=""
load_pid=""
mirror_pid=""
cleanup() {
    [ -n "$serve_pid" ] && kill -9 "$serve_pid" 2>/dev/null || true
    [ -n "$load_pid" ] && kill "$load_pid" 2>/dev/null || true
    [ -n "$mirror_pid" ] && kill "$mirror_pid" 2>/dev/null || true
    # A mktemp run cleans up fully. With a caller-chosen workdir
    # everything is KEPT — on a failure the bundles, journal, corpus,
    # and logs are the artifacts that reproduce the bug.
    [ -n "$made_work" ] && rm -rf "$made_work" || true
}
trap cleanup EXIT

source "$(dirname "${BASH_SOURCE[0]}")/lib.sh"   # fail, wait_listening, counter

echo "== building binaries into $bin"
go build -o "$bin/" ./cmd/noble-serve ./cmd/noble-loadgen ./cmd/noble-retrain ./ci/lifecyclewait

# Fast-converging pipeline settings (as in ci/lifecycle-gate.sh):
# mirror every request, evaluate twice a second, poll the bundle dir
# four times a second. The retrain manager is manual-only (no trigger
# flags) — phase B drives it from outside, phase C over the admin plane.
serve_flags=(-models "$models" -state-dir "$state" -fsync interval -addr 127.0.0.1:0
    -admin-addr 127.0.0.1:0 -reload 250ms -mirror-rate 1 -lifecycle-tick 500ms
    -retrain-min-fixes 1)

echo "== boot: train tiny demo models and serve with journal + retrain manager"
"$bin/noble-serve" -demo-tiny "${serve_flags[@]}" >"$work/serve.log" 2>&1 &
serve_pid=$!
wait_listening "$work/serve.log" admin
echo "   serving on $addr, admin plane on $admin"

base=$("$bin/lifecyclewait" -url "http://$addr" -model demo-wifi -stage none -timeout 10s) \
    || fail "no clean demo-wifi deployment after boot"
base_active=${base#active=}; base_active=${base_active%% *}
echo "   baseline active bundle: $base_active"

echo "== phase A: tracking load with WiFi fixes fills the WAL with re-anchor evidence"
"$bin/noble-loadgen" -url "http://$addr" -mode track -model demo-imu \
    -wifi-model demo-wifi -fix-every 4 -concurrency 8 -qps 200 -duration 600s \
    -seed 7 >"$work/trackgen.log" 2>&1 &
load_pid=$!
# Steady localize load on demo-wifi: the mirror source that fills every
# staged generation's evidence window.
"$bin/noble-loadgen" -url "http://$addr" -mode localize -model demo-wifi \
    -concurrency 8 -qps 200 -duration 600s -seed 11 >"$work/mirrorgen.log" 2>&1 &
mirror_pid=$!

echo "== phase B: one-shot noble-retrain must harvest, retrain, and auto-promote"
# Retry while the first fixes land in the journal: an empty corpus is a
# hard failure in noble-retrain, so the first succeeding run proves the
# harvest found real evidence.
retrained=""
for _ in $(seq 1 60); do
    if "$bin/noble-retrain" -state-dir "$state" -models "$models" -model demo-wifi \
        -target active -policy-min-shadow 40 -policy-min-canary 40 \
        -policy-max-error-delta 500 -policy-max-p99-delta 10000 \
        >"$work/retrain.log" 2>&1; then
        retrained=1
        break
    fi
    grep -q "corpus .* is empty after harvest" "$work/retrain.log" \
        || fail "noble-retrain failed for a reason other than an empty corpus"
    sleep 0.5
done
[ -n "$retrained" ] || fail "corpus stayed empty: no re-anchor fixes reached the WAL"
sed 's/^/   /' "$work/retrain.log"
grep -q "harvested samples" "$work/retrain.log" || fail "retrain summary missing from noble-retrain output"

promoted=$("$bin/lifecyclewait" -url "http://$addr" -model demo-wifi \
    -stage none -active-bundle "!$base_active" -timeout 120s) \
    || fail "retrained bundle was not promoted to active"
second_active=${promoted#active=}; second_active=${second_active%% *}
echo "   retrain promoted; active bundle now $second_active"
shadows=$(counter 'noble_lifecycle_transitions_total{model="demo-wifi",to="shadow"}')
[ "${shadows:-0}" -ge 1 ] || fail "retrained bundle never entered shadow (it must not activate directly)"

echo "== phase C: admin-plane kick must retrain in-process"
curl -fsS -X POST "http://$admin/admin/retrain/demo-wifi" | sed 's/^/   /'
ok=""
for _ in $(seq 1 240); do
    if curl -fsS "http://$admin/debug/retrain" 2>/dev/null | grep -q '"status":"ok"'; then
        ok=1
        break
    fi
    sleep 0.5
done
[ -n "$ok" ] || fail "/debug/retrain never reported a successful run after the admin kick"
echo "   /debug/retrain reports the kicked run ok"

runs=$(counter 'noble_retrain_runs_total{status="ok"}')
fixes=$(counter 'noble_retrain_corpus_fixes{model="demo-wifi"}')
harvested=$(counter 'noble_retrain_harvested_fixes_total')
echo "   retrain metrics: ok runs ${runs:-0}, corpus fixes ${fixes:-0}, harvested total ${harvested:-0}"
[ "${runs:-0}" -ge 1 ] || fail "noble_retrain_runs_total{status=ok} did not count the kicked run"
[ "${fixes:-0}" -ge 1 ] || fail "noble_retrain_corpus_fixes{model=demo-wifi} is empty"
[ "${harvested:-0}" -ge 1 ] || fail "noble_retrain_harvested_fixes_total is zero"

third=$("$bin/lifecyclewait" -url "http://$addr" -model demo-wifi \
    -stage none -active-bundle "!$second_active" -timeout 120s) \
    || fail "admin-kicked retrain did not ride shadow -> canary -> active"
third_active=${third#active=}; third_active=${third_active%% *}
shadows=$(counter 'noble_lifecycle_transitions_total{model="demo-wifi",to="shadow"}')
[ "${shadows:-0}" -ge 2 ] || fail "admin-kicked retrain never entered shadow"
echo "   admin-kicked retrain promoted; active bundle now $third_active"

kill "$load_pid" 2>/dev/null || true; load_pid=""
kill "$mirror_pid" 2>/dev/null || true; mirror_pid=""
kill -9 "$serve_pid"; serve_pid=""

echo "PASS: WAL evidence harvested, CLI retrain promoted through shadow, admin kick retrained in-process"
