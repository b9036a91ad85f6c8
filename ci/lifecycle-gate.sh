#!/usr/bin/env bash
# Lifecycle gate: end-to-end proof of the deployment pipeline with real
# processes and real traffic. One noble-serve run with a durable journal
# walks through three phases:
#
#   A. a DEGRADED bundle (untrained weights, tight policy) is published:
#      it must enter shadow, advance to canary on mirrored evidence, and
#      be auto-rolled back when its live divergence breaks policy — the
#      active generation keeps serving, untouched.
#   B. a GOOD bundle (retrained, loose policy) is published: it must
#      ride shadow → canary → active with no human in the loop.
#   C. a third bundle capped at target=canary is staged, the server is
#      SIGKILLed mid-stage, and the restart must resume the canary at
#      the same stage with the same bundle identity while the promoted
#      active keeps serving from its archive.
#
# Phase transitions are asserted through /debug/lifecycle (via
# ci/lifecyclewait, which encodes the JSON predicates) and the
# noble_lifecycle_* counters on /metrics. Bundles are produced by
# ci/publishgen. See DESIGN.md §10.
#
# Usage: ci/lifecycle-gate.sh [workdir]
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
cleanup() {
    [ -n "$serve_pid" ] && kill -9 "$serve_pid" 2>/dev/null || true
    [ -n "$load_pid" ] && kill "$load_pid" 2>/dev/null || true
    # A mktemp run cleans up fully. With a caller-chosen workdir
    # everything is KEPT — on a failure the bundles, journal, and logs
    # are the artifacts that reproduce the bug.
    [ -n "$made_work" ] && rm -rf "$made_work" || true
}
trap cleanup EXIT

source "$(dirname "${BASH_SOURCE[0]}")/lib.sh"   # fail, wait_listening, counter

echo "== building binaries into $bin"
go build -o "$bin/" ./cmd/noble-serve ./cmd/noble-loadgen ./ci/publishgen ./ci/lifecyclewait

# Fast-converging lifecycle settings: mirror every request, evaluate
# twice a second, poll the bundle dir four times a second. The policy
# windows (40 samples) come from publishgen's defaults; at the paced
# 200 q/s below a window fills in well under a second.
serve_flags=(-models "$models" -state-dir "$state" -fsync interval -addr 127.0.0.1:0
    -reload 250ms -mirror-rate 1 -lifecycle-tick 500ms)

echo "== boot: train tiny demo models and serve with the full pipeline on"
"$bin/noble-serve" -demo-tiny "${serve_flags[@]}" >"$work/serve.log" 2>&1 &
serve_pid=$!
wait_listening "$work/serve.log"
echo "   serving on $addr"

base=$("$bin/lifecyclewait" -url "http://$addr" -model demo-wifi -stage none -timeout 10s) \
    || fail "no clean demo-wifi deployment after boot"
base_active=${base#active=}; base_active=${base_active%% *}
echo "   baseline active bundle: $base_active"

echo "== steady localize load (mirror source for every phase)"
"$bin/noble-loadgen" -url "http://$addr" -mode localize -model demo-wifi \
    -concurrency 8 -qps 200 -duration 600s -seed 7 >"$work/loadgen.log" 2>&1 &
load_pid=$!

echo "== phase A: degraded bundle must be auto-rolled back"
"$bin/publishgen" -models "$models" -name demo-wifi -variant degraded -seed-skew 2 \
    2>&1 | sed 's/^/   /'
"$bin/lifecyclewait" -url "http://$addr" -model demo-wifi -stage any -timeout 60s >/dev/null \
    || fail "degraded bundle was never staged"
rolled=$("$bin/lifecyclewait" -url "http://$addr" -model demo-wifi \
    -stage none -active-bundle "$base_active" -timeout 120s) \
    || fail "degraded bundle was not rolled back (or the active generation changed)"
echo "   rolled back; $rolled"
# The canary transition proves the shadow really accumulated its
# mirrored-evidence window (advance is gated on sample count alone);
# the retired transition proves the rollback was the controller's.
canaries=$(counter 'noble_lifecycle_transitions_total{model="demo-wifi",to="canary"}')
retired=$(counter 'noble_lifecycle_transitions_total{model="demo-wifi",to="retired"}')
echo "   transitions so far: to=canary ${canaries:-0}, to=retired ${retired:-0}"
[ "${canaries:-0}" -ge 1 ] || fail "degraded bundle never reached canary (shadow evidence missing)"
[ "${retired:-0}" -ge 1 ] || fail "no retirement transition recorded for the rollback"

echo "== phase B: good bundle must be auto-promoted"
"$bin/publishgen" -models "$models" -name demo-wifi -variant good -seed-skew 1 \
    2>&1 | sed 's/^/   /'
promoted=$("$bin/lifecyclewait" -url "http://$addr" -model demo-wifi \
    -stage none -active-bundle "!$base_active" -timeout 120s) \
    || fail "good bundle was not promoted to active"
new_active=${promoted#active=}; new_active=${new_active%% *}
echo "   promoted; active bundle now $new_active"
activations=$(counter 'noble_lifecycle_transitions_total{model="demo-wifi",to="active"}')
[ "${activations:-0}" -ge 2 ] || fail "promotion did not register an activation transition"

echo "== phase C: canary-capped bundle must survive kill -9 at its stage"
"$bin/publishgen" -models "$models" -name demo-wifi -variant good -seed-skew 3 \
    -target canary 2>&1 | sed 's/^/   /'
pre=$("$bin/lifecyclewait" -url "http://$addr" -model demo-wifi \
    -stage canary -min-samples 40 -timeout 120s) \
    || fail "capped bundle never reached canary with mirrored evidence"
pre_staged=${pre##*staged=}
echo "   holding at $pre_staged; killing noble-serve (pid $serve_pid) with SIGKILL"
kill -9 "$serve_pid"; serve_pid=""
kill "$load_pid" 2>/dev/null || true; wait "$load_pid" 2>/dev/null || true; load_pid=""

echo "== restart: stages must come back from the journal"
"$bin/noble-serve" "${serve_flags[@]}" >"$work/serve2.log" 2>&1 &
serve_pid=$!
wait_listening "$work/serve2.log"
post=$("$bin/lifecyclewait" -url "http://$addr" -model demo-wifi \
    -stage canary -active-bundle "$new_active" -timeout 30s) \
    || fail "canary stage (or the promoted active) did not survive the restart"
post_staged=${post##*staged=}
if [ "$pre_staged" != "$post_staged" ]; then
    fail "staged generation changed identity across the crash: $pre_staged -> $post_staged"
fi
echo "   resumed at $post_staged with active $new_active intact"

kill -9 "$serve_pid"; serve_pid=""

echo "PASS: degraded canary auto-rolled back, good canary auto-promoted, stages survived SIGKILL"
