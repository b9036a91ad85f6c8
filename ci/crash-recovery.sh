#!/usr/bin/env bash
# Crash-recovery smoke test: run noble-serve with a durable session
# journal, SIGKILL it under tracking load, restart it, and assert that
# sessions were restored (recovered-session gauge > 0) and that
# noble-replay reproduces the recorded trajectories with zero
# divergence. Exercises the acceptance path of the durability layer end
# to end with real processes and a real kill -9.
#
# Usage: ci/crash-recovery.sh [workdir]
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
cleanup() {
    [ -n "$serve_pid" ] && kill -9 "$serve_pid" 2>/dev/null || true
    # A mktemp run cleans up fully (the state dir lives under it). With a
    # caller-chosen workdir everything is KEPT — on a failure the WAL is
    # the artifact that reproduces the bug through noble-replay.
    [ -n "$made_work" ] && rm -rf "$made_work" || true
}
trap cleanup EXIT

# fail prints the reason plus every log's tail — the bare exit code of a
# dead server tells a CI reader nothing.
fail() {
    echo "FAIL: $1"
    for log in "$work"/*.log; do
        [ -f "$log" ] || continue
        echo "---- tail of $log ----"
        tail -n 40 "$log" | sed 's/^/   /'
    done
    exit 1
}

# wait_listening LOG blocks until the serve process logs its resolved
# listen address (it binds port 0, so the kernel picks a free one — no
# hard-coded port to collide with a parallel CI job) and the health
# check answers; sets $addr.
wait_listening() {
    local log="$1"
    addr=""
    for _ in $(seq 1 240); do
        # The server logs logfmt: `... level=INFO msg=listening addr=127.0.0.1:PORT`
        addr=$(sed -n 's/.*msg=listening addr=\([^ ]*\).*/\1/p' "$log" | head -n1)
        if [ -n "$addr" ] && curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then
            return 0
        fi
        kill -0 "$serve_pid" 2>/dev/null || fail "noble-serve exited during startup"
        sleep 0.5
    done
    fail "server never became healthy"
}

echo "== building binaries into $bin"
go build -o "$bin/" ./cmd/noble-serve ./cmd/noble-loadgen ./cmd/noble-replay

echo "== first run: train tiny demo models (seconds) and serve with -state-dir"
"$bin/noble-serve" -demo-tiny -models "$models" -state-dir "$state" \
    -fsync interval -addr 127.0.0.1:0 >"$work/serve.log" 2>&1 &
serve_pid=$!
wait_listening "$work/serve.log"
echo "   serving on $addr"

echo "== tracking load, then SIGKILL mid-flight"
"$bin/noble-loadgen" -url "http://$addr" -mode track -concurrency 16 \
    -duration 6s -seed 3 >"$work/loadgen.log" 2>&1 &
load_pid=$!
sleep 3
kill -9 "$serve_pid"
echo "   killed noble-serve (pid $serve_pid) with SIGKILL"
wait "$load_pid" || true   # the generator rides out the dead server, reporting conn errors
serve_pid=""
grep -E "requests|errors" "$work/loadgen.log" | sed 's/^/   /'

echo "== restart: sessions must come back before the listener opens"
"$bin/noble-serve" -models "$models" -state-dir "$state" \
    -fsync interval -addr 127.0.0.1:0 >"$work/serve2.log" 2>&1 &
serve_pid=$!
wait_listening "$work/serve2.log"
grep "session journal" "$work/serve2.log" | sed 's/^/   /'

recovered=$(curl -fsS "http://$addr/metrics" | awk '/^noble_journal_recovered_sessions /{print $2}')
echo "   noble_journal_recovered_sessions = ${recovered:-MISSING}"
if [ -z "${recovered:-}" ] || [ "$recovered" -le 0 ]; then
    fail "no sessions recovered after SIGKILL"
fi

kill -9 "$serve_pid"; serve_pid=""

echo "== replay the recorded journal: zero divergence expected"
"$bin/noble-replay" -journal "$state" -models "$models" | sed 's/^/   /' \
    || fail "replay diverged or errored"

echo "PASS: crash recovery restored $recovered session(s); replay reproduced the recorded run"
