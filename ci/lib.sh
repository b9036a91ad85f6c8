# Shared helpers of the process gates (crash-recovery, lifecycle, retrain).
# Sourced, not run. The sourcing script owns $work (logs live there) and
# $serve_pid (the noble-serve under test).

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

# wait_listening LOG [admin] blocks until the serve process logs its
# resolved listen address (it binds port 0, so the kernel picks a free
# one — no hard-coded port to collide with a parallel CI job) and the
# health check answers; sets $addr. With "admin" it also waits for the
# debug plane's address and sets $admin.
wait_listening() {
    local log="$1" want_admin="${2:-}"
    addr=""
    admin=""
    for _ in $(seq 1 240); do
        # The server logs logfmt: `... level=INFO msg=listening addr=127.0.0.1:PORT`
        addr=$(sed -n 's/.*msg=listening addr=\([^ ]*\).*/\1/p' "$log" | head -n1)
        admin=$(sed -n 's/.*msg="debug plane listening" addr=\([^ ]*\).*/\1/p' "$log" | head -n1)
        if [ -n "$addr" ] && { [ -z "$want_admin" ] || [ -n "$admin" ]; } \
            && curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then
            return 0
        fi
        kill -0 "$serve_pid" 2>/dev/null || fail "noble-serve exited during startup"
        sleep 0.5
    done
    fail "server never became healthy"
}

# counter scrapes one exact metric line (name{labels}) off /metrics.
counter() {
    curl -fsS "http://$addr/metrics" | awk -v m="$1" '$1==m {print $2}'
}
