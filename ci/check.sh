#!/bin/sh
# The full offline gate. No network, no external crates: everything the
# checks need ships in the workspace (see crates/testkit).
#
#   ci/check.sh            # fmt + clippy + doc links + build + tests + 1k-case fuzz smoke
#
# The fuzz seed is fixed so the smoke run is reproducible; the full
# acceptance run is `--cases 10000 --seed 0xCC2011` (see README).
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# module docs link to items by name: deleting or renaming an item must
# not leave a dangling intra-doc link behind
echo "==> cargo doc --workspace --no-deps --offline (broken intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
    cargo doc --workspace --no-deps --offline

echo "==> cargo build --workspace --release --offline"
cargo build --workspace --release --offline

# the benchmark is a package of its own that builds against the public
# API; building it here catches an API change that would break it
echo "==> cargo build --release --offline --manifest-path perfbench/Cargo.toml"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# a short cold release build through the benchmark: its correctness
# oracles (interpreter vs simulator, WCET bound >= simulated cycles,
# repeatable digests) gate every compiler change; perfbench exits
# nonzero when any of them fails
echo "==> perfbench smoke: release_cold, 2 s"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload release_cold --seed 0 --seconds 2 --trace 0

echo "==> cargo test --workspace -q --offline"
cargo test --workspace -q --offline

echo "==> fuzz smoke: 1000 cases, seed 0xC1, 4 workers"
cargo run --release --offline -p vericomp-testkit --bin fuzz_pipeline -- \
    --cases 1000 --seed 0xC1 --jobs 4

echo "==> pipeline smoke: cold+warm fleet builds, bit-identical, >=90% hits"
CACHE_DIR=target/vericomp-ci-cache
rm -rf "$CACHE_DIR"
cargo run --release --offline -p vericomp --bin compile_fleet -- \
    --cache-dir "$CACHE_DIR" | tee target/vericomp-ci-cold.txt
cargo run --release --offline -p vericomp --bin compile_fleet -- \
    --cache-dir "$CACHE_DIR" --min-hit-rate 0.9 | tee target/vericomp-ci-warm.txt
cold_digest=$(grep '^fleet digest:' target/vericomp-ci-cold.txt)
warm_digest=$(grep '^fleet digest:' target/vericomp-ci-warm.txt)
if [ "$cold_digest" != "$warm_digest" ]; then
    echo "pipeline smoke FAILED: warm rebuild not bit-identical to cold build" >&2
    echo "  cold: $cold_digest" >&2
    echo "  warm: $warm_digest" >&2
    exit 1
fi

echo "==> sweep smoke: 2 nodes x 3 configs x 2 machines, parallel == jobs 1"
cargo run --release --offline -p vericomp --bin compile_fleet -- \
    --nodes 2 --configs pattern-O0,verified,opt-full --machines mpc755,tiny-caches \
    | tee target/vericomp-ci-sweep.txt
cargo run --release --offline -p vericomp --bin compile_fleet -- \
    --nodes 2 --configs pattern-O0,verified,opt-full --machines mpc755,tiny-caches \
    --jobs 1 | tee target/vericomp-ci-sweep-serial.txt
sweep_digest=$(grep '^fleet digest:' target/vericomp-ci-sweep.txt)
serial_digest=$(grep '^fleet digest:' target/vericomp-ci-sweep-serial.txt)
if [ "$sweep_digest" != "$serial_digest" ]; then
    echo "sweep smoke FAILED: parallel sweep not bit-identical to --jobs 1" >&2
    echo "  parallel: $sweep_digest" >&2
    echo "  serial:   $serial_digest" >&2
    exit 1
fi

echo "==> search smoke: lattice search, jobs 8 == jobs 1, warm rerun >=90% hits"
SEARCH_CACHE=target/vericomp-ci-search-cache
rm -rf "$SEARCH_CACHE"
cargo run --release --offline -p vericomp --bin compile_fleet -- \
    --search --nodes 4 --jobs 8 --cache-dir "$SEARCH_CACHE" \
    | tee target/vericomp-ci-search.txt
cargo run --release --offline -p vericomp --bin compile_fleet -- \
    --search --nodes 4 --jobs 1 | tee target/vericomp-ci-search-serial.txt
# every `search:` line (winners, bounds, probe/prune counts) and the trace
# digest must be identical whatever the job count or cache state
grep '^search' target/vericomp-ci-search.txt > target/vericomp-ci-search-lines.txt
grep '^search' target/vericomp-ci-search-serial.txt \
    > target/vericomp-ci-search-serial-lines.txt
if ! cmp -s target/vericomp-ci-search-lines.txt \
        target/vericomp-ci-search-serial-lines.txt; then
    echo "search smoke FAILED: --jobs 8 search differs from --jobs 1" >&2
    diff target/vericomp-ci-search-lines.txt \
        target/vericomp-ci-search-serial-lines.txt >&2 || true
    exit 1
fi
search_digest=$(grep '^search digest:' target/vericomp-ci-search.txt)
cargo run --release --offline -p vericomp --bin compile_fleet -- \
    --search --nodes 4 --jobs 8 --cache-dir "$SEARCH_CACHE" --min-hit-rate 0.9 \
    | tee target/vericomp-ci-search-warm.txt
warm_search_digest=$(grep '^search digest:' target/vericomp-ci-search-warm.txt)
if [ "$search_digest" != "$warm_search_digest" ]; then
    echo "search smoke FAILED: warm re-search not bit-identical to cold" >&2
    echo "  cold: $search_digest" >&2
    echo "  warm: $warm_search_digest" >&2
    exit 1
fi

echo "==> trace smoke: Chrome-trace JSON well-formed, profile counters == jobs 1"
TRACE_JSON=target/vericomp-ci-trace.json
cargo run --release --offline -p vericomp --bin compile_fleet -- \
    --nodes 6 --jobs 8 --trace "$TRACE_JSON" --profile \
    | tee target/vericomp-ci-trace.txt
cargo run --release --offline -p vericomp --bin compile_fleet -- \
    --nodes 6 --jobs 1 --profile | tee target/vericomp-ci-trace-serial.txt
python3 - "$TRACE_JSON" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "trace has no events"
for e in events:
    for key in ("ph", "ts", "dur", "name"):
        assert key in e, f"event missing {key}: {e}"
    assert e["ph"] == "X", f"not a complete event: {e}"
print(f"trace smoke: {len(events)} well-formed events")
EOF
# the profile table must cover every pipeline stage...
for stage in queue-wait cache-lookup compile validate analyze store; do
    if ! grep -q "^profile: stage $stage" target/vericomp-ci-trace.txt; then
        echo "trace smoke FAILED: profile is missing stage row \`$stage\`" >&2
        exit 1
    fi
done
# ...and its counter digest must not depend on the job count
profile_digest=$(grep '^profile: counter digest:' target/vericomp-ci-trace.txt)
serial_profile_digest=$(grep '^profile: counter digest:' \
    target/vericomp-ci-trace-serial.txt)
if [ "$profile_digest" != "$serial_profile_digest" ]; then
    echo "trace smoke FAILED: profile counters differ across job counts" >&2
    echo "  jobs 8: $profile_digest" >&2
    echo "  jobs 1: $serial_profile_digest" >&2
    exit 1
fi

echo "==> scenario smoke: multi-rate matrix, sched report == jobs 1, over-budget reported"
cargo run --release --offline -p vericomp --bin compile_fleet -- \
    --scenario 3051 --scenario-tasks 16 --scenario-frames 4 \
    --configs verified,opt-full --machines mpc755,tiny-caches --jobs 8 \
    | tee target/vericomp-ci-scenario.txt
cargo run --release --offline -p vericomp --bin compile_fleet -- \
    --scenario 3051 --scenario-tasks 16 --scenario-frames 4 \
    --configs verified,opt-full --machines mpc755,tiny-caches --jobs 1 \
    | tee target/vericomp-ci-scenario-serial.txt
# every `sched:` verdict line and both digests must be identical whatever
# the job count
grep '^sched' target/vericomp-ci-scenario.txt > target/vericomp-ci-sched-lines.txt
grep '^sched' target/vericomp-ci-scenario-serial.txt \
    > target/vericomp-ci-sched-serial-lines.txt
if ! cmp -s target/vericomp-ci-sched-lines.txt \
        target/vericomp-ci-sched-serial-lines.txt; then
    echo "scenario smoke FAILED: --jobs 8 sched report differs from --jobs 1" >&2
    diff target/vericomp-ci-sched-lines.txt \
        target/vericomp-ci-sched-serial-lines.txt >&2 || true
    exit 1
fi
scenario_digest=$(grep '^fleet digest:' target/vericomp-ci-scenario.txt)
scenario_serial_digest=$(grep '^fleet digest:' target/vericomp-ci-scenario-serial.txt)
if [ "$scenario_digest" != "$scenario_serial_digest" ]; then
    echo "scenario smoke FAILED: sweep digest differs across job counts" >&2
    echo "  jobs 8: $scenario_digest" >&2
    echo "  jobs 1: $scenario_serial_digest" >&2
    exit 1
fi
# generated budgets must fit (the model is calibrated to be sound)...
if grep -q 'OVER by' target/vericomp-ci-scenario.txt; then
    echo "scenario smoke FAILED: derived budgets reported over budget" >&2
    exit 1
fi
# ...while an intentionally over-budget mode must come back as infeasible
# verdicts (exit 0 — reporting, not panicking)...
cargo run --release --offline -p vericomp --bin compile_fleet -- \
    --scenario 3051 --scenario-tasks 8 --scenario-overbudget degraded --jobs 8 \
    | tee target/vericomp-ci-scenario-over.txt
if ! grep -q 'OVER by' target/vericomp-ci-scenario-over.txt; then
    echo "scenario smoke FAILED: over-budget mode not reported infeasible" >&2
    exit 1
fi
# ...and must flip the exit code under --require-feasible
if cargo run --release --offline -p vericomp --bin compile_fleet -- \
        --scenario 3051 --scenario-tasks 8 --scenario-overbudget degraded \
        --require-feasible --jobs 8 > /dev/null 2>&1; then
    echo "scenario smoke FAILED: --require-feasible exited 0 on infeasible run" >&2
    exit 1
fi

echo "==> analyzer smoke: warm-session reuse, analyze-span budget, digests stable across jobs"
cargo run --release --offline -p vericomp --bin compile_fleet -- \
    --scenario 3051 --scenario-tasks 16 --scenario-frames 4 \
    --configs verified,opt-full --jobs 8 --reanalyze --profile \
    | tee target/vericomp-ci-analyzer.txt
cargo run --release --offline -p vericomp --bin compile_fleet -- \
    --scenario 3051 --scenario-tasks 16 --scenario-frames 4 \
    --configs verified,opt-full --jobs 1 --reanalyze --profile \
    | tee target/vericomp-ci-analyzer-serial.txt
# the audit re-derives every unique artifact through the session analyzer
# that just ran the sweep: everything must replay from the fact cache
reanalyze_line=$(grep '^reanalyze:' target/vericomp-ci-analyzer.txt)
case "$reanalyze_line" in
    *" functions_analyzed=0") : ;;
    *)
        echo "analyzer smoke FAILED: warm audit re-ran fixpoints: $reanalyze_line" >&2
        exit 1
        ;;
esac
reuse_spans=$(awk '$2 == "event" && $3 == "analyze:reuse" { print $4 }' \
    target/vericomp-ci-analyzer.txt)
if [ -z "$reuse_spans" ] || [ "$reuse_spans" -eq 0 ]; then
    echo "analyzer smoke FAILED: no analyze:reuse spans in the profile" >&2
    exit 1
fi
# the sparse worklist analyzer bounds this scenario's analyze stage in the
# low hundreds of ms (~276 ms at jobs 8 when recorded); 3000 ms is >10x
# headroom and still far under what the dense-iteration analyzer spent
analyze_ms=$(awk '$2 == "stage" && $3 == "analyze" { print $6 }' \
    target/vericomp-ci-analyzer.txt)
if ! awk -v ms="$analyze_ms" 'BEGIN { exit !(ms + 0 < 3000) }'; then
    echo "analyzer smoke FAILED: analyze stage took ${analyze_ms} ms (bound 3000)" >&2
    exit 1
fi
# sched verdicts, sweep digest and profile counters must be identical
# whatever the job count (analyze:* event counts are excluded from the
# counter digest by design — cache hits are scheduling-dependent)
grep '^sched\|^fleet digest:\|^profile: counter digest:' \
    target/vericomp-ci-analyzer.txt > target/vericomp-ci-analyzer-lines.txt
grep '^sched\|^fleet digest:\|^profile: counter digest:' \
    target/vericomp-ci-analyzer-serial.txt > target/vericomp-ci-analyzer-serial-lines.txt
if ! cmp -s target/vericomp-ci-analyzer-lines.txt \
        target/vericomp-ci-analyzer-serial-lines.txt; then
    echo "analyzer smoke FAILED: --jobs 8 run differs from --jobs 1" >&2
    diff target/vericomp-ci-analyzer-lines.txt \
        target/vericomp-ci-analyzer-serial-lines.txt >&2 || true
    exit 1
fi

echo "==> daemon smoke: shared bounded store, two clients, eviction, clean shutdown"
DAEMON_SOCK=target/vericomp-ci-daemon.sock
rm -f "$DAEMON_SOCK"
cargo run --release --offline -p vericomp --bin vericomp_serve -- \
    --socket "$DAEMON_SOCK" --shards 4 --store-bytes 120000 \
    > target/vericomp-ci-daemon.txt 2>&1 &
DAEMON_PID=$!
for _ in $(seq 1 100); do
    [ -S "$DAEMON_SOCK" ] && break
    sleep 0.1
done
if [ ! -S "$DAEMON_SOCK" ]; then
    echo "daemon smoke FAILED: socket never appeared" >&2
    cat target/vericomp-ci-daemon.txt >&2
    exit 1
fi
# client 1: a scenario through the daemon — sweep digest, every sched
# verdict line, and the sched digest must match the solo run
cargo run --release --offline -p vericomp --bin compile_fleet -- \
    --connect "$DAEMON_SOCK" \
    --scenario 3051 --scenario-tasks 16 --scenario-frames 4 \
    | tee target/vericomp-ci-daemon-scenario.txt
cargo run --release --offline -p vericomp --bin compile_fleet -- \
    --scenario 3051 --scenario-tasks 16 --scenario-frames 4 \
    | tee target/vericomp-ci-daemon-scenario-solo.txt
grep '^sched\|^fleet digest:' target/vericomp-ci-daemon-scenario.txt \
    > target/vericomp-ci-daemon-sched-lines.txt
grep '^sched\|^fleet digest:' target/vericomp-ci-daemon-scenario-solo.txt \
    > target/vericomp-ci-daemon-sched-solo-lines.txt
if ! cmp -s target/vericomp-ci-daemon-sched-lines.txt \
        target/vericomp-ci-daemon-sched-solo-lines.txt; then
    echo "daemon smoke FAILED: served scenario differs from solo" >&2
    diff target/vericomp-ci-daemon-sched-lines.txt \
        target/vericomp-ci-daemon-sched-solo-lines.txt >&2 || true
    exit 1
fi
# client 2: the named fleet through the daemon must print the digest a
# solo run of the same request prints; this batch also pushes the store
# past its byte bound, evicting the older scenario batch
cargo run --release --offline -p vericomp --bin compile_fleet -- \
    --connect "$DAEMON_SOCK" --nodes 6 --configs verified,opt-full \
    | tee target/vericomp-ci-daemon-fleet.txt
cargo run --release --offline -p vericomp --bin compile_fleet -- \
    --nodes 6 --configs verified,opt-full \
    | tee target/vericomp-ci-daemon-fleet-solo.txt
daemon_fleet_digest=$(grep '^fleet digest:' target/vericomp-ci-daemon-fleet.txt)
solo_fleet_digest=$(grep '^fleet digest:' target/vericomp-ci-daemon-fleet-solo.txt)
if [ "$daemon_fleet_digest" != "$solo_fleet_digest" ]; then
    echo "daemon smoke FAILED: served fleet digest differs from solo" >&2
    echo "  daemon: $daemon_fleet_digest" >&2
    echo "  solo:   $solo_fleet_digest" >&2
    exit 1
fi
# warm rerun of the most recent batch against the daemon's resident
# store: >=90% hits enforced client-side, same digest
cargo run --release --offline -p vericomp --bin compile_fleet -- \
    --connect "$DAEMON_SOCK" --nodes 6 --configs verified,opt-full \
    --min-hit-rate 0.9 | tee target/vericomp-ci-daemon-warm.txt
warm_daemon_digest=$(grep '^fleet digest:' target/vericomp-ci-daemon-warm.txt)
cold_daemon_digest=$(grep '^fleet digest:' target/vericomp-ci-daemon-fleet.txt)
if [ "$warm_daemon_digest" != "$cold_daemon_digest" ]; then
    echo "daemon smoke FAILED: warm daemon rerun not bit-identical" >&2
    exit 1
fi
# the byte bound must have evicted least-recent batches by now
cargo run --release --offline -p vericomp --bin vericomp_serve -- \
    --stats-of "$DAEMON_SOCK" | tee target/vericomp-ci-daemon-stats.txt
evictions=$(sed -n 's/^server: store .* evictions \([0-9]*\)$/\1/p' \
    target/vericomp-ci-daemon-stats.txt)
if [ -z "$evictions" ] || [ "$evictions" -eq 0 ]; then
    echo "daemon smoke FAILED: store bound forced no evictions" >&2
    exit 1
fi
# v2 content negotiation: a second scenario client replays the first
# client's scenario from a fresh connection — every unit digest is
# already in the daemon's parse cache, so the request must upload zero
# unit bodies and resolve >=90% of its units as parse-cache hits
cargo run --release --offline -p vericomp --bin vericomp_serve -- \
    --stats-of "$DAEMON_SOCK" > target/vericomp-ci-daemon-stats-before.txt
cargo run --release --offline -p vericomp --bin compile_fleet -- \
    --connect "$DAEMON_SOCK" \
    --scenario 3051 --scenario-tasks 16 --scenario-frames 4 \
    | tee target/vericomp-ci-daemon-scenario-warm.txt
grep '^sched\|^fleet digest:' target/vericomp-ci-daemon-scenario-warm.txt \
    > target/vericomp-ci-daemon-sched-warm-lines.txt
if ! cmp -s target/vericomp-ci-daemon-sched-warm-lines.txt \
        target/vericomp-ci-daemon-sched-solo-lines.txt; then
    echo "daemon smoke FAILED: warm scenario client differs from solo" >&2
    diff target/vericomp-ci-daemon-sched-warm-lines.txt \
        target/vericomp-ci-daemon-sched-solo-lines.txt >&2 || true
    exit 1
fi
cargo run --release --offline -p vericomp --bin vericomp_serve -- \
    --stats-of "$DAEMON_SOCK" > target/vericomp-ci-daemon-stats-after.txt
uploaded_before=$(awk '$2 == "wire" { print $10 }' \
    target/vericomp-ci-daemon-stats-before.txt)
uploaded_after=$(awk '$2 == "wire" { print $10 }' \
    target/vericomp-ci-daemon-stats-after.txt)
if [ -z "$uploaded_before" ] || [ -z "$uploaded_after" ] \
        || [ "$uploaded_after" -ne "$uploaded_before" ]; then
    echo "daemon smoke FAILED: warm scenario client uploaded unit bodies" >&2
    echo "  uploaded before: ${uploaded_before:-?}, after: ${uploaded_after:-?}" >&2
    exit 1
fi
parse_rate=$(awk '
    $2 == "parse-cache" && FNR == NR { hb = $4; mb = $6 }
    $2 == "parse-cache" && FNR != NR {
        h = $4 - hb; m = $6 - mb
        if (h + m > 0) printf "%.3f", h / (h + m); else print "0.000"
    }' target/vericomp-ci-daemon-stats-before.txt \
        target/vericomp-ci-daemon-stats-after.txt)
if ! awk -v r="$parse_rate" 'BEGIN { exit !(r + 0 >= 0.9) }'; then
    echo "daemon smoke FAILED: warm scenario parse-cache hit rate ${parse_rate:-?} < 0.9" >&2
    cat target/vericomp-ci-daemon-stats-after.txt >&2
    exit 1
fi
echo "daemon smoke: warm scenario client negotiated 0 uploads, parse hit rate $parse_rate"
# clean shutdown: ack, daemon exits 0, socket file removed
cargo run --release --offline -p vericomp --bin vericomp_serve -- \
    --shutdown "$DAEMON_SOCK"
if ! wait $DAEMON_PID; then
    echo "daemon smoke FAILED: daemon exited non-zero" >&2
    cat target/vericomp-ci-daemon.txt >&2
    exit 1
fi
if ! grep -q '^vericomp_serve: clean shutdown$' target/vericomp-ci-daemon.txt; then
    echo "daemon smoke FAILED: no clean-shutdown line in daemon log" >&2
    cat target/vericomp-ci-daemon.txt >&2
    exit 1
fi
if [ -e "$DAEMON_SOCK" ]; then
    echo "daemon smoke FAILED: socket file survived shutdown" >&2
    exit 1
fi

echo "==> telemetry smoke: merged wire trace, metrics + recorder admin, p99 SLO"
TELEM_SOCK=target/vericomp-ci-telemetry.sock
METRICS_JSON=target/vericomp-ci-metrics.json
MERGED_TRACE=target/vericomp-ci-merged-trace.json
rm -f "$TELEM_SOCK" "$METRICS_JSON" "$MERGED_TRACE"
cargo run --release --offline -p vericomp --bin vericomp_serve -- \
    --socket "$TELEM_SOCK" --metrics-json "$METRICS_JSON" --slo-p99-ms 600000 \
    > target/vericomp-ci-telemetry-daemon.txt 2>&1 &
TELEM_PID=$!
for _ in $(seq 1 100); do
    [ -S "$TELEM_SOCK" ] && break
    sleep 0.1
done
if [ ! -S "$TELEM_SOCK" ]; then
    echo "telemetry smoke FAILED: socket never appeared" >&2
    cat target/vericomp-ci-telemetry-daemon.txt >&2
    exit 1
fi
# a traced scenario through the daemon: --connect --trace now works and
# writes one merged Chrome trace — client rows under pid 1, the server's
# rows for the same request (tagged with its trace id) under pid 2
cargo run --release --offline -p vericomp --bin compile_fleet -- \
    --connect "$TELEM_SOCK" --trace "$MERGED_TRACE" \
    --scenario 3051 --scenario-tasks 16 --scenario-frames 4 \
    | tee target/vericomp-ci-telemetry-traced.txt
if ! grep -q '^trace: .* server-side, trace id ' \
        target/vericomp-ci-telemetry-traced.txt; then
    echo "telemetry smoke FAILED: traced connect run printed no trace line" >&2
    exit 1
fi
python3 - "$MERGED_TRACE" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "merged trace has no events"
pids = {e["pid"] for e in events}
assert 1 in pids, "no client-side rows (pid 1) in the merged trace"
assert 2 in pids, "no server-side rows (pid 2) in the merged trace"
server_names = {e["name"] for e in events if e["pid"] == 2}
for stage in ("queue-wait", "cache-lookup", "compile", "analyze", "store"):
    assert stage in server_names, f"server rows are missing stage `{stage}`"
client_names = {e["name"] for e in events if e["pid"] == 1}
assert "connect" in client_names and "request" in client_names, \
    f"client rows incomplete: {sorted(client_names)}"
server = [e for e in events if e["pid"] == 2]
assert all("trace=" in e["args"]["detail"] for e in server), \
    "a server span lost its trace tag"
tags = {d.split()[0] for d in (e["args"]["detail"] for e in server)
        for d in [d[d.index("trace="):]]}
assert len(tags) == 1, f"server spans carry mixed trace ids: {tags}"
print(f"telemetry smoke: merged trace has {len(events)} events, "
      f"{len(server)} server-side, one trace id")
EOF
# mid-run admin: the metrics registry and the flight-recorder ring are
# queryable without stopping the daemon, and both are valid JSON
cargo run --release --offline -p vericomp --bin vericomp_serve -- \
    --metrics-of "$TELEM_SOCK" > target/vericomp-ci-telemetry-metrics.txt
cargo run --release --offline -p vericomp --bin vericomp_serve -- \
    --recorder-of "$TELEM_SOCK" > target/vericomp-ci-telemetry-recorder.txt
python3 - target/vericomp-ci-telemetry-metrics.txt \
    target/vericomp-ci-telemetry-recorder.txt <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
assert m["counters"].get("requests", 0) >= 1, "no requests counted"
assert m["counters"].get("batches", 0) >= 1, "no batches counted"
for hist in ("request_wall_ns", "batch_cells", "queue_depth"):
    h = m["histograms"].get(hist)
    assert h and h["count"] >= 1, f"histogram `{hist}` missing or empty"
    assert h["p50"] <= h["p99"], f"histogram `{hist}` quantiles disordered"
assert len(m["counter_digest"]) == 32, "malformed metrics counter digest"
r = json.load(open(sys.argv[2]))
kinds = {e["kind"] for e in r["events"]}
for kind in ("accept", "request", "batch-join", "sweep-start", "sweep-end"):
    assert kind in kinds, f"recorder has no `{kind}` events ({sorted(kinds)})"
traced = [e for e in r["events"] if e["trace"] != "0" * 16]
assert traced, "the traced request never reached the flight recorder"
print(f"telemetry smoke: {len(r['events'])} recorder events, "
      f"kinds {sorted(kinds)}")
EOF
# the stats snapshot now reports request-latency percentiles and judges
# the p99 SLO (600 s here, so it must come back `met`)
cargo run --release --offline -p vericomp --bin vericomp_serve -- \
    --stats-of "$TELEM_SOCK" | tee target/vericomp-ci-telemetry-stats.txt
if ! grep -q '^server: latency request p50 ' \
        target/vericomp-ci-telemetry-stats.txt; then
    echo "telemetry smoke FAILED: stats missing the request-latency line" >&2
    exit 1
fi
if ! grep -q '^server: p99 SLO .*: met (p99 ' target/vericomp-ci-telemetry-stats.txt; then
    echo "telemetry smoke FAILED: p99 SLO line missing or MISSED" >&2
    exit 1
fi
# the stats view is derived from the registry: both admin reads report
# the same counters
python3 - target/vericomp-ci-telemetry-stats.txt \
    target/vericomp-ci-telemetry-metrics.txt <<'EOF'
import json, re, sys
stats = open(sys.argv[1]).read()
counters = json.load(open(sys.argv[2]))["counters"]
def field(pattern):
    m = re.search(pattern, stats, re.M)
    assert m, f"stats output lacks /{pattern}/"
    return int(m.group(1))
view = {
    "requests": field(r"^server: requests (\d+) "),
    "batches": field(r"^server: requests \d+ batches (\d+) "),
    "units_uploaded": field(r"^server: wire .* uploaded (\d+)$"),
    "evictions": field(r"^server: store .* evictions (\d+)$"),
}
for name, value in view.items():
    assert counters.get(name, 0) == value, \
        f"--stats-of {name} {value} != --metrics-of {counters.get(name, 0)}"
print(f"telemetry smoke: --stats-of and --metrics-of agree on {sorted(view)}")
EOF
# clean shutdown persists the registry to --metrics-json
cargo run --release --offline -p vericomp --bin vericomp_serve -- \
    --shutdown "$TELEM_SOCK"
if ! wait $TELEM_PID; then
    echo "telemetry smoke FAILED: daemon exited non-zero" >&2
    cat target/vericomp-ci-telemetry-daemon.txt >&2
    exit 1
fi
python3 - "$METRICS_JSON" target/vericomp-ci-telemetry-metrics.txt <<'EOF'
import json, sys
final = json.load(open(sys.argv[1]))
mid = json.load(open(sys.argv[2]))
assert final["counters"]["requests"] >= mid["counters"]["requests"], \
    "persisted registry lost requests recorded mid-run"
assert len(final["counter_digest"]) == 32
print("telemetry smoke: registry persisted at shutdown")
EOF

echo "==> daemon bench: E10 soak, recorder overhead < 3%, latency in BENCH_daemon.json"
cargo bench --offline -p vericomp-bench --bench daemon \
    | tee target/vericomp-ci-bench-daemon.txt
if ! grep -q '^daemon: recorder overhead on warm soak' \
        target/vericomp-ci-bench-daemon.txt; then
    echo "daemon bench FAILED: no recorder-overhead line (gate not exercised)" >&2
    exit 1
fi
python3 - crates/bench/BENCH_daemon.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
notes = doc["notes"]
metrics = notes["metrics"]
for hist in ("request_wall_ns", "batch_cells", "queue_depth"):
    assert metrics["histograms"][hist]["count"] >= 1, f"`{hist}` empty in BENCH_daemon.json"
latency = metrics["histograms"]["request_wall_ns"]
assert latency["p50"] >= 1 and latency["p99"] >= latency["p50"], \
    "request latency percentiles missing from the metrics note"
recorder = notes["recorder"]
assert recorder["warm_on_ns"] >= 1 and recorder["warm_off_ns"] >= 1
print("daemon bench: BENCH_daemon.json carries latency percentiles + histograms")
EOF

echo "==> all checks passed"
