#!/bin/bash
# Minimal CI gate: release build, full test suite, lint-clean clippy,
# and a smoke run of the overhead benchmark (regenerates
# BENCH_overhead.json, checked in).
set -euo pipefail
cd "$(dirname "$0")"

echo "=== build (release) ==="
cargo build --release

echo "=== tests ==="
cargo test -q

echo "=== tests (every workspace crate's own unit tests) ==="
cargo test --workspace -q

if [ "${TASKPROF_ASAN:-0}" = "1" ]; then
    echo "=== address sanitizer (opt-in: TASKPROF_ASAN=1, needs nightly) ==="
    # Every workspace test target under ASan: the UnsafeCell shards, the
    # Treiber hand-off, the SendPtr kernels and raw epoll. Doctests are
    # left out because they fail to link the sanitizer runtime. One test
    # is skipped: the vendored proptest stub's own
    # persisted_seed_replays_before_novel_cases leaks a path on purpose
    # (`Box::leak` for a `&'static str`), which LeakSanitizer reports.
    RUSTFLAGS="-Zsanitizer=address" cargo +nightly test --workspace \
        --lib --bins --tests --target x86_64-unknown-linux-gnu -q \
        -- --skip persisted_seed_replays_before_novel_cases
fi

echo "=== clippy (workspace, all targets) ==="
cargo clippy --workspace --all-targets -- -D warnings

echo "=== clippy (portable clock path) ==="
# Compile-check the non-TSC clock fallback other architectures take,
# without needing a cross toolchain (see crates/pomp/src/clock.rs).
RUSTFLAGS="--cfg taskprof_portable_clock" \
    cargo clippy -p pomp --all-targets -- -D warnings

echo "=== overhead bench smoke (test scale) ==="
BENCH_SCALE="${BENCH_SCALE:-test}" BENCH_REPS="${BENCH_REPS:-1}" \
    cargo run --release -p bench --bin overhead_json -- /tmp/BENCH_overhead.smoke.json
# The profile_ingest section must carry the paired per-protocol daemon
# numbers (JSON lines vs. TPF1 binary) next to the direct-store rate.
grep -q '"server_json_profiles_per_sec"' /tmp/BENCH_overhead.smoke.json
grep -q '"server_bin_profiles_per_sec"' /tmp/BENCH_overhead.smoke.json
grep -q '"server_bin_profiles_per_sec"' BENCH_overhead.json
echo "(full run: BENCH_SCALE=small cargo run --release -p bench --bin overhead_json)"

echo "=== live telemetry smoke ==="
# Polls the lock-free gauges while nqueens runs, then asserts both
# exporters round-trip and the HWM gauge matches the profile.
cargo run --release --example live_telemetry | tee /tmp/live_telemetry.out
grep -q "LIVE_TELEMETRY_OK" /tmp/live_telemetry.out

echo "=== trace smoke (event trace from the profiler's edge log) ==="
# One measurement yields both the profile and the trace: the example and
# the CLI build the trace from the recorded edge log and must report the
# paper's management/work ratio.
cargo run --release --example trace_analysis | tee /tmp/trace_analysis.out
grep -q 'management/work ratio' /tmp/trace_analysis.out \
    || { echo "trace example printed no management/work ratio"; exit 1; }
cargo run --release --bin taskprof-cli -- run fib --scale test --trace | tee /tmp/trace_cli.out
grep -q 'management/work ratio' /tmp/trace_cli.out \
    || { echo "run --trace printed no management/work ratio"; exit 1; }

echo "=== schedule exploration smoke ==="
# Deterministic simulated schedules over the built-in workloads, every
# run checked against the paper's profile invariants plus a differential
# live-vs-replay comparison. TASKPROF_EXPLORE_SEEDS scales the sweep
# (nightly runs use hundreds; the smoke default keeps CI fast).
TASKPROF_EXPLORE_SEEDS="${TASKPROF_EXPLORE_SEEDS:-32}" \
    cargo run --release --bin taskprof-cli -- explore --threads 2 --workload all --dfs 100

echo "=== causal what-if smoke (replay-checked prediction) ==="
# Predict the makespan with the task region 3x faster, then replay the
# same seed with the work actually scaled: --validate exits nonzero
# unless the replayed makespan equals the prediction exactly.
cargo run --release --bin taskprof-cli -- whatif \
    --workload div --seed 11 --threads 2 \
    --region 'sim-div-3!task' --speedup 3 --validate | tee /tmp/whatif.out
grep -q 'predicted makespan' /tmp/whatif.out \
    || { echo "what-if printed no prediction"; exit 1; }
grep -q 'replay reproduced the prediction exactly' /tmp/whatif.out \
    || { echo "what-if replay validation missing"; exit 1; }
cargo run --release --bin taskprof-cli -- critpath \
    --workload div --seed 11 --threads 2 | tee /tmp/critpath.out
grep -q 'parallelism' /tmp/critpath.out \
    || { echo "critpath report missing parallelism"; exit 1; }

echo "=== profile repository smoke ==="
# Serve an empty store on an ephemeral port, ingest two deterministic
# seeded runs over TCP, then gate on the regression query: a candidate
# re-measured from the same seed must not regress against its own
# baseline (exit 3 would mean the daemon flagged a regression).
REPO_DIR="$(mktemp -d /tmp/profrepo-smoke.XXXXXX)"
PORT_FILE="$REPO_DIR/port"
cargo run --release --bin taskprof-cli -- serve \
    --dir "$REPO_DIR/store" --addr 127.0.0.1:0 --port-file "$PORT_FILE" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$REPO_DIR"' EXIT
for _ in $(seq 1 300); do [ -s "$PORT_FILE" ] && break; sleep 0.2; done
[ -s "$PORT_FILE" ] || { echo "serve daemon never published its port"; exit 1; }
ADDR="127.0.0.1:$(cat "$PORT_FILE")"
# Exercise both wire protocols against the same daemon: the binary
# TPF1 framing and the JSON-lines fallback must store runs in one log
# and answer queries byte-identically.
cargo run --release --bin taskprof-cli -- ingest \
    --addr "$ADDR" --app fib --seed 41 --runs 2 --threads 2 --proto bin
cargo run --release --bin taskprof-cli -- ingest \
    --addr "$ADDR" --app fib --seed 43 --runs 1 --threads 2 --proto json
cargo run --release --bin taskprof-cli -- query top \
    --addr "$ADDR" --bench fib --threads 2 --proto bin | tee /tmp/top.bin.out
cargo run --release --bin taskprof-cli -- query top \
    --addr "$ADDR" --bench fib --threads 2 --proto json | tee /tmp/top.json.out
cmp /tmp/top.bin.out /tmp/top.json.out \
    || { echo "query output differs between wire protocols"; exit 1; }
grep -q '"runs":3' /tmp/top.bin.out \
    || { echo "expected 3 runs across both protocols"; exit 1; }
cargo run --release --bin taskprof-cli -- query regress \
    --addr "$ADDR" --bench fib --threads 2 --app fib --seed 41

echo "=== live subscription smoke ==="
# One subscriber per wire protocol; each must observe the ingest
# notification pushed mid-stream plus periodic telemetry snapshots.
# Use the already-built binary directly: cargo's file locks would eat
# the subscription window while the watchers count frames.
CLI=target/release/taskprof-cli
"$CLI" watch \
    --addr "$ADDR" --proto json --interval-ms 200 --frames 20 --format jsonl \
    > /tmp/watch.json.out &
WATCH_JSON_PID=$!
"$CLI" watch \
    --addr "$ADDR" --proto bin --interval-ms 200 --frames 20 --format jsonl \
    > /tmp/watch.bin.out &
WATCH_BIN_PID=$!
# Hold the upload until both subscribers are attached; they then keep
# watching for ~4s, so the fan-out provably reaches them.
for _ in $(seq 1 100); do
    "$CLI" query stats --prometheus --addr "$ADDR" > /tmp/prom.out
    SUBS=$(awk '$1 == "profserve_subscriptions_total" { print $2 }' /tmp/prom.out)
    [ "${SUBS:-0}" -ge 2 ] && break
    sleep 0.1
done
[ "${SUBS:-0}" -ge 2 ] || { echo "subscribers never attached"; exit 1; }
"$CLI" ingest \
    --addr "$ADDR" --app fib --seed 45 --runs 1 --threads 2 --proto bin
wait "$WATCH_JSON_PID" || { echo "json watch failed"; exit 1; }
wait "$WATCH_BIN_PID" || { echo "binary watch failed"; exit 1; }
for OUT in /tmp/watch.json.out /tmp/watch.bin.out; do
    grep -q '"event":"ingest"' "$OUT" \
        || { echo "$OUT: no ingest notification observed"; exit 1; }
    grep -q '"event":"telemetry"' "$OUT" \
        || { echo "$OUT: no telemetry snapshot observed"; exit 1; }
done
# The Prometheus scrape must expose the request-latency histograms.
"$CLI" query stats --prometheus --addr "$ADDR" > /tmp/prom.out
grep -q '^profserve_request_latency_ns_bucket' /tmp/prom.out \
    || { echo "no latency histogram in prometheus scrape"; exit 1; }
grep -q '^profserve_store_runs' /tmp/prom.out \
    || { echo "no store gauges in prometheus scrape"; exit 1; }

echo "=== resilient export smoke (spool while down, drain when back) ==="
# Daemon still up: an ingest pointed at a *dead* port with --spool must
# exit 0 and leave a frame file; `drain` against the live daemon must
# deliver it exactly once and empty the spool.
SPOOL_DIR="$REPO_DIR/spool"
DEAD_ADDR="127.0.0.1:1"
cargo run --release --bin taskprof-cli -- ingest \
    --addr "$DEAD_ADDR" --app fib --seed 77 --runs 1 --threads 2 \
    --spool "$SPOOL_DIR" --deadline-ms 500
FRAMES=$(find "$SPOOL_DIR" -name '*.frame' | wc -l)
[ "$FRAMES" -eq 1 ] || { echo "expected 1 spooled frame, found $FRAMES"; exit 1; }
cargo run --release --bin taskprof-cli -- drain --addr "$ADDR" --spool "$SPOOL_DIR"
FRAMES=$(find "$SPOOL_DIR" -name '*.frame' | wc -l)
[ "$FRAMES" -eq 0 ] || { echo "spool not drained: $FRAMES frame(s) left"; exit 1; }
# Draining an empty spool is a no-op success (exactly-once).
cargo run --release --bin taskprof-cli -- drain --addr "$ADDR" --spool "$SPOOL_DIR"
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true

echo "=== replication smoke (two daemons, auth, sharded follower) ==="
# A leader and a sharded follower on ephemeral ports, both requiring the
# shared secret; `replicate` pumps the leader's log over, and the
# replicas must answer the canonical query byte-identically. A second
# pump must be exactly-once (nothing new to apply).
LEAD_PORT_FILE="$REPO_DIR/lead-port"
FOLW_PORT_FILE="$REPO_DIR/folw-port"
"$CLI" serve --dir "$REPO_DIR/leader" --addr 127.0.0.1:0 \
    --port-file "$LEAD_PORT_FILE" --auth hunter2 &
LEAD_PID=$!
"$CLI" serve --dir "$REPO_DIR/follower" --addr 127.0.0.1:0 \
    --port-file "$FOLW_PORT_FILE" --auth hunter2 --shards 2 --keep-last 100 &
FOLW_PID=$!
trap 'kill "$SERVE_PID" "$LEAD_PID" "$FOLW_PID" 2>/dev/null || true; rm -rf "$REPO_DIR"' EXIT
for _ in $(seq 1 300); do
    [ -s "$LEAD_PORT_FILE" ] && [ -s "$FOLW_PORT_FILE" ] && break
    sleep 0.2
done
{ [ -s "$LEAD_PORT_FILE" ] && [ -s "$FOLW_PORT_FILE" ]; } \
    || { echo "replication daemons never published their ports"; exit 1; }
LEAD_ADDR="127.0.0.1:$(cat "$LEAD_PORT_FILE")"
FOLW_ADDR="127.0.0.1:$(cat "$FOLW_PORT_FILE")"
# The wrong secret must be refused before any data moves.
if "$CLI" query stats --addr "$LEAD_ADDR" --auth wrong 2>/dev/null; then
    echo "wrong secret was accepted"; exit 1
fi
"$CLI" ingest --addr "$LEAD_ADDR" --app fib --seed 61 --runs 3 --threads 2 \
    --proto bin --auth hunter2
"$CLI" replicate --from "$LEAD_ADDR" --to "$FOLW_ADDR" --auth hunter2 --batch 2
"$CLI" query top --addr "$LEAD_ADDR" --bench fib --threads 2 --auth hunter2 \
    > /tmp/top.lead.out
"$CLI" query top --addr "$FOLW_ADDR" --bench fib --threads 2 --auth hunter2 \
    > /tmp/top.folw.out
cmp /tmp/top.lead.out /tmp/top.folw.out \
    || { echo "replica query output diverges from the leader"; exit 1; }
grep -q '"runs":3' /tmp/top.folw.out \
    || { echo "follower missed replicated runs"; exit 1; }
"$CLI" replicate --from "$LEAD_ADDR" --to "$FOLW_ADDR" --auth hunter2 \
    | tee /tmp/replicate.out
grep -q ' 0 frame(s) applied' /tmp/replicate.out \
    || { echo "re-pump was not a no-op"; exit 1; }
kill "$LEAD_PID" "$FOLW_PID" 2>/dev/null || true
wait "$LEAD_PID" 2>/dev/null || true
wait "$FOLW_PID" 2>/dev/null || true

echo "=== fault-injection torture (pinned seed) ==="
# Crash-at-every-injection-point over the store's VFS seam — single
# store, plus the sharded leader/follower replication sweeps; the pinned
# seed keeps nightly logs comparable while the in-tree seeds rotate.
TASKPROF_TORTURE_SEED="${TASKPROF_TORTURE_SEED:-20260808}" \
    cargo test --release --test profstore_torture -q

echo "CI_OK"
