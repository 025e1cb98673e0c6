#!/bin/sh
# Tier-1 gate: what must stay green on every change.
#   scripts/ci.sh
# Runs the release build, the full workspace test suite (including the
# property-based differential harness), clippy with warnings denied on
# the crates the solver stack touches (which enforces the module-level
# `deny(clippy::unwrap_used, clippy::panic)` gates on the parser and
# the error/budget/certify layer), rustdoc with warnings denied on
# mcr-core, mcr-graph, mcr-gen and mcr-obs, a CLI smoke test of the exit
# code contract against the bad-input corpus, a byte-compare of the
# static solve across per-SCC driver thread counts, a kill -9
# crash-recovery drill of the mcrd solve daemon, and a two-shard fleet
# drill that SIGKILLs one shard mid-replay and proves every request
# still settles exactly once with zero duplicate solves.
set -eu
cd "$(dirname "$0")/.."

echo "=== cargo build --release ==="
cargo build --workspace --release

echo "=== mcr-lint (workspace contract checker) ==="
# Fails on any non-allowlisted diagnostic: budget/cancellation coverage
# (MCRL001), chaos-site manifest drift (MCRL002), bare f64 equality
# (MCRL003), narrowing casts in hot paths (MCRL004), panic sources in
# the panic-free layers (MCRL005), obs metrics coverage of budgeted
# loops (MCRL006), RequestGuard containment of every serve-layer
# request handler (MCRL008), bounded RetryPolicy caps on network
# connect/send loops (MCRL009), order-unstable containers and wall
# clocks in determinism scopes (MCRL010), wire-format schema manifest
# drift (MCRL011), total SolveStatus maps (MCRL013), and the declared
# serve lock order (MCRL014). MCRL007 and MCRL012 are retired. See
# DESIGN.md and crates/lint.
# SARIF 2.1.0 report for code-scanning upload (the workflow's lint job
# publishes it). Emitted before the gating run so a red lint still
# leaves lint.sarif on disk for triage — hence the || true here and the
# separate gating invocation below.
cargo run -q -p mcr-lint -- --format sarif > lint.sarif || true
cargo run -q -p mcr-lint
# --changed-only smoke: the incremental path must analyze the whole
# workspace but report only findings in files HEAD~1 touched. On a
# clean tree this exits 0 whatever the diff, proving flag parsing and
# the git plumbing work; a shallow or single-commit clone has no
# HEAD~1, so fall back to HEAD (empty diff) in that case.
if git rev-parse -q --verify HEAD~1 >/dev/null 2>&1; then
    cargo run -q -p mcr-lint -- --changed-only HEAD~1 >/dev/null
else
    cargo run -q -p mcr-lint -- --changed-only HEAD >/dev/null
fi

echo "=== cargo test (workspace) ==="
cargo test -q --workspace

echo "=== cargo clippy -D warnings (solver stack) ==="
cargo clippy -q -p mcr-graph -p mcr-gen -p mcr-core -p mcr-cli -p mcr-bench \
    -p mcr-serve --all-targets -- -D warnings

echo "=== rustdoc -D warnings (mcr-core private items; graph, gen, obs) ==="
# Broken intra-doc links and public docs that point at private items
# fail the gate, so the module docs stay navigable.
RUSTDOCFLAGS="-D warnings" cargo doc -q -p mcr-core --no-deps --document-private-items
RUSTDOCFLAGS="-D warnings" cargo doc -q -p mcr-graph -p mcr-gen -p mcr-obs --no-deps

echo "=== CLI smoke: exit-code contract ==="
MCR=target/release/mcr
# Every bad-corpus file must fail cleanly: exit 1, no panic backtrace.
for f in crates/graph/tests/data/bad/*.dimacs; do
    status=0
    "$MCR" solve "$f" >/dev/null 2>/tmp/mcr_ci_stderr || status=$?
    if [ "$status" -ne 1 ]; then
        echo "FAIL: $f exited $status, expected 1"
        exit 1
    fi
    if grep -qi "panicked" /tmp/mcr_ci_stderr; then
        echo "FAIL: $f produced a panic:"
        cat /tmp/mcr_ci_stderr
        exit 1
    fi
done
# A timeout that fires mid-solve must exit 4 (cancelled).
printf 'p mcr 2 2\na 1 2 1\na 2 1 4001\n' > /tmp/mcr_ci_timeout.dimacs
status=0
"$MCR" solve /tmp/mcr_ci_timeout.dimacs --algorithm lawler-exact \
    --timeout 0ms >/dev/null 2>&1 || status=$?
if [ "$status" -ne 4 ]; then
    echo "FAIL: expired --timeout exited $status, expected 4"
    exit 1
fi
rm -f /tmp/mcr_ci_timeout.dimacs
# A starved budget with no fallback must exit 2 (budget exhausted)...
printf 'p mcr 2 2\na 1 2 1\na 2 1 4001\n' > /tmp/mcr_ci_hostile.dimacs
status=0
"$MCR" solve /tmp/mcr_ci_hostile.dimacs --algorithm lawler-exact \
    --budget refine=1 --fallback none >/dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
    echo "FAIL: starved budget exited $status, expected 2"
    exit 1
fi
# ...and with the default fallback chain it must still answer (exit 0).
"$MCR" solve /tmp/mcr_ci_hostile.dimacs --algorithm lawler-exact \
    --budget refine=1 > /tmp/mcr_ci_stdout
grep -q "answered instead" /tmp/mcr_ci_stdout
grep -q "certificate" /tmp/mcr_ci_stdout
# Maximizing through a weight of i64::MIN, whose negation overflows,
# must fail typed (exit 1, no panic) when the weight lies on a cycle,
# and must answer when it lies on none: only cyclic arcs are negated.
printf 'p mcr 2 2\na 1 2 -9223372036854775808\na 2 1 0\n' > /tmp/mcr_ci_min_on.dimacs
status=0
"$MCR" solve /tmp/mcr_ci_min_on.dimacs --max >/dev/null 2>/tmp/mcr_ci_stderr || status=$?
if [ "$status" -ne 1 ] || grep -qi "panicked" /tmp/mcr_ci_stderr; then
    echo "FAIL: --max through i64::MIN on a cycle exited $status, expected 1 with no panic"
    cat /tmp/mcr_ci_stderr
    exit 1
fi
printf 'p mcr 3 3\na 1 2 1\na 2 1 1\na 2 3 -9223372036854775808\n' > /tmp/mcr_ci_min_off.dimacs
"$MCR" solve /tmp/mcr_ci_min_off.dimacs --max > /tmp/mcr_ci_stdout
grep -q "^lambda = 1 " /tmp/mcr_ci_stdout
# The transit expansion (a ratio spec with no ratio kernel) negates only
# the components it expands, so it answers too.
"$MCR" solve /tmp/mcr_ci_min_off.dimacs --max --ratio --algorithm karp > /tmp/mcr_ci_stdout
grep -q "^lambda = 1 " /tmp/mcr_ci_stdout
rm -f /tmp/mcr_ci_stderr /tmp/mcr_ci_stdout /tmp/mcr_ci_hostile.dimacs \
    /tmp/mcr_ci_min_on.dimacs /tmp/mcr_ci_min_off.dimacs

echo "=== driver smoke: 1, 2 and 4 threads, byte-identical ==="
# The per-SCC driver changes wall-clock only, never output: the full
# CLI output (witness, critical subgraph, counters) must match
# byte-for-byte at every thread count, for the default algorithm and
# for Karp.
for alg in howard-exact karp; do
    "$MCR" solve benchmarks/multi_scc.dimacs --algorithm "$alg" --critical \
        --counters --threads 1 > /tmp/mcr_ci_t1.out
    for t in 2 4; do
        "$MCR" solve benchmarks/multi_scc.dimacs --algorithm "$alg" --critical \
            --counters --threads "$t" > /tmp/mcr_ci_tn.out
        cmp /tmp/mcr_ci_t1.out /tmp/mcr_ci_tn.out || {
            echo "FAIL: $alg output differs between 1 and $t driver threads"
            exit 1
        }
    done
done
rm -f /tmp/mcr_ci_t1.out /tmp/mcr_ci_tn.out

echo "=== exact-counter gate: perfbench traced pass against golden_counts.txt ==="
# The benchmark's traced pass runs every layer once and exits 1 if any
# operation count (relaxations, arcs visited, iterations, heap
# operations, cache hits, ...) differs from perfbench/golden_counts.txt,
# which pins the build seed 1 and the held-out seed 7. Counts do not
# depend on the machine, so they gate exactly.
for seed in 1 7; do
    cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
        --workload giant_scc.karp --seed $seed --seconds 1 --trace 1 >/dev/null
done

echo "=== dynamic solver: quick differential tier + golden-edits smoke ==="
# Quick tier of the incremental-solver differential harness (the full
# 200-script sweep runs with the workspace tests above; this re-runs
# the trimmed sweep under the env knob so the knob itself stays
# exercised).
MCR_DYNAMIC_QUICK=1 cargo test -q -p mcr-core --test dynamic_differential
# The robustness suite again in release: integer wraps that a debug
# build traps (and so never shows as a wrong answer) only surface with
# overflow checks off, where a kernel must still fail typed.
cargo test -q --release -p mcr-core --test robustness
# CLI smoke: replaying the committed golden edit script must print the
# pinned λ* trajectory, byte-identical at 1 and 4 driver threads (the
# per-batch hit/miss split is fingerprint-based, so it is
# thread-count-independent too).
"$MCR" dynamic --edits crates/core/tests/data/golden_edits.jsonl \
    --threads 1 > /tmp/mcr_ci_dyn1.out
"$MCR" dynamic --edits crates/core/tests/data/golden_edits.jsonl \
    --threads 4 > /tmp/mcr_ci_dyn4.out
cmp /tmp/mcr_ci_dyn1.out /tmp/mcr_ci_dyn4.out || {
    echo "FAIL: mcr dynamic output differs between 1 and 4 threads"
    exit 1
}
grep '^batch' /tmp/mcr_ci_dyn1.out | sed 's/.*lambda = \([^ ]*\) .*/\1/' \
    > /tmp/mcr_ci_dyn_traj.txt
grep -v '^#' crates/core/tests/data/golden_edits_expected.txt \
    | diff - /tmp/mcr_ci_dyn_traj.txt || {
    echo "FAIL: mcr dynamic trajectory drifted from golden_edits_expected.txt"
    exit 1
}
grep -q "incremental;" /tmp/mcr_ci_dyn1.out || {
    echo "FAIL: the golden replay never took the incremental path"
    exit 1
}
# An insert or delete re-decomposes only the components it touches:
# the replay runs Tarjan over the whole graph once, for the first build.
grep -qx "whole-graph Tarjan runs: 1" /tmp/mcr_ci_dyn1.out || {
    echo "FAIL: the golden replay ran Tarjan over the whole graph after the first build"
    grep "Tarjan" /tmp/mcr_ci_dyn1.out
    exit 1
}
rm -f /tmp/mcr_ci_dyn1.out /tmp/mcr_ci_dyn4.out /tmp/mcr_ci_dyn_traj.txt

echo "=== chaos suite (--features chaos, 3 fixed seeds) ==="
# The chaos tests prove the fault-injection contract: under injected
# faults the fallback chain engages and the answer certifies, or the
# solve fails *closed* with a typed error — never a wrong answer, hang,
# or poisoned workspace. Each seed derives a different one-shot trigger
# pattern, so three seeds exercise three distinct fault placements.
for seed in 11 42 20240806; do
    echo "--- chaos seed $seed ---"
    MCR_CHAOS_SEED=$seed cargo test -q -p mcr-core --features chaos \
        --test chaos --test checkpoint_resume
    MCR_CHAOS_SEED=$seed cargo test -q -p mcr-serve --features chaos \
        --test soak
done

echo "=== chaos clippy (-D warnings, chaos configuration) ==="
cargo clippy -q -p mcr-core -p mcr-chaos -p mcr-serve \
    --features mcr-core/chaos,mcr-serve/chaos \
    --all-targets -- -D warnings

echo "=== chaos-off assertion: mcr-chaos absent from the default build ==="
# Zero-cost-when-compiled-out is a *link-level* claim: without the
# feature, mcr-chaos must not appear in mcr-core's dependency graph at
# all (the cfg-gated dependency is dropped, not just unused).
if cargo tree -p mcr-core -e normal | grep -q "mcr-chaos"; then
    echo "FAIL: mcr-chaos is linked into the default (chaos-off) build"
    cargo tree -p mcr-core -e normal | grep "mcr-chaos"
    exit 1
fi
if ! cargo tree -p mcr-core -e normal --features chaos | grep -q "mcr-chaos"; then
    echo "FAIL: --features chaos did not pull in mcr-chaos (tree check is vacuous)"
    exit 1
fi

echo "=== obs suite (--features obs: golden traces, metrics, summary) ==="
# The observability tests pin the mcr-trace v1 wire format: golden
# trace/metrics/summary snapshots with normalized timestamps, identical
# at 1/2/8 worker threads, plus the schema-version-bump guard.
cargo test -q -p mcr-core --features obs
cargo test -q -p mcr-obs
# Both features: a fault lands in the report of the solve that hit it
# and in no concurrent solve's (chaos.rs,
# faults_land_only_in_the_faulted_solves_own_report).
cargo test -q -p mcr-core --features obs,chaos

echo "=== obs clippy (-D warnings, obs configuration) ==="
cargo clippy -q -p mcr-core -p mcr-cli -p mcr-obs --features mcr-core/obs \
    --all-targets -- -D warnings

echo "=== obs-off assertion: mcr-obs absent from the default build ==="
# Same link-level contract as chaos: without the feature, mcr-obs must
# not appear in mcr-core's dependency graph at all. (No crate links
# mcr-obs unconditionally: the JSON writer it uses lives in mcr-graph.)
if cargo tree -p mcr-core -e normal | grep -q "mcr-obs"; then
    echo "FAIL: mcr-obs is linked into the default (obs-off) build"
    cargo tree -p mcr-core -e normal | grep "mcr-obs"
    exit 1
fi
if ! cargo tree -p mcr-core -e normal --features obs | grep -q "mcr-obs"; then
    echo "FAIL: --features obs did not pull in mcr-obs (tree check is vacuous)"
    exit 1
fi

echo "=== obs CLI smoke: flags error cleanly on the default build ==="
# The release binary above is obs-off; the observability flags must
# fail with exit 1 and an actionable rebuild hint, not be ignored.
printf 'p mcr 2 2\na 1 2 1\na 2 1 3\n' > /tmp/mcr_ci_obs.dimacs
status=0
"$MCR" solve /tmp/mcr_ci_obs.dimacs --summary >/dev/null 2>/tmp/mcr_ci_stderr \
    || status=$?
if [ "$status" -ne 1 ]; then
    echo "FAIL: --summary on an obs-off build exited $status, expected 1"
    exit 1
fi
grep -q "features obs" /tmp/mcr_ci_stderr || {
    echo "FAIL: obs-off error does not tell the user how to rebuild:"
    cat /tmp/mcr_ci_stderr
    exit 1
}
# And the obs-on binary must honor them end to end.
cargo build -q -p mcr-cli --release --features obs
target/release/mcr solve /tmp/mcr_ci_obs.dimacs \
    --trace-out /tmp/mcr_ci_trace.jsonl --metrics-out /tmp/mcr_ci_metrics.jsonl \
    --summary > /tmp/mcr_ci_stdout
grep -q '"schema":"mcr-trace v1"' /tmp/mcr_ci_trace.jsonl
grep -q '"schema":"mcr-metrics v1"' /tmp/mcr_ci_metrics.jsonl
grep -q "observability summary" /tmp/mcr_ci_stdout
rm -f /tmp/mcr_ci_obs.dimacs /tmp/mcr_ci_trace.jsonl /tmp/mcr_ci_metrics.jsonl \
    /tmp/mcr_ci_stdout /tmp/mcr_ci_stderr
# Rebuild the default binary so later stages see the obs-off artifact.
cargo build -q -p mcr-cli --release

echo "=== fuzz smoke (bounded deterministic run) ==="
# Offline stand-in for the cargo-fuzz targets (fuzz/ needs a registry):
# replays the bad-input corpus, then 10000 LCG-mutated derivatives,
# through the same mcr-fuzz entry points the libfuzzer targets call.
cargo run -q -p mcr-fuzz --bin fuzz-smoke --release -- -runs=10000

echo "=== serve drill: mcrd kill -9 crash recovery + golden replay ==="
# The daemon's durability contract, driven with a real SIGKILL: a
# zero-worker mcrd admits (and fsyncs) a deterministic 6-request batch
# without solving any of it, dies by kill -9 mid-queue, and a fresh
# mcrd over the same journal directory must finish every admitted
# request — the generator's tail makes the recovered statuses exact
# (4 ok, 1 cancelled, 1 budget-exhausted). The restarted daemon then
# serves the golden request log live, byte-identical to what
# `mcr gen requests` emits, twice (the second replay answered the same,
# its ok lines from the answer store), and exits 0 on a client-driven
# shutdown with the recovery and the store hits visible in its final
# metrics dump.
MCRD=target/release/mcrd
SERVE_TMP=/tmp/mcr_ci_serve
rm -rf "$SERVE_TMP"
mkdir -p "$SERVE_TMP/journal"
"$MCR" gen requests 6 --seed 5 > "$SERVE_TMP/batch.jsonl"
"$MCRD" --listen 127.0.0.1:0 --workers 0 --journal-dir "$SERVE_TMP/journal" \
    > "$SERVE_TMP/mcrd_a.out" &
MCRD_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^mcrd listening on //p' "$SERVE_TMP/mcrd_a.out")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "FAIL: mcrd (pre-crash) never printed its listen address"
    exit 1
fi
"$MCR" client --addr "$ADDR" --replay "$SERVE_TMP/batch.jsonl" --no-wait
accepts=0
for _ in $(seq 1 100); do
    accepts=$(grep -c '"kind":"accept"' "$SERVE_TMP/journal/journal.jsonl" \
        2>/dev/null || true)
    [ "$accepts" = 6 ] && break
    sleep 0.1
done
kill -9 "$MCRD_PID"
wait "$MCRD_PID" 2>/dev/null || true
dones=$(grep -c '"kind":"done"' "$SERVE_TMP/journal/journal.jsonl" || true)
if [ "$accepts" != 6 ] || [ "$dones" != 0 ]; then
    echo "FAIL: expected 6 fsynced accepts and 0 dones at the crash point," \
         "got accepts=$accepts dones=$dones"
    exit 1
fi
"$MCRD" --listen 127.0.0.1:0 --workers 2 --journal-dir "$SERVE_TMP/journal" \
    > "$SERVE_TMP/mcrd_b.out" &
MCRD_PID=$!
recovered=0
for _ in $(seq 1 300); do
    recovered=$(grep -c '"kind":"recovered"' \
        "$SERVE_TMP/journal/journal.jsonl" || true)
    [ "$recovered" = 6 ] && break
    sleep 0.1
done
if [ "$recovered" != 6 ]; then
    echo "FAIL: restarted mcrd recovered $recovered/6 journaled requests"
    exit 1
fi
grep '"kind":"recovered"' "$SERVE_TMP/journal/journal.jsonl" \
    > "$SERVE_TMP/recovered.jsonl"
for want in '"status":"ok" 4' '"status":"cancelled" 1' \
            '"status":"budget-exhausted" 1'; do
    pat=${want% *}
    n=${want#* }
    got=$(grep -c "$pat" "$SERVE_TMP/recovered.jsonl" || true)
    if [ "$got" != "$n" ]; then
        echo "FAIL: expected $n recovered lines with $pat, got $got:"
        cat "$SERVE_TMP/recovered.jsonl"
        exit 1
    fi
done
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^mcrd listening on //p' "$SERVE_TMP/mcrd_b.out")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
# The golden request log is exactly what the generator emits...
"$MCR" gen requests 12 --seed 42 \
    | diff - crates/serve/tests/data/golden_requests.jsonl
# ...and the restarted daemon serves it live with the pinned statuses.
"$MCR" client --addr "$ADDR" \
    --replay crates/serve/tests/data/golden_requests.jsonl \
    > "$SERVE_TMP/resp.jsonl" 2> "$SERVE_TMP/client.err"
grep -q "sent=12 received=12" "$SERVE_TMP/client.err"
oks=$(grep -c '"status":"ok"' "$SERVE_TMP/resp.jsonl" || true)
if [ "$oks" != 10 ]; then
    echo "FAIL: golden replay produced $oks ok responses, expected 10"
    cat "$SERVE_TMP/client.err"
    exit 1
fi
# A second replay against the same daemon asks every question again:
# the ok lines come from the per-graph answer store, the failed and
# cancelled lines are solved again, and every response must equal the
# first replay's.
"$MCR" client --addr "$ADDR" \
    --replay crates/serve/tests/data/golden_requests.jsonl \
    > "$SERVE_TMP/resp2.jsonl" 2> "$SERVE_TMP/client2.err"
sort "$SERVE_TMP/resp.jsonl" > "$SERVE_TMP/resp.sorted"
sort "$SERVE_TMP/resp2.jsonl" > "$SERVE_TMP/resp2.sorted"
if ! diff "$SERVE_TMP/resp.sorted" "$SERVE_TMP/resp2.sorted"; then
    echo "FAIL: the second golden replay answered differently"
    exit 1
fi
"$MCR" client --addr "$ADDR" --op shutdown > /dev/null
wait "$MCRD_PID" || {
    echo "FAIL: mcrd exited non-zero after a clean shutdown"
    exit 1
}
grep '"name":"serve.journal.recovered"' "$SERVE_TMP/mcrd_b.out" \
    | grep -q '"value":6' || {
    echo "FAIL: final metrics dump does not report the 6 recoveries:"
    tail -20 "$SERVE_TMP/mcrd_b.out"
    exit 1
}
answer_hits=$(grep '"name":"serve.answer.hit"' "$SERVE_TMP/mcrd_b.out" \
    | sed 's/.*"value":\([0-9]*\).*/\1/')
if [ "${answer_hits:-0}" -le 0 ]; then
    echo "FAIL: the second replay was not answered from the answer store:"
    tail -25 "$SERVE_TMP/mcrd_b.out"
    exit 1
fi
rm -rf "$SERVE_TMP"

echo "=== fleet drill: two shards, kill -9 one mid-replay ==="
# The fleet resilience contract, driven with a real SIGKILL: a
# two-shard ring replays the golden 12-request log while one shard is
# killed mid-flight. The victim runs zero workers, so it admits and
# journals but can never solve — any `done` line in its journal would
# be a duplicate solve. The client must settle every request exactly
# once with the generator's pinned statuses (10 ok, 1 cancelled,
# 1 budget-exhausted), failing over to the survivor with
# `"dedup":true` re-sends; the survivor's journal ends with exactly
# one `done` per id.
FLEET_TMP=/tmp/mcr_ci_fleet
rm -rf "$FLEET_TMP"
mkdir -p "$FLEET_TMP/victim" "$FLEET_TMP/survivor"
"$MCRD" --listen 127.0.0.1:0 --workers 0 --journal-dir "$FLEET_TMP/victim" \
    > "$FLEET_TMP/victim.out" &
VICTIM_PID=$!
"$MCRD" --listen 127.0.0.1:0 --workers 2 --journal-dir "$FLEET_TMP/survivor" \
    > "$FLEET_TMP/survivor.out" &
SURVIVOR_PID=$!
VIC=""
SURV=""
for _ in $(seq 1 100); do
    VIC=$(sed -n 's/^mcrd listening on //p' "$FLEET_TMP/victim.out")
    SURV=$(sed -n 's/^mcrd listening on //p' "$FLEET_TMP/survivor.out")
    [ -n "$VIC" ] && [ -n "$SURV" ] && break
    sleep 0.1
done
if [ -z "$VIC" ] || [ -z "$SURV" ]; then
    echo "FAIL: a fleet shard never printed its listen address"
    exit 1
fi
# SIGKILL the victim one second into the replay — while the client is
# mid-conversation with it (victim-routed reads block until the 500 ms
# timeout, so the kill lands inside the replay window).
( sleep 1; kill -9 "$VICTIM_PID" 2>/dev/null ) &
KILLER_PID=$!
"$MCR" client --fleet "$VIC,$SURV" --timeout-ms 500 \
    --replay crates/serve/tests/data/golden_requests.jsonl \
    > "$FLEET_TMP/resp.jsonl" 2> "$FLEET_TMP/client.err"
wait "$KILLER_PID"
wait "$VICTIM_PID" 2>/dev/null || true
grep -q "settled=12" "$FLEET_TMP/client.err" || {
    echo "FAIL: fleet client did not settle all 12 requests:"
    cat "$FLEET_TMP/client.err"
    exit 1
}
for want in '"status":"ok" 10' '"status":"cancelled" 1' \
            '"status":"budget-exhausted" 1'; do
    pat=${want% *}
    n=${want#* }
    got=$(grep -c "$pat" "$FLEET_TMP/resp.jsonl" || true)
    if [ "$got" != "$n" ]; then
        echo "FAIL: fleet replay expected $n responses with $pat, got $got:"
        cat "$FLEET_TMP/client.err"
        exit 1
    fi
done
# Zero duplicate solves: the victim journal must hold no settled
# outcome, and the survivor exactly one done per id.
victim_dones=$(grep -c '"kind":"done"' "$FLEET_TMP/victim/journal.jsonl" \
    2>/dev/null || true)
if [ "$victim_dones" != 0 ]; then
    echo "FAIL: the zero-worker victim journaled $victim_dones solves"
    exit 1
fi
unique_dones=$(grep '"kind":"done"' "$FLEET_TMP/survivor/journal.jsonl" \
    | sed -n 's/.*"id":\([0-9]*\).*/\1/p' | sort -n | uniq | wc -l | tr -d ' ')
total_dones=$(grep -c '"kind":"done"' "$FLEET_TMP/survivor/journal.jsonl" || true)
if [ "$unique_dones" != 12 ] || [ "$total_dones" != 12 ]; then
    echo "FAIL: survivor journal has $total_dones dones over $unique_dones" \
         "unique ids, expected exactly one done per id (12/12)"
    exit 1
fi
"$MCR" client --addr "$SURV" --op shutdown > /dev/null
wait "$SURVIVOR_PID" || {
    echo "FAIL: surviving shard exited non-zero after a clean shutdown"
    exit 1
}
rm -rf "$FLEET_TMP"

# --- Optional deep-checking walls -------------------------------------
# These three tools need components the offline build box may not have
# (cargo-deny binary, nightly miri, nightly rust-src). Each stage runs
# when its tool is available and prints an explicit skip otherwise; the
# GitHub workflow installs all three, so CI always runs them.

echo "=== cargo-deny (supply-chain policy, if installed) ==="
if command -v cargo-deny >/dev/null 2>&1; then
    cargo deny check
else
    echo "skipped: cargo-deny not installed (the CI deny job runs it)"
fi

echo "=== Miri (curated miri_smoke tier, if installed) ==="
if cargo +nightly miri --version >/dev/null 2>&1; then
    cargo +nightly miri test -p mcr-graph --test miri_smoke
    cargo +nightly miri test -p mcr-core --test miri_smoke
else
    echo "skipped: nightly miri not installed (the CI miri job runs it)"
fi

echo "=== ThreadSanitizer (parallel driver, if nightly rust-src) ==="
host=$(rustc -vV | sed -n 's/^host: //p')
if rustup component list --toolchain nightly --installed 2>/dev/null \
        | grep -q rust-src; then
    RUSTFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -Zbuild-std --target "$host" \
        -p mcr-core --test parallel_determinism --test miri_smoke
else
    echo "skipped: nightly rust-src not installed (the CI tsan job runs it)"
fi

echo "CI gate passed."
