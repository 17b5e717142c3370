#!/usr/bin/env bash
# Tier-1 gate for the workspace: build, test, clippy, the fixed-seed
# nemesis, storage and observability table runs, and two live-cluster
# gates (`adored hunt --gate`, `adored bench --open-loop`). Fully
# offline — all dependencies are vendored in-tree under vendor/.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release =="
cargo build --release --workspace --offline

echo "== cargo test -q =="
cargo test -q --workspace --offline

# The repository benchmark is a workspace of its own, so `--workspace`
# above does not reach its unit tests (order statistics, the compare
# verdicts, /proc parsing, the catalog matching BENCHMARK.json, the
# checker discriminating on fig4).
echo "== benchmark unit tests =="
cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Source-level protocol discipline is rustc's and clippy's alone:
# clippy.toml names the banned items, a `deny` attribute at each covered
# crate, module, function or integration-test root sets the perimeter
# (DESIGN.md §8); the workspace's own linter is retired. Every rule id
# it issued and the backend that holds it now:
#   L1  determinism        clippy::disallowed_types
#   L2  panic-free scopes  clippy::unwrap_used/expect_used/panic/
#                            unreachable/todo/unimplemented/
#                            indexing_slicing/disallowed_macros, denied
#                            on each recovery function; a waiver is an
#                            #[expect(.., reason)], stale ones warn
#   L3  owner-only state   rustc: field privacy and #[non_exhaustive]
#                            (the build above is already its gate)
#   L4  consumed verdicts  rustc unused_must_use +
#   L8  recovery results     clippy::let_underscore_must_use
#   L5  no console output  clippy::print_stdout/print_stderr/dbg_macro
#   L6  guard-before-mutation, L13/L14 spec drift and guard sufficiency:
#                          the checker's pinned counts, refine.rs and
#                          the unit suites in the test step above
#   L7  taint              subsumed by L1 (same sources, same perimeter)
#   L9  lock order         nothing to check: the runtime shares no lock.
#   L10 no lock().unwrap()   Kept so by clippy::disallowed_methods on
#   L11 no guard across      Mutex/RwLock/Condvar::new and lock/try_lock/
#       a blocking call      read/write (adored, nemesis, checker)
#   L12 no channel()       clippy::disallowed_methods
#       sends that shed    the engine loop's outbox type: try_send only,
#                            #[must_use], let_underscore_must_use denied
#   L15 emission order     debug_assert! in adored's Engine::finish
echo "== cargo clippy -- -D warnings (all of L1-L12's static discipline) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

# The nemesis campaigns are seeded (scripted ablations plus random
# schedules with seeds 0..10 fixed in the harness), so the run is
# deterministic: it self-asserts 0 sound-guard violations and one
# minimized replayable counterexample per guard ablation.
echo "== nemesis smoke run (fixed seeds) =="
cargo run -p adore-bench --bin nemesis_table --release --offline >/dev/null

# Same deal for the storage nemesis: seeded random campaigns mixing disk
# faults with network/process faults under the strict policy and the
# storage certification checker (self-asserts 0 violations), plus one
# minimized replayable counterexample per storage ablation. A small seed
# count keeps the gate fast; the full 100-seed table is E10.
echo "== storage nemesis smoke run (fixed seeds) =="
STORAGE_TABLE_SEEDS=10 \
    cargo run -p adore-bench --bin storage_table --release --offline >/dev/null

# Observability gate: run the E11 harness (self-asserts that tracing is
# invisible to the simulation, that every ablation's audit reproduces
# its live verdict, and that the streaming OnlineAuditor reproduces
# every batch verdict on every journal it writes), then re-audit the
# written journals with the standalone auditor. The auditor
# reconstructs protocol state purely from the trace; a non-zero exit
# means the audit's independent verdict no longer matches the live
# run's — i.e. instrumentation and protocol have drifted apart. CI also
# asserts the table was actually regenerated so results/obs_table.txt
# cannot go stale.
echo "== observability gate (trace-certified audit, batch == online) =="
rm -f results/obs_table.txt
cargo run -p adore-bench --bin obs_table --release --offline >/dev/null
test -s results/obs_table.txt || {
    echo "ci: results/obs_table.txt was not regenerated" >&2
    exit 1
}
cargo run -q -p adore-obs --release --offline -- --audit target/obs/r3-sound.jsonl >/dev/null
cargo run -q -p adore-obs --release --offline -- --audit target/obs/no-R3-ablated.jsonl >/dev/null

# Live-cluster gate: two fixed schedules against a real 3-process
# cluster on localhost TCP, every peer link behind a fault proxy, the
# availability monitor journaling every acked write. `netmesis-gate`
# drops a partition onto a live reconfiguration with a corruption burst
# and a connection reset; it kills nothing, so the online verdict must
# equal the batch one. `netmesis-gate-kill` kill -9s the first leader
# mid-traffic and restarts it into its data dir. Each run reads every
# acked key back, self-audits its merged journals (zero acked-write
# loss, zero duplicate applies, committed-prefix agreement), and the
# standalone auditor re-certifies them from scratch. `timeout` bounds
# the gate against a hung cluster (the nodes also self-limit their
# runtime); the 25-seed campaign with gray pauses, resets and a 5-node
# kill + 5→3→5 walk in every seed is E14.
echo "== netmesis gate (partition during reconfig; kill -9 leader; audited) =="
rm -rf target/netmesis-gate
timeout 150 cargo run -q -p adored --release --offline -- \
    hunt --gate --dir target/netmesis-gate
for schedule in netmesis-gate netmesis-gate-kill; do
    cargo run -q -p adore-obs --release --offline -- \
        --audit "target/netmesis-gate/$schedule/merged.jsonl" >/dev/null
done

# Live-plane gate: the open-loop load generator drives a real 3-node
# cluster at three fixed offered rates while every node streams its
# trace to the in-process online auditor over TCP. The bench exits
# non-zero unless the online audit reports CERTIFIED, every acked key
# reads back and the batch auditor certifies the journal files too
# (when zero frames were shed the two verdicts must agree). Small rates
# and short phases keep the gate bounded. Its report stays under
# target/: only E15's command rewrites the committed
# results/BENCH_live.json.
echo "== live-plane gate (open-loop bench, online-audited) =="
rm -rf target/bench-live
timeout 120 cargo run -q -p adored --release --offline -- \
    bench --open-loop 40,80,120 --secs-per-rate 2 --seed 11 \
    --dir target/bench-live --out target/bench-live/BENCH_live.json
test -s target/bench-live/BENCH_live.json || {
    echo "ci: target/bench-live/BENCH_live.json was not written" >&2
    exit 1
}

echo "ci: all green"
