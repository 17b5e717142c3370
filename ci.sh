#!/usr/bin/env bash
# Tier-1 gate for the workspace: build, test, lint, and a fixed-seed
# nemesis smoke run. Fully offline — all dependencies are vendored
# in-tree under vendor/.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release =="
cargo build --release --workspace --offline

echo "== cargo test -q =="
cargo test -q --workspace --offline

# The storage crate's recovery semantics are the foundation the nemesis
# disk faults stand on; run its suite by name so a storage regression is
# reported as such, not as a downstream nemesis failure.
echo "== cargo test -p adore-storage =="
cargo test -q -p adore-storage --offline

# Source-level protocol discipline: determinism (L1), panic-free
# recovery (L2), mutation/construction encapsulation (L3), certificate
# hygiene (L4), no stray console output in protocol crates (L5), the
# flow-sensitive rules — guard-before-mutation (L6), nondeterminism
# taint (L7), discarded fallible results in recovery scopes (L8) — and
# the concurrency-discipline rules L9-L12 (lock order, no-panic lock
# acquisition, no guard across blocking calls, bounded channels), and
# the spec-conformance rules L13-L15 (differential drift against the
# checker, semantic guard sufficiency, durable-before-outbound order).
# Exits non-zero on any unsuppressed finding (-D semantics); every
# suppression pragma must carry a written reason. Config: adore-lint.toml.
# One invocation covers every rule; `--only RULES` is for bisecting a
# failure by hand, not a second gate.
echo "== adore-lint =="
cargo run -q -p adore-lint --offline

# Flow-discipline table: per-rule L6-L8 and L9-L12 findings plus
# isolated per-rule analysis timing. The bench self-asserts 0
# unsuppressed findings (same -D semantics as the scan above), and CI
# asserts the table was actually regenerated so results/flow_table.txt
# cannot go stale.
echo "== flow-lint table (L6-L12) =="
rm -f results/flow_table.txt
cargo run -p adore-bench --bin flow_table --release --offline >/dev/null
test -s results/flow_table.txt || {
    echo "ci: results/flow_table.txt was not regenerated" >&2
    exit 1
}

# The committed IR dump is regenerated and diffed, so results/gcir.json
# always shows reviewers the exact model the run above certified (L13
# differential conformance against the checker, L14, L15): the handlers
# of raft/src/net.rs, which are the ones the daemon's engine executes.
echo "== adore-lint --dump-ir (results/gcir.json is current) =="
cargo run -q -p adore-lint --offline -- --dump-ir > target/gcir.regen.json
diff -u results/gcir.json target/gcir.regen.json || {
    echo "ci: results/gcir.json is stale — regenerate with adore-lint --dump-ir" >&2
    exit 1
}

echo "== cargo clippy -- -D warnings =="
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

# Networked-runtime gate: a real 3-process cluster on localhost TCP.
# The smoke driver elects a leader, acknowledges writes, kill -9s the
# leader mid-stream, verifies failover with zero acked-write loss and
# zero duplicate session applies, restarts the corpse into its data
# dir, and self-audits the merged journals. The standalone auditor then
# re-certifies the same journals from scratch. `timeout` bounds the
# gate against a hung cluster (the nodes also self-limit their runtime).
echo "== adored smoke (3 nodes, kill -9 leader, audited) =="
rm -rf target/adored-smoke
timeout 150 cargo run -q -p adored --release --offline -- \
    smoke --nodes 3 --seed 7 --dir target/adored-smoke
cargo run -q -p adore-obs --release --offline -- --audit target/adored-smoke/merged.jsonl >/dev/null

# Netmesis gate: the fault-injecting wire layer runs one fixed schedule
# — a partition dropped onto a live reconfiguration — against a real
# 3-node cluster behind per-link proxies, with the availability monitor
# journaling every acked write. The hunt self-audits (zero acked-write
# loss, zero duplicate applies) and the standalone auditor re-certifies
# the merged journals. `timeout` bounds the gate; the full 25-seed
# campaign with corruption/gray-pause/reset faults is E14.
echo "== netmesis gate (partition during reconfig, audited) =="
rm -rf target/netmesis-gate
timeout 90 cargo run -q -p adored --release --offline -- \
    hunt --gate --dir target/netmesis-gate
cargo run -q -p adore-obs --release --offline -- --audit target/netmesis-gate/netmesis-gate/merged.jsonl >/dev/null

# Live-plane gate: the open-loop load generator drives a real 3-node
# cluster at three fixed offered rates while every node streams its
# trace to the in-process online auditor over TCP. The bench exits
# non-zero unless the online audit reports CERTIFIED (and, when zero
# frames were shed, unless the batch auditor agrees with the online
# verdict event-for-event). Small rates and short phases keep the gate
# bounded; the full campaign is E15.
echo "== live-plane gate (open-loop bench, online-audited) =="
rm -rf target/bench-live
timeout 120 cargo run -q -p adored --release --offline -- \
    bench --open-loop 40,80,120 --secs-per-rate 2 --seed 11 \
    --dir target/bench-live --out results/BENCH_live.json
test -s results/BENCH_live.json || {
    echo "ci: results/BENCH_live.json was not regenerated" >&2
    exit 1
}

echo "ci: all green"
