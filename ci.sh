#!/usr/bin/env bash
# Tier-1 gate for the workspace: build, test, clippy, six short runs of
# the repository benchmark, the fixed-seed nemesis, storage and
# observability table runs, the two seeded tables compared with
# results/, two live-cluster gates (`adored hunt
# --gate`, `adored bench --open-loop`) and one live run that must fail
# (`adored hunt --ablate r1`). One protocol engine
# (`adore_kv::det`) runs under all of them: N at a time on the
# simulator's virtual clock for the tables, one per process for the live
# gates. Fully offline — all dependencies are vendored in-tree under
# vendor/.
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

# The replication path, live and briefly: a 3-node cluster takes puts
# from an empty log for 3 s, from one client (`write_serial`, the
# latency-bound path) and from two (`write_pair`: one peer link carries
# two puts' frames back to back, so a frame can find the link's
# unsent tail still pending); then on a
# 2000-entry log (`write_long_log`: suffix frames and
# heartbeats), then the same with the leader killed and restarted
# (`failover`: a restart with no `source`, a whole-log first frame, a
# one-entry election), then a 5-node cluster walked 5→4→3→4→5 under
# puts (`reconfig_walk`: the one live path where config entries are
# appended, committed and superseded under load, which is what each
# node's cached config position must follow). Each run must report
# correct output — every acked
# key read back, the merged journals certified by the auditor — and no
# failed operation. `timeout` also catches an audit that goes quadratic
# in the log again. `certify` runs no cluster: it is the only step that
# checks the checker's deep pinned counts (27,398/34,380 for `explore`
# at depth 7, 47,951/104,176 for `explore_net` at depth 9); an
# exploration off its pin is a failed operation.
echo "== bench smoke (write_serial, write_pair, write_long_log, failover, reconfig_walk, certify) =="
for workload in write_serial write_pair write_long_log failover reconfig_walk certify; do
    if ! result=$(timeout 240 benchmark/run.sh --workload "$workload" --seconds 3 | tail -n 1); then
        echo "ci: $workload: the run failed: $result" >&2
        exit 1
    fi
    case "$result" in
        '{"correct":true,'*'"failed":0,'*) ;;
        *)
            echo "ci: $workload: $result" >&2
            exit 1
            ;;
    esac
done

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
#       sends that shed    the engine loop's `Link` type: its stream is
#                            private, `send` returns a #[must_use] `Sent`
#                            (taken, full, broken), let_underscore_must_use
#                            denied on the loop and its `Peers`
#   L15 emission order     debug_assert! in adore_kv::det's Engine::finish
echo "== cargo clippy -- -D warnings (all of L1-L12's static discipline) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

# The nemesis campaigns run the engines on the simulator's virtual clock.
# They are seeded (scripted ablations plus random schedules with seeds
# 0..10 fixed in the harness), so the run is deterministic: it
# self-asserts 0 sound-guard violations and one minimized replayable
# counterexample per guard ablation that also diverges in the untimed
# model (`NetHarness`). Its last section sweeps 2,000 fixed-seed
# sound-guard campaigns (seeds 0-499 x 3|5 members x 8|16 steps, ~5 s):
# 0 violations, every client history read back and linearizable, and no
# more campaigns left leaderless after quiesce than its pin.
echo "== nemesis smoke run (fixed seeds) =="
cargo run -p adore-bench --bin nemesis_table --release --offline >/dev/null

# Same deal for the storage nemesis: each simulated node's engine
# persists to its own simulated disk, synced before its acks unless the
# policy is ablated. Seeded random campaigns mix disk faults with
# network/process faults under the strict policy and the storage
# certification checker (self-asserts 0 violations), plus one minimized
# replayable counterexample per storage ablation, defused under strict.
# A small seed count keeps the gate fast; the full 100-seed table is E10.
echo "== storage nemesis smoke run (fixed seeds) =="
STORAGE_TABLE_SEEDS=10 \
    cargo run -p adore-bench --bin storage_table --release --offline >/dev/null

# The seeded tables of E3 (`refinement_table`) and E5 (`bug_table`)
# print the same rows on every run; only their time column is wall
# clock. A committed table that differs from what its bin prints, time
# cells and table rules aside, fails here, so results/ cannot drift
# from the code unnoticed.
echo "== seeded tables match results/ (refinement_table, bug_table) =="
no_time() {
    sed -E -e 's/\| *[0-9.]+m?s *\|$/|/' -e 's/\| *time *\|$/|/' -e 's/\|-+\|$/|/'
}
for table in refinement_table bug_table; do
    if ! diff <(no_time <"results/$table.txt") \
        <(cargo run -q -p adore-bench --bin "$table" --release --offline | no_time); then
        echo "ci: results/$table.txt differs from what $table prints" >&2
        exit 1
    fi
done

# Observability gate: run the E11 harness (self-asserts that tracing is
# invisible to the simulation, that every ablation's audit reproduces
# its live verdict, and that the streaming OnlineAuditor reproduces
# every batch verdict on every journal it writes), then re-audit the
# written journals with the standalone auditor. The simulated journals
# are the engines' own (`StateDelta`, `LeaderElected`, ...) plus the
# simulator's network, `WalSync` and crash events. The auditor
# reconstructs protocol state purely from the trace; a non-zero exit
# means the audit's independent verdict no longer matches the live
# run's — i.e. instrumentation and protocol have drifted apart. The two
# `netmesis-gate*` journals are the live gate's schedules run on the
# simulator; the netmesis gate below audits the same schedules' journals
# from a real cluster. CI also asserts the table was actually
# regenerated so results/obs_table.txt cannot go stale.
echo "== observability gate (trace-certified audit, batch == online) =="
rm -f results/obs_table.txt
cargo run -p adore-bench --bin obs_table --release --offline >/dev/null
test -s results/obs_table.txt || {
    echo "ci: results/obs_table.txt was not regenerated" >&2
    exit 1
}
for journal in r3-sound no-R3-ablated netmesis-gate netmesis-gate-kill; do
    cargo run -q -p adore-obs --release --offline -- --audit "target/obs/$journal.jsonl" >/dev/null
done

# Live-cluster gate: two fixed schedules against a real 3-process
# cluster on localhost TCP, every peer link behind a fault proxy, the
# availability monitor journaling every acked write. `netmesis-gate`
# drops a partition onto a live reconfiguration with a corruption burst
# and a connection reset. `netmesis-gate-kill` kill -9s the first leader
# mid-traffic and restarts it into its data dir. Each run reads every
# written key once more, self-audits its merged journals (zero
# acked-write loss, zero duplicate applies, committed-prefix agreement,
# a linearizable client history), holds the
# online verdict (the nodes export their journal files, every boot's)
# equal to the batch one on both schedules, and the standalone auditor
# re-certifies the journals from scratch. `timeout` bounds
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

# The live negative control: the gate above only shows that safe
# schedules stay safe. Here every node boots with R1+ ablated and the
# canonical R1+ schedule is enacted through the same proxies; `hunt`
# exits non-zero unless the live run violates *and* the simulator twin
# reproduces and minimizes the same schedule.
echo "== netmesis negative control (R1+ ablated: must violate) =="
rm -rf target/netmesis-ablate
timeout 120 cargo run -q -p adored --release --offline -- \
    hunt --ablate r1 --dir target/netmesis-ablate

# Live-plane gate: the open-loop load generator drives a real 3-node
# cluster at three fixed offered rates while every node streams its
# trace to the in-process online auditor over TCP. The bench exits
# non-zero unless the online audit reports CERTIFIED (the client
# history, final reads included, linearizable) and the batch auditor
# certifies the journal files with the same verdict. Small rates
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
