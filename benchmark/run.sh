#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Every argument goes to
# the binary (see benchmark/README.md):
#
#   benchmark/run.sh                       all seven workloads, one result set
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh --compare A.json B.json
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-benchmark/target}"
# Build chatter goes to stderr: standard output carries only results.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml 1>&2
exec "$target/release/adore-perf" "$@"
