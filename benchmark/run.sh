#!/usr/bin/env bash
# The one command: build the benchmark offline, then hand every
# argument to it.
#
#   benchmark/run.sh                      untraced suite, traced suite, metric tables
#   benchmark/run.sh --smoke              the same with 2 passes per workload (CI, < 30 s)
#   benchmark/run.sh aa 5                 A/A check: two interleaved sets of 5 suites
#   benchmark/run.sh --workload sched_fine --seed 1 --seconds 15 --trace 0
#
# Exits non-zero when any pass fails its oracle.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# A developer checkout reuses the repo's own target/ so nothing is kept
# twice; an acceptance driver names its own directory.
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --locked --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/benchmark" "$@"
