#!/usr/bin/env bash
# Build the benchmark from source and run it. Named in BENCHMARK.json:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload in one process; the result object is the last line
#   bash benchmark/run.sh [all] [--runs R] [--seed N] [--quick]
#       every workload in a process of its own, untraced then traced,
#       merged into <target>/results.json
#   bash benchmark/run.sh compare A.json B.json
#
# Build output goes to $CARGO_TARGET_DIR when set, else target/benchmark;
# nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --locked --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/pipeline_profile" --out-dir "$target" "$@"
