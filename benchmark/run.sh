#!/usr/bin/env bash
# Builds the benchmark and runs `bbmark` with the given arguments:
#
#   bash benchmark/run.sh run --workload rate_churn --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh run --seed 1            # all four workloads
#   bash benchmark/run.sh compare A.json B.json
#
# Not `cargo run`: that builds only the binary it runs, and `bbmark`
# spawns the daemon under test from the `bbmark-host` binary beside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/bbmark" "$@"
