#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it with the arguments given.
#
#   benchmark/run.sh                          the suite: every workload, untraced and traced
#   benchmark/run.sh --repeat 10              ... plus a run-to-run spread table per metric
#   benchmark/run.sh --workload cube3 --seed 3 --seconds 9 --trace 0
#                                             one run, as BENCHMARK.json's command makes it
#
# The build goes to $CARGO_TARGET_DIR if set (relative paths are taken from the
# directory this was started in), else to benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
# Cargo's progress goes to stderr; stdout stays the program's.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/mttkrp-benchmark" "$@"
