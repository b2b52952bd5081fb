#!/usr/bin/env bash
# Builds the copred server binaries and the benchmark from source, then
# runs one benchmark run. Run from the repository root:
#
#   bash layerbench/run.sh --workload serve-arm --seed 1 --seconds 10 --trace 0
#
# Build output goes to CARGO_TARGET_DIR (default .bench_build); results
# and spans are stored under .bench_out. The last line of standard
# output is the run's result as one JSON object.
set -euo pipefail

target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# The servers are the repository's own binaries, built from its workspace;
# the benchmark is a package of its own beside them.
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p copred-bench --bin copred_server -p copred-fleet --bin copred_fleet >&2
cargo build --release --offline --quiet --manifest-path layerbench/Cargo.toml >&2

exec "$target/release/copred-layerbench" "$@" \
    --server-bin "$target/release/copred_server" \
    --fleet-bin "$target/release/copred_fleet" \
    --out .bench_out
