#!/usr/bin/env bash
# Builds the benchmark and `crserve` from this checkout, then runs one
# benchmark measurement. Run from the repository root:
#
#   bash perfbench/run.sh --workload plan_mixed --seed 1 --seconds 16 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build). Cargo's
# own messages go to stderr, so stdout carries only the benchmark's
# report, ending in its one-line JSON result.
set -euo pipefail
root="$(pwd)"
if [[ ! -f "$root/perfbench/Cargo.toml" || ! -f "$root/Cargo.toml" ]]; then
    echo "error: run from the repository root (perfbench/ and Cargo.toml needed)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in
    /*) target="$CARGO_TARGET_DIR" ;;
    *) target="$root/$CARGO_TARGET_DIR" ;;
esac
cargo build --release --offline --quiet -p clockroute-service --bin crserve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --crserve "$target/release/crserve" "$@"
