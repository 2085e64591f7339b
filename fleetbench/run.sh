#!/usr/bin/env bash
# Build the fleet binary and the benchmark driver, then run the driver.
# Run from the repository root; every argument is passed to the driver.
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# `gtree` lives in the gt-cli package; a plain root build does not make it.
cargo build --release --offline --quiet -p gt-cli >&2
cargo build --release --offline --quiet --manifest-path fleetbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/fleetbench" --gtree "$CARGO_TARGET_DIR/release/gtree" "$@"
