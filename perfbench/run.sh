#!/usr/bin/env bash
# Builds the program under test (`noc-cli`, release) and the `perfbench`
# binary from source, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload large-mesh --seed 1 --seconds 25 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build`).
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/cli || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the root of the repository (crates/cli not found)" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p noc-cli
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" --cli "$CARGO_TARGET_DIR/release/noc-cli" "$@"
