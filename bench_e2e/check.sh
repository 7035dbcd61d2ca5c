#!/usr/bin/env bash
# Format, lint and test the benchmark package. Root CI does not cover it:
# it is a package of its own, outside the root workspace.
#
#   bench_e2e/check.sh
#
# Build products go where the benchmark's own go: ../target, or
# $CARGO_TARGET_DIR when that is set.
set -euo pipefail
cd "$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-../target}"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
