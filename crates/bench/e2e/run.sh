#!/usr/bin/env bash
# Builds the `cfs` binary and this benchmark from source, then runs the
# benchmark. Run from the repository root:
#
#   bash crates/bench/e2e/run.sh --workload batch_paper --seed 7 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p cfs --bin cfs 1>&2
cargo build --release --offline --quiet --manifest-path crates/bench/e2e/Cargo.toml 1>&2

if [ -d .git ]; then
    CFS_BENCH_GIT_REV="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
else
    CFS_BENCH_GIT_REV=unknown
fi
CFS_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export CFS_BENCH_GIT_REV CFS_BENCH_RUSTC

exec "$CARGO_TARGET_DIR/release/cfs-e2e-bench" --cfs "$CARGO_TARGET_DIR/release/cfs" "$@"
