#!/usr/bin/env bash
# Tier-1 where there is no crate registry: the whole root workspace — every
# crate's unit and doc tests, every tests/*.rs, the examples and both
# binaries — built and tested against the stand-ins in perf/offline, then
# rustdoc and clippy with warnings denied.
#
# The stand-ins come in through a --config overlay, never a checked-in
# [patch]; its paths resolve against perf/. CARGO_TARGET_DIR moves the build
# (default: target/ at the repo root).
#
# Cargo prints "warning: patch `crossbeam v0.8.4 …` was not used in the crate
# graph" on these calls: the overlay still stands crossbeam in for perf/
# (through perf/shim/skynet-core/Cargo.toml), and nothing in this workspace
# depends on it any more. Resolution exits 0; the warning goes when the
# stand-ins are hoisted out of perf/ (ROADMAP item 1).
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
offline=(--config perf/offline/config.toml)

cargo build --release --workspace "${offline[@]}"
cargo test -q --workspace "${offline[@]}"
# Broken and private intra-doc links are errors.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace "${offline[@]}"
cargo clippy --workspace --all-targets "${offline[@]}" -- -D warnings
