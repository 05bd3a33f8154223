#!/usr/bin/env bash
# Runs skynet-core's unit tests, then its rustdoc with warnings denied,
# where there is no crate registry.
#
# crates/core's own manifest cannot build offline (its dev-dependencies
# include proptest), so this writes a throw-away manifest over
# crates/core/src into a temp dir *outside* the repo — the dependencies of
# perf/shim/skynet-core plus the two dev-dependency path crates the unit
# tests use — and builds it against the stand-ins in perf/offline.
# Tests compiled this way must be plain #[test]s (no proptest).
#
# usage: scripts/core_unit_tests.sh [cargo-test args, e.g. a test filter]
# env:   CORE_TEST_DIR       where the manifest goes (default: mktemp -d, removed on exit)
#        CARGO_TARGET_DIR    where the build goes (default: <CORE_TEST_DIR>/target)
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ -n "${CORE_TEST_DIR:-}" ]; then
    dir="$CORE_TEST_DIR"
    mkdir -p "$dir"
else
    dir="$(mktemp -d)"
    trap 'rm -rf "$dir"' EXIT
fi

cat > "$dir/Cargo.toml" <<EOF
[package]
name = "skynet-core"
version = "0.1.0"
edition = "2021"
publish = false

[lib]
path = "$repo/crates/core/src/lib.rs"
doctest = false

[dependencies]
skynet-model = { path = "$repo/crates/model" }
skynet-topology = { path = "$repo/crates/topology" }
skynet-ftree = { path = "$repo/crates/ftree" }
serde = { version = "1", features = ["derive"] }
serde_json = { version = "1", features = ["float_roundtrip"] }
crossbeam = "0.8"
parking_lot = "0.12"
rand = "0.8"
rand_chacha = "0.3"

[dev-dependencies]
skynet-failure = { path = "$repo/crates/failure" }
skynet-telemetry = { path = "$repo/crates/telemetry" }

[workspace]
EOF

cd "$dir"
# The config's [patch] paths resolve against perf/ (the parent of the
# config file's directory), so the repo can be anywhere.
cargo test --release --config "$repo/perf/offline/config.toml" "$@"
# Broken and private intra-doc links are errors (the `docs` CI job's rule).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --config "$repo/perf/offline/config.toml"
