#!/usr/bin/env bash
# Builds the benchmark in release mode (which builds the repository's crates
# from source through path dependencies) and runs it with the given
# arguments, e.g.
#   bash fedbench/run.sh --workload fedguard-steady --seed 7 --seconds 20 --trace 0
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$dir/target}"
cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" >&2
exec "$target/release/fedbench" "$@"
