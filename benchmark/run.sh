#!/usr/bin/env bash
# The benchmark's one command: build the harness offline, then run it from
# the repository root (it reads benchmark/golden.json and writes only under
# benchmark/out/). See benchmark/README.md for the flags.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# An outer CARGO_TARGET_DIR (a relative one resolves against the repository
# root, where we now stand) wins; otherwise build into benchmark/target.
target="${CARGO_TARGET_DIR:-benchmark/target}"
# Only the result belongs on standard output.
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

exec "$target/release/shasta-benchmark" "$@"
