#!/usr/bin/env bash
# The benchmark's one command: build the CLI under test and the harness
# (offline, release, into cargo's target directory), then run the harness.
# Run from the checkout root; arguments go to `spine` unchanged.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/spine}"
# Build chatter goes to stderr: stdout belongs to the result.
cargo build --release --offline --quiet -p imm-cli --bin efficient-imm 1>&2
cargo build --release --offline --quiet --manifest-path spine/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/spine" "$@"
