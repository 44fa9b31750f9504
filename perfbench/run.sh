#!/usr/bin/env bash
# Builds the benchmark in release mode, offline, then runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload replay_batch --seed 1 --seconds 20 --trace 0
#
# The build goes to $CARGO_TARGET_DIR when set (relative paths resolve from
# the current directory), else to perfbench/target. Build output goes to
# stderr, so the last line on stdout is the benchmark's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_NET_OFFLINE=true
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/perfbench" "$@"
