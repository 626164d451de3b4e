#!/usr/bin/env bash
# The benchmark's one command. Builds the package in release mode from
# source, then hands every argument to the binary:
#
#   benchmark/run.sh [--seed N] [--trace] [--sets K]    a full set: every workload,
#                                                       each in a fresh child process
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                                       one run (what the driver calls)
#   benchmark/run.sh compare A.json B.json              parent-vs-change table
#
# Works from any directory. Everything it writes goes under benchmark/out
# and the cargo target directory (CARGO_TARGET_DIR, else benchmark/target).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# The compiler's and the linker's temporary files stay with the build.
mkdir -p "$target/tmp"
TMPDIR="$(cd "$target/tmp" && pwd)"
export TMPDIR
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
  --target-dir "$target" >&2
exec "$target/release/skute-benchmark" "$@"
