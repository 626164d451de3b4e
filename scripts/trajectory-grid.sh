#!/usr/bin/env bash
# Byte-identity grid for behaviour-preserving changes: builds <parent-ref>
# next to the working tree and runs both `skute-sim` binaries over
#
#   {base, fig2, fig3, fig4, fig5, outage} x threads {1, 2, 8} x {mem, lsm}
#     x {clean, --fault-seed 7, --fault-plan gray}          = 108 configurations
#
# at `--epochs 60 --seed 42`, comparing stdout and the CSV time series byte
# for byte. Prints the diverged count; exits non-zero on any.
#
#   scripts/trajectory-grid.sh <parent-ref>
#
# Takes about ten minutes. The parent is exported with `git archive` (no
# worktree to clean up) and built under $GRID_DIR (default: a fresh
# temporary directory, removed on exit).
set -euo pipefail

ref="${1:?usage: scripts/trajectory-grid.sh <parent-ref>}"
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ -n "${GRID_DIR:-}" ]]; then
  work="$GRID_DIR"
  mkdir -p "$work"
else
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
fi

rm -rf "$work/parent-src"
mkdir -p "$work/parent-src" "$work/out"
git -C "$repo" archive "$ref" | tar -x -C "$work/parent-src"
cargo build --release --offline --quiet --bin skute-sim \
  --manifest-path "$work/parent-src/Cargo.toml" --target-dir "$work/parent-target"
cargo build --release --offline --quiet --bin skute-sim \
  --manifest-path "$repo/Cargo.toml" --target-dir "$work/change-target"
parent="$work/parent-target/release/skute-sim"
change="$work/change-target/release/skute-sim"

total=0
diverged=0
for scenario in base fig2 fig3 fig4 fig5 outage; do
  for threads in 1 2 8; do
    for backend in mem lsm; do
      for faults in "" "--fault-seed 7" "--fault-plan gray"; do
        total=$((total + 1))
        for side in parent change; do
          # shellcheck disable=SC2086  # $faults is a flag and its value
          "${!side}" --scenario "$scenario" --epochs 60 --seed 42 \
            --threads "$threads" --backend "$backend" $faults \
            --csv "$work/out/$side.csv" >"$work/out/$side.txt"
          # The run prints where it wrote the CSV; the two sides differ
          # there by construction.
          sed -i "s#$work/out/$side\\.csv#CSV#g" "$work/out/$side.txt"
        done
        if ! cmp -s "$work/out/parent.txt" "$work/out/change.txt" ||
          ! cmp -s "$work/out/parent.csv" "$work/out/change.csv"; then
          diverged=$((diverged + 1))
          echo "DIVERGED: $scenario threads=$threads backend=$backend ${faults:-clean}"
        fi
      done
    done
  done
done
echo "$total configurations, $diverged diverged"
[[ "$diverged" -eq 0 ]]
