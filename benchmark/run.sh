#!/usr/bin/env bash
# The one command: build the benchmark offline (release profile, path
# dependencies on the repository's crates and shims), then run it.
#
#   bash benchmark/run.sh                          all five workloads
#   bash benchmark/run.sh --workload serve-read --seed 7 --seconds 24 --trace 0
#   bash benchmark/run.sh --workload batch-hash --trace 1 --out /tmp/trace
#   bash benchmark/run.sh --quick                  3 s smoke of every workload
#   bash benchmark/run.sh aa --out benchmark/AA.md
#   bash benchmark/run.sh pins > benchmark/pins.json
#   bash benchmark/run.sh manifest > BENCHMARK.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Share the repository's target/ unless the caller chose a directory; a
# relative CARGO_TARGET_DIR means relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$(dirname "$here")/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Two builds into the one target directory: the repository's own df-serve
# (the child the served workloads spawn, exactly as `cargo build --release`
# at the root produces it) and the benchmark package. Cargo reports on
# stderr, so stdout still ends with the run's closing JSON line.
cargo build --release --offline --manifest-path "$(dirname "$here")/Cargo.toml" -p df-serve --bin df-serve
cargo build --release --offline --manifest-path "$here/Cargo.toml"

case "${1:-}" in
    aa | pins | manifest) exec "$target/release/df-benchmark" "$@" ;;
esac

# A traced run writes trace.json under --out; default to the build
# directory so nothing lands in the source tree.
for arg in "$@"; do
    if [ "$arg" = "--out" ]; then
        exec "$target/release/df-benchmark" "$@"
    fi
done
exec "$target/release/df-benchmark" "$@" --out "$target/benchmark-out"
