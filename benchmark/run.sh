#!/usr/bin/env bash
# The served-query benchmark: builds `sdb` and the benchmark offline, then
# runs it. See benchmark/README.md.
#
#   benchmark/run.sh                      every workload, traced; results.json + traces
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one run, result object on the last line
#   benchmark/run.sh --check-repeat       two sets back to back, compared to the bounds
#   benchmark/run.sh --smoke              2-second set: schema and correctness only
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ]; then
    echo "benchmark/run.sh: $root holds no systolic-db source tree to build and measure" >&2
    exit 2
fi

# One target directory for all three builds, absolute so that cargo means the
# same place from every manifest.
target=${CARGO_TARGET_DIR:-$root/target}
case $target in /*) ;; *) target=$PWD/$target ;; esac
export CARGO_TARGET_DIR=$target

build() { cargo build --release --offline --quiet "$@" >&2; }
build --manifest-path "$root/Cargo.toml" --bin sdb
build --manifest-path "$here/servebench/Cargo.toml"
# The probe calls the crates' public functions, so a refactor can break its
# build. That costs the in-process layer metrics, never the end-to-end gate.
build --manifest-path "$here/layerprobe/Cargo.toml" ||
    echo "benchmark/run.sh: layerprobe does not build against this tree; its metrics will read 0" >&2

exec "$target/release/servebench" \
    --sdb "$target/release/sdb" --probe "$target/release/layerprobe" --out "$here/out" "$@"
