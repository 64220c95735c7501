#!/usr/bin/env bash
# Validate the `BENCH_<name>.json` experiment artifacts against their
# schema. With a directory argument, validates artifacts already produced
# (CI passes the dir the repro step wrote); without one, runs
# `repro --json` into a temp dir first.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -ge 1 ]]; then
  DIR=$1
else
  DIR=$(mktemp -d)
  trap 'rm -rf "$DIR"' EXIT
  cargo run -p systolic-bench --bin repro --release -- --json "$DIR"
fi

cargo run -p systolic-bench --bin validate_artifacts -- "$DIR"

# The backend speedup experiment must be present and must have recorded
# at least a 100x host-wall-time win for the columnar backend over the
# pulse simulator (README.md and EXPERIMENTS.md render the committed
# artifact's table; `repro --render-docs`).
E21="$DIR/BENCH_e21_backend_speedup.json"
if [[ ! -f "$E21" ]]; then
  echo "missing $E21" >&2
  exit 1
fi
SPEEDUP=$(sed -n 's/.*"speedup": \([0-9.]*\).*/\1/p' "$E21")
if ! awk -v s="$SPEEDUP" 'BEGIN { exit !(s >= 100.0) }'; then
  echo "e21 speedup $SPEEDUP is below the required 100x" >&2
  exit 1
fi
echo "e21 columnar-vs-sim speedup: ${SPEEDUP}x (>= 100x)"

# The columnar experiment must be present.
E22="$DIR/BENCH_e22_columnar.json"
if [[ ! -f "$E22" ]]; then
  echo "missing $E22" >&2
  exit 1
fi
# On the device path the machine serves (TiledPipelined), pricing a run
# must stay the smaller part of running it — a ratio, so any runner holds it.
SHARE=$(sed -n 's/.*"pipelined_accounting_share": \([0-9.]*\).*/\1/p' "$E22")
if ! awk -v s="$SHARE" 'BEGIN { exit !(s != "" && s+0 <= 0.5) }'; then
  echo "e22 pipelined_accounting_share '$SHARE' exceeds 0.5 (or is missing)" >&2
  exit 1
fi
echo "e22 device-path accounting share: ${SHARE}"

# An equi-join must cost what its result rows cost, not |A|·|B| bits of `T`:
# on the same device path, its wall time against the union's — a ratio
# inside one run, so host speed cancels. Both results are one buffer of
# codes, so the join's 65 490 rows are one allocation, written a bucket's
# block at a time; that reads 2.0 to 2.6. While each result row was its own
# `Vec` the ratio read 5.6, the dense-`T` join before that 11.8 to 12.5.
J_NS=$(sed -n 's/.*"pipelined_ns_join": \([0-9]*\).*/\1/p' "$E22")
U_NS=$(sed -n 's/.*"pipelined_ns_union": \([0-9]*\).*/\1/p' "$E22")
if ! awk -v j="$J_NS" -v u="$U_NS" 'BEGIN { exit !(j != "" && u+0 > 0 && j+0 <= 4 * u) }'; then
  echo "e22 pipelined_ns_join '$J_NS' exceeds 4 x pipelined_ns_union '$U_NS' (or is missing)" >&2
  exit 1
fi
echo "e22 join/union wall ratio: $(awk -v j="$J_NS" -v u="$U_NS" 'BEGIN { printf "%.1f", j / u }') (<= 4)"

# A span opened with no collector installed is what every uninstrumented
# query pays at each instrumentation site: it must cost at most a fifth of
# a recorded span. A ratio inside one run, so host speed cancels.
E20="$DIR/BENCH_e20_telemetry.json"
if [[ ! -f "$E20" ]]; then
  echo "missing $E20" >&2
  exit 1
fi
OFF_NS=$(sed -n 's/.*"disabled_span_ns": \([0-9.]*\).*/\1/p' "$E20")
ON_NS=$(sed -n 's/.*"enabled_span_ns": \([0-9.]*\).*/\1/p' "$E20")
if ! awk -v d="$OFF_NS" -v e="$ON_NS" 'BEGIN { exit !(d != "" && e+0 > 0 && d * 5 <= e) }'; then
  echo "e20 disabled_span_ns '$OFF_NS' exceeds a fifth of enabled_span_ns '$ON_NS' (or is missing)" >&2
  exit 1
fi
echo "e20 span cost: ${OFF_NS} ns disabled vs ${ON_NS} ns recorded (>= 5x apart)"
