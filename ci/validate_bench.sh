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
# pulse simulator (the committed artifact reads ~614x).
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

# The durability experiment must be present with a live WAL append rate —
# a zero rate would mean the fsynced append path never ran.
DUR="$DIR/BENCH_durability.json"
if [[ ! -f "$DUR" ]]; then
  echo "missing $DUR" >&2
  exit 1
fi
WAL_RATE=$(sed -n 's/.*"wal_append_records_per_sec": \([0-9.]*\).*/\1/p' "$DUR")
if ! awk -v r="$WAL_RATE" 'BEGIN { exit !(r > 0) }'; then
  echo "durability wal_append_records_per_sec $WAL_RATE is not positive" >&2
  exit 1
fi
echo "durability WAL append rate: ${WAL_RATE} records/sec (fsync per append)"

# The observability experiment must be present with a full flight recorder
# and a non-empty merged shard trace — an empty trace would mean the
# cross-shard span trailers never reached the merge.
OBS="$DIR/BENCH_observability.json"
if [[ ! -f "$OBS" ]]; then
  echo "missing $OBS" >&2
  exit 1
fi
PROFILES=$(sed -n 's/.*"flight_recorder_profiles": \([0-9]*\).*/\1/p' "$OBS")
if ! awk -v p="$PROFILES" 'BEGIN { exit !(p > 0) }'; then
  echo "observability flight_recorder_profiles $PROFILES is not positive" >&2
  exit 1
fi
TRACE_EVENTS=$(sed -n 's/.*"trace_events": \([0-9]*\).*/\1/p' "$OBS")
if ! awk -v e="$TRACE_EVENTS" 'BEGIN { exit !(e > 0) }'; then
  echo "observability trace_events $TRACE_EVENTS is not positive" >&2
  exit 1
fi
echo "observability: ${PROFILES} profiles retained, ${TRACE_EVENTS} merged trace events"

# The plan-compiler experiment must be present, must have saved pulses
# (pulses_optimized <= pulses_baseline with a real reduction), and must
# have recorded actual rewrite activity.
OPT="$DIR/BENCH_optimizer.json"
if [[ ! -f "$OPT" ]]; then
  echo "missing $OPT" >&2
  exit 1
fi
P_BASE=$(sed -n 's/.*"pulses_baseline": \([0-9]*\).*/\1/p' "$OPT")
P_OPT=$(sed -n 's/.*"pulses_optimized": \([0-9]*\).*/\1/p' "$OPT")
if ! awk -v b="$P_BASE" -v o="$P_OPT" 'BEGIN { exit !(o+0 <= b+0 && b+0 > 0) }'; then
  echo "optimizer pulses_optimized $P_OPT exceeds pulses_baseline $P_BASE" >&2
  exit 1
fi
HITS=$(sed -n 's/.*"rewrite_hits": \([0-9]*\).*/\1/p' "$OPT")
if ! awk -v h="$HITS" 'BEGIN { exit !(h > 0) }'; then
  echo "optimizer rewrite_hits $HITS is not positive" >&2
  exit 1
fi
RULES=$(sed -n 's/.*"rules_fired": \([0-9]*\).*/\1/p' "$OPT")
if ! awk -v r="$RULES" 'BEGIN { exit !(r >= 4) }'; then
  echo "optimizer rules_fired $RULES is below the required 4 distinct rules" >&2
  exit 1
fi
echo "optimizer: $P_BASE -> $P_OPT pulses, $HITS rewrite sites across $RULES rules"

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
# inside one run, so host speed cancels. Both results are vectors of rows
# and the join's is 65 490 of them, which alone holds the ratio near 6; the
# join from key buckets reads about 7, the dense-`T` join it replaced read
# 11.8 (its last committed artifact) to 12.5.
J_NS=$(sed -n 's/.*"pipelined_ns_join": \([0-9]*\).*/\1/p' "$E22")
U_NS=$(sed -n 's/.*"pipelined_ns_union": \([0-9]*\).*/\1/p' "$E22")
if ! awk -v j="$J_NS" -v u="$U_NS" 'BEGIN { exit !(j != "" && u+0 > 0 && j+0 <= 10 * u) }'; then
  echo "e22 pipelined_ns_join '$J_NS' exceeds 10 x pipelined_ns_union '$U_NS' (or is missing)" >&2
  exit 1
fi
echo "e22 join/union wall ratio: $(awk -v j="$J_NS" -v u="$U_NS" 'BEGIN { printf "%.1f", j / u }') (<= 10)"
