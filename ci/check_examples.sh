#!/usr/bin/env bash
# Exercise `sdb check` over the example workloads:
#   1. sound queries are accepted with a typed plan summary (prose + JSON);
#   2. each SA00N violation class is rejected with its stable code, a caret
#      rendering, and a nonzero exit;
#   3. the JSON rejection rendering is machine-readable.
# Any failure exits nonzero.
set -euo pipefail

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

cargo build --bin sdb
SDB=target/debug/sdb

printf 'ada,10\ngrace,20\nedsger,30\n' > "$WORK/emp.csv"
printf '10,storage\n20,query\n'        > "$WORK/dept.csv"
printf 'ida,db\nida,os\njoe,db\n'      > "$WORK/takes.csv"
printf 'db\nos\n'                      > "$WORK/core.csv"
printf '1\n2\n2\n3\n4\n'               > "$WORK/a.csv"
printf '2\n3\n5\n'                     > "$WORK/b.csv"

TABLES=(
  --table "emp=$WORK/emp.csv:str,int"
  --table "dept=$WORK/dept.csv:int,str"
  --table "takes=$WORK/takes.csv:str,str"
  --table "core=$WORK/core.csv:str"
  --table "a=$WORK/a.csv:int"
  --table "b=$WORK/b.csv:int"
)

accept() {
  local query=$1
  if ! "$SDB" check "${TABLES[@]}" "$query" > "$WORK/out.txt" 2>&1; then
    echo "FAIL: sound query rejected: $query"; cat "$WORK/out.txt"; exit 1
  fi
  grep -q 'plan accepted' "$WORK/out.txt" \
    || { echo "FAIL: no plan summary for: $query"; cat "$WORK/out.txt"; exit 1; }
  echo "ok (accepted) $query"
}

reject() {
  local code=$1; shift
  local query=$1; shift
  # remaining args: extra sdb flags (e.g. --limits / --memory)
  if "$SDB" check "${TABLES[@]}" "$@" "$query" > "$WORK/out.txt" 2>&1; then
    echo "FAIL: expected $code rejection for: $query"; cat "$WORK/out.txt"; exit 1
  fi
  grep -q "$code" "$WORK/out.txt" \
    || { echo "FAIL: missing $code for: $query"; cat "$WORK/out.txt"; exit 1; }
  grep -q '\^' "$WORK/out.txt" \
    || { echo "FAIL: missing caret rendering for: $query"; cat "$WORK/out.txt"; exit 1; }
  echo "ok ($code) $query"
}

# --- sound example workloads are accepted with typed summaries ----------
accept 'scan(emp)'
accept 'join(scan(emp), scan(dept), 1 = 0)'
accept 'filter(scan(emp), c1 >= 20)'
accept 'divide(scan(takes), scan(core), 0, 1, 0)'
accept 'store(dedup(union(scan(a), scan(b))), merged)'
# A theta join keeps both operands' columns, so c1 is b's column.
accept 'project(join(scan(a), scan(b), 0 < 0), [1])'

"$SDB" check "${TABLES[@]}" --json 'scan(emp)' > "$WORK/json.txt"
grep -q '"accepted": true' "$WORK/json.txt" \
  || { echo "FAIL: JSON acceptance missing"; cat "$WORK/json.txt"; exit 1; }

# --- the plan compiler explains itself, pinned against golden plans -----
# `--explain` output for each query is compared byte-for-byte against
# ci/golden-plans/<name>.txt; regenerate with UPDATE_GOLDEN=1 after an
# intentional change and review the diff like any other code change.
GOLDEN=ci/golden-plans
explain() {
  local name=$1; shift
  local query=$1; shift
  if ! "$SDB" check "${TABLES[@]}" --explain "$query" > "$WORK/explain.txt" 2>&1; then
    echo "FAIL: --explain rejected sound query: $query"; cat "$WORK/explain.txt"; exit 1
  fi
  if [[ -n "${UPDATE_GOLDEN:-}" ]]; then
    mkdir -p "$GOLDEN"
    cp "$WORK/explain.txt" "$GOLDEN/$name.txt"
    echo "regenerated $GOLDEN/$name.txt"
    return
  fi
  if [[ ! -f "$GOLDEN/$name.txt" ]]; then
    echo "FAIL: missing golden plan $GOLDEN/$name.txt; run with UPDATE_GOLDEN=1"; exit 1
  fi
  diff -u "$GOLDEN/$name.txt" "$WORK/explain.txt" \
    || { echo "FAIL: golden plan drifted for: $query (UPDATE_GOLDEN=1 to regenerate)"; exit 1; }
  echo "ok (explain) $query"
}

explain dedup_union 'dedup(union(scan(a), scan(b)))'
explain project_fuse 'project(project(scan(emp), [1, 0]), [0])'
explain filter_push 'filter(intersect(scan(a), scan(b)), c0 >= 2)'
explain no_rewrite 'scan(emp)'

# The JSON explain rendering is machine-readable and reports the rewrites.
"$SDB" check "${TABLES[@]}" --explain --json 'dedup(union(scan(a), scan(b)))' > "$WORK/ejson.txt"
grep -q '^{"optimizer":' "$WORK/ejson.txt" \
  || { echo "FAIL: JSON explain envelope missing"; cat "$WORK/ejson.txt"; exit 1; }
grep -q '"rule": "dedup-elim"' "$WORK/ejson.txt" \
  || { echo "FAIL: JSON explain missing dedup-elim rewrite"; cat "$WORK/ejson.txt"; exit 1; }

# --- all eight SA00N classes are rejected with stable codes -------------
reject SA001 'union(scan(emp), scan(dept))'
reject SA002 'project(scan(emp), [9])'
reject SA003 'divide(scan(takes), scan(a), 0, 1, 0)'
reject SA004 'filter(scan(emp), c0 < 5)'
reject SA005 'intersect(scan(a), scan(b))' --limits 0,32,8
reject SA006 'scan(emp)' --memory 16
reject SA007 'scan(ghost)'
reject SA008 'store(scan(emp), emp)'

# --- JSON rejection is machine-readable ---------------------------------
if "$SDB" check "${TABLES[@]}" --json 'scan(ghost)' > "$WORK/jerr.txt" 2>&1; then
  echo "FAIL: JSON rejection unexpectedly succeeded"; exit 1
fi
grep -q '"accepted": false' "$WORK/jerr.txt" \
  || { echo "FAIL: JSON rejection envelope missing"; cat "$WORK/jerr.txt"; exit 1; }
grep -q '"code": "SA007"' "$WORK/jerr.txt" \
  || { echo "FAIL: JSON rejection code missing"; cat "$WORK/jerr.txt"; exit 1; }

echo "sdb check examples passed: 6 accepted, 4 golden plans, 8 rejection classes verified"
