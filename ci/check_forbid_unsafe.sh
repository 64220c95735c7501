#!/usr/bin/env bash
# Enforce the workspace unsafe-code policy:
#   1. every crate root (crates/*, shims/*, and the facade src/lib.rs)
#      declares `#![forbid(unsafe_code)]` — or `#![deny(unsafe_code)]` for
#      the crates on the explicit exception list below;
#   2. `#[allow(unsafe_code)]` appears only in the files the exception
#      list names, so a new unsafe block cannot slip in quietly.
# Any violation exits nonzero listing the offending files.
set -euo pipefail

cd "$(dirname "$0")/.."

# crate roots allowed to use deny (not forbid), because one of their
# modules carries a documented `#[allow(unsafe_code)]` exception.
DENY_OK=("crates/server/src/lib.rs")
# the only files allowed to contain `#[allow(unsafe_code)]`.
ALLOW_OK=("crates/server/src/shutdown.rs")

fail=0

contains() {
  local needle=$1; shift
  for x in "$@"; do [[ "$x" == "$needle" ]] && return 0; done
  return 1
}

for root in src/lib.rs crates/*/src/lib.rs shims/*/src/lib.rs; do
  if grep -q '#!\[forbid(unsafe_code)\]' "$root"; then
    continue
  fi
  if grep -q '#!\[deny(unsafe_code)\]' "$root"; then
    if contains "$root" "${DENY_OK[@]}"; then
      continue
    fi
    echo "FAIL $root: deny(unsafe_code) without being on the exception list"
    fail=1
    continue
  fi
  echo "FAIL $root: missing #![forbid(unsafe_code)]"
  fail=1
done

while IFS= read -r file; do
  if ! contains "$file" "${ALLOW_OK[@]}"; then
    echo "FAIL $file: #[allow(unsafe_code)] outside the exception list"
    fail=1
  fi
done < <(grep -rlE '^\s*#\[allow\(unsafe_code\)\]' src crates shims --include='*.rs' || true)

if [[ $fail -ne 0 ]]; then
  exit 1
fi
echo "unsafe-code policy holds: every crate forbids unsafe (one documented deny exception)"
