#!/usr/bin/env bash
# Panic-site ratchet for the library crates.
#
# Counts `.unwrap()` / `.expect(` occurrences in non-test library code (test
# modules and comment lines are stripped) and fails when the count rises
# above the committed baseline.  Four historical sites remain — each one
# an internal invariant with a justified message, audited in the robustness
# PR — and the ratchet keeps new fallible paths from joining them: new code
# must surface failures as structured errors (`BddError`, `CoreError`,
# `AnalogError`, `DigitalError`) instead of panicking.
#
# When you remove a site, lower BASELINE so it cannot creep back.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=4

LIB_DIRS=(
    crates/bdd/src
    crates/exec/src
    crates/digital/src
    crates/analog/src
    crates/conversion/src
    crates/core/src
    src
)

total=0
report=""
for file in $(find "${LIB_DIRS[@]}" -name "*.rs" | sort); do
    # Strip everything from the first `#[cfg(test)]` on (test modules live at
    # the bottom of each file in this workspace) and comment-only lines (doc
    # examples legitimately use `unwrap` for brevity).
    count=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' "$file" \
        | grep -c '\.unwrap()\|\.expect(' || true)
    if [ "$count" -gt 0 ]; then
        report+="    ${count}  ${file}"$'\n'
        total=$((total + count))
    fi
done

echo "==> panic-site ratchet: ${total} unwrap/expect sites (baseline ${BASELINE})"
if [ -n "$report" ]; then
    printf '%s' "$report"
fi

if [ "$total" -gt "$BASELINE" ]; then
    echo "error: new .unwrap()/.expect( sites in library code (${total} > ${BASELINE})." >&2
    echo "       Return a structured error instead, or justify and bump BASELINE." >&2
    exit 1
fi

if [ "$total" -lt "$BASELINE" ]; then
    echo "note: count dropped below the baseline — lower BASELINE=${BASELINE} to ${total} in $0 to lock in the progress."
fi
