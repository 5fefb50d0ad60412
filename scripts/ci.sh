#!/usr/bin/env bash
# The single local CI entry point: runs exactly the steps of
# .github/workflows/ci.yml, in the same order, so the offline container and
# the hosted workflow can never drift apart.  Keep the two files in sync.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> build (release)"
cargo build --release

echo "==> test"
cargo test -q

echo "==> fmt check"
cargo fmt --all --check

echo "==> compiler warnings are errors (all targets)"
RUSTFLAGS="-D warnings" cargo check --all-targets

echo "==> panic-site ratchet (lint_unwrap)"
./scripts/lint_unwrap.sh

echo "==> docs (rustdoc, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

# Thread counts, PPSFP word widths and the BDD variable-ordering mode are
# paired diagonally (1 thread at 8 lanes without sifting, 8 threads at 1
# lane with sifting to convergence) instead of a full product: both widths,
# a serial and an oversubscribed thread count and both DVO modes are
# exercised through the env knobs while the suite runs twice.  The suites
# additionally cross widths and DVO modes internally, so the pairing loses
# no coverage.  MSATPG_THREADS reaches only the analog deviation rows
# (through ExecPolicy::Auto): digital ATPG and fault simulation are serial,
# so there is no threaded digital path left to sweep.
echo "==> determinism matrix (proptests + dvo_equivalence at MSATPG_THREADS:MSATPG_WORD_WIDTH:MSATPG_DVO = 1:8:never/8:1:until-convergence)"
for triple in 1:8:never 8:1:until-convergence; do
    threads=${triple%%:*}
    rest=${triple#*:}
    width=${rest%%:*}
    dvo=${rest#*:}
    echo "    MSATPG_THREADS=${threads} MSATPG_WORD_WIDTH=${width} MSATPG_DVO=${dvo}"
    MSATPG_THREADS=${threads} MSATPG_WORD_WIDTH=${width} MSATPG_DVO=${dvo} \
        cargo test -q --release --test proptests
    MSATPG_THREADS=${threads} MSATPG_WORD_WIDTH=${width} MSATPG_DVO=${dvo} \
        cargo test -q --release --test dvo_equivalence
done

echo "==> kill-and-resume smoke (checkpoint_resume at MSATPG_THREADS:MSATPG_WORD_WIDTH:MSATPG_DVO = 1:8:never/8:1:until-convergence)"
for triple in 1:8:never 8:1:until-convergence; do
    threads=${triple%%:*}
    rest=${triple#*:}
    width=${rest%%:*}
    dvo=${rest#*:}
    echo "    MSATPG_THREADS=${threads} MSATPG_WORD_WIDTH=${width} MSATPG_DVO=${dvo}"
    MSATPG_THREADS=${threads} MSATPG_WORD_WIDTH=${width} MSATPG_DVO=${dvo} \
        cargo test -q --release --test checkpoint_resume
    MSATPG_THREADS=${threads} MSATPG_WORD_WIDTH=${width} MSATPG_DVO=${dvo} \
        cargo run -q --release --example checkpoint_resume
done

echo "==> paper tables (release) against the committed goldens in crates/bench/expected/"
for bin in table_example1 table_example2 table1_rules table3_chebyshev table8_state_variable table6_ladder table7_ladder_mixed figure_responses; do
    echo "    ${bin}"
    cargo run -q --release -p msatpg-bench --bin "${bin}" \
        | diff -u "crates/bench/expected/${bin}.txt" -
done

echo "==> perf-regression smoke (bench_kernels --check)"
cargo run --release -p msatpg-bench --bin bench_kernels -- --check

echo "==> CI passed"
