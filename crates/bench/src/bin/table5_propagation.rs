//! Regenerates Table 5 of the paper: through how many conversion-block
//! comparators can an analog fault *not* be propagated to a primary output,
//! for amplitude deviations below and above the tolerance.
//!
//! The two columns always agree: a comparator deviating the other way flips
//! its line to `D̄` instead of `D`, and whether an output depends on that
//! line does not depend on the polarity (`∂g(¬D)/∂D = ∂g(D)/∂D`).  The study
//! asks once per comparator; both columns are printed, as in the paper.
//!
//! Run with `cargo run --release -p msatpg-bench --bin table5_propagation`.

use std::time::Instant;

use msatpg_bench::{example3_mixed_circuit, table4_benchmarks};
use msatpg_core::report::{seconds, TextTable};
use msatpg_core::AnalogAtpg;

fn main() {
    let mut table = TextTable::new(
        "Table 5: propagation of faulty parameters through the comparators",
        &[
            "circuit",
            "#PIs",
            "#PIs from conversion block",
            "#comparators blocking D (deviation < x%)",
            "#comparators blocking D' (deviation > x%)",
            "CPU [s]",
        ],
    );
    for name in table4_benchmarks() {
        let mixed = example3_mixed_circuit(name);
        let start = Instant::now();
        let study = AnalogAtpg::new(&mixed)
            .comparator_propagation_study()
            .expect("propagation study succeeds");
        let blocked_d = study.iter().filter(|&&(d, _)| !d).count();
        let blocked_dbar = study.iter().filter(|&&(_, dbar)| !dbar).count();
        table.add_row(vec![
            name.to_owned(),
            mixed.digital().primary_inputs().len().to_string(),
            mixed.constrained_inputs().len().to_string(),
            blocked_d.to_string(),
            blocked_dbar.to_string(),
            seconds(start.elapsed()),
        ]);
        eprintln!("{name}: done");
    }
    println!("{table}");
    println!(
        "expected shape (paper): only a few of the 15 comparators block propagation, so\n\
         almost every reference voltage of the conversion block remains testable."
    );
}
