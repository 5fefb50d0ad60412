//! Regenerates Table 3 of the paper: element deviations (E.D.) of the
//! fifth-order Chebyshev low-pass filter, with the analog block accessed
//! directly (case 1) and as part of the mixed circuit (case 2).
//!
//! Run with `cargo run --release -p msatpg-bench --bin table3_chebyshev`.

use msatpg_analog::coverage::CoverageGraph;
use msatpg_analog::sensitivity::WorstCaseAnalysis;
use msatpg_bench::example3_mixed_circuit;
use msatpg_core::report::{percent_or_dash, TextTable};
use msatpg_core::MixedSignalAtpg;

fn main() {
    let mixed = example3_mixed_circuit("c432");
    let filter = mixed.analog();
    println!("Table 3: {} (case 2 digital block: c432)\n", filter.name());

    // Case 1: the analog block alone — worst-case element deviations.
    let report = WorstCaseAnalysis::new(filter.circuit(), filter.parameters())
        .with_parameter_tolerance(0.05)
        .with_element_tolerance(0.05)
        .with_worst_case(false)
        .run()
        .expect("deviation analysis succeeds");
    let graph = CoverageGraph::from_report(&report);

    // Case 2: the analog block inside the mixed circuit — the same element
    // deviations, but each one must also be activatable and propagatable
    // through the conversion and digital blocks.
    let atpg = MixedSignalAtpg::new(mixed);
    let analog_tests = atpg
        .analog_tests(&report)
        .expect("analog test generation succeeds");

    let mut table = TextTable::new(
        "Element deviation (E.D.) per element, case 1 vs case 2",
        &[
            "element",
            "best parameter",
            "E.D. case 1 [%]",
            "E.D. case 2 [%]",
            "case-2 status",
        ],
    );
    for (_, element) in report.elements() {
        let best = graph.best_deviation(element);
        let best_parameter = report
            .ranked_rows(element)
            .first()
            .map_or_else(|| "-".to_owned(), |row| row.parameter.clone());
        let entry = analog_tests.iter().find(|e| &e.element == element);
        let (case2, status) = match entry {
            Some(e) if e.outcome.is_tested() => (best, "tested"),
            Some(_) => (None, "not propagatable"),
            None => (None, "-"),
        };
        table.add_row(vec![
            element.clone(),
            best_parameter,
            percent_or_dash(best),
            percent_or_dash(case2),
            status.to_owned(),
        ]);
    }
    println!("{table}");
    println!(
        "paper: the elements are tested with the same accuracy in case 1 and case 2\n\
         (the conversion block does not degrade the achievable element deviations)."
    );
}
