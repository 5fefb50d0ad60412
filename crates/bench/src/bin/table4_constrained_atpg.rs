//! Regenerates Table 4 of the paper: test-vector generation for the ISCAS85
//! benchmark circuits with and without the constraints imposed by the
//! 15-comparator conversion block.
//!
//! Run with `cargo run --release -p msatpg-bench --bin table4_constrained_atpg`.

use std::time::Instant;

use msatpg_bench::{example3_mixed_circuit, table4_benchmarks};
use msatpg_core::digital_atpg::DigitalAtpg;
use msatpg_core::report::{seconds, TextTable};
use msatpg_digital::fault::FaultList;
use msatpg_digital::fault_sim::FaultSimulator;
use msatpg_digital::random_tpg::RandomPatternGenerator;

fn main() {
    let mut table = TextTable::new(
        "Table 4: test vector generation with and without constraints",
        &[
            "circuit",
            "#PI",
            "#PO",
            "collapsed faults",
            "untestable (no constr.)",
            "#vect (no constr.)",
            "CPU [s] (no constr.)",
            "untestable (constr.)",
            "#vect (constr.)",
            "CPU [s] (constr.)",
        ],
    );
    for name in table4_benchmarks() {
        let mixed = example3_mixed_circuit(name);
        let digital = mixed.digital().clone();
        let faults = FaultList::collapsed(&digital);
        let lines = mixed.constrained_inputs();
        let codes = mixed.allowed_codes();

        // Case 1 (no constraints): as in the paper, random patterns are used
        // first to knock out the easy faults cheaply, and the deterministic
        // OBDD generator only targets the survivors.
        let free_start = Instant::now();
        let mut generator = RandomPatternGenerator::new(&digital, 1995);
        let random_patterns = generator.patterns(64);
        let sim = FaultSimulator::new(&digital);
        let random_result = sim
            .run(&faults, &random_patterns)
            .expect("fault simulation succeeds");
        let remaining = FaultList::from_faults(random_result.undetected().to_vec());
        let mut unconstrained = DigitalAtpg::new(&digital);
        let report_free = unconstrained.run(&remaining).expect("ATPG succeeds");
        let free_cpu = free_start.elapsed();
        let free_vectors = random_patterns.len() + report_free.vector_count();

        // Case 2 (with constraints): random patterns would mostly violate the
        // thermometer-code constraint, so every vector is generated
        // deterministically, as in the paper.
        let mut constrained = DigitalAtpg::new(&digital)
            .with_constraints(&lines, &codes)
            .expect("constrained lines are primary inputs");
        let report_constrained = constrained.run(&faults).expect("ATPG succeeds");

        table.add_row(vec![
            name.to_owned(),
            digital.primary_inputs().len().to_string(),
            digital.primary_outputs().len().to_string(),
            faults.len().to_string(),
            report_free.untestable_count().to_string(),
            free_vectors.to_string(),
            seconds(free_cpu),
            report_constrained.untestable_count().to_string(),
            report_constrained.vector_count().to_string(),
            seconds(report_constrained.cpu),
        ]);
        eprintln!("{name}: done");
    }
    println!("{table}");
    println!(
        "expected shape (paper): adding the conversion-block constraints increases the\n\
         number of untestable faults and the CPU time for every circuit, and usually the\n\
         vector count as well.  Absolute numbers differ because the digital blocks are\n\
         synthetic ISCAS85 stand-ins (see the msatpg_digital::benchmarks module docs)."
    );
}
