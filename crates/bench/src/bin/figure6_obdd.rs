//! Regenerates Figure 6 of the paper: the OBDDs of the Figure-3 outputs
//! `Vo1` and `Vo2` when the conversion-block lines carry composite values,
//! and the propagating assignments read off those OBDDs.
//!
//! Run with `cargo run --release -p msatpg-bench --bin figure6_obdd`.

use std::collections::HashMap;

use msatpg_bdd::{to_dot, to_text_tree, BddManager, Cube};
use msatpg_core::PropagationEngine;
use msatpg_digital::circuits;
use msatpg_digital::logic::Logic;

fn main() {
    let circuit = circuits::figure3_circuit();
    // Build the output OBDDs symbolically with l0 := D and l2 := D' (the
    // composite values of the paper's walk-through) and l1, l4 free.
    let mut m = BddManager::new();
    let l1 = m.var("l1");
    let l4 = m.var("l4");
    let d = m.var("D"); // last in the ordering, as in the paper
    let l0 = d;
    let l2 = m.not(d); // D'
    let l3 = l2;
    let l6 = m.or(l0, l3);
    let l7 = m.or(l1, l2);
    let vo1 = m.and(l6, l7);
    let vo2 = m.and(l6, l4);

    println!("Figure 6: OBDDs of Vo1 and Vo2 with l0 = D, l2 = D'\n");
    println!("Vo1 (text tree):\n{}", to_text_tree(&m, vo1));
    println!("Vo2 (text tree):\n{}", to_text_tree(&m, vo2));
    println!("Vo1 (graphviz):\n{}", to_dot(&m, vo1, "Vo1"));
    println!("Vo2 (graphviz):\n{}", to_dot(&m, vo2, "Vo2"));

    // Propagating assignments: the outputs depend on D exactly when the
    // Boolean difference with respect to D is satisfiable.
    let d_var = m.var_index("D").unwrap();
    for (name, f) in [("Vo1", vo1), ("Vo2", vo2)] {
        let diff = m.boolean_difference(f, d_var);
        match m.sat_one(diff) {
            Some(cube) => println!(
                "{name}: the fault effect is observable; one propagating assignment: {}",
                named_literals(&m, &cube)
            ),
            None => println!("{name}: the fault effect cannot reach this output"),
        }
    }

    // Cross-check with the propagation engine on the actual netlist, for the
    // single-composite case the engine supports (D on l2, l0 fixed to 1).
    let l0_sig = circuit.find_signal("l0").unwrap();
    let l2_sig = circuit.find_signal("l2").unwrap();
    let mut engine = PropagationEngine::new(&circuit, &[l0_sig, l2_sig]);
    let mut fixed = HashMap::new();
    fixed.insert(l0_sig, true);
    match engine
        .find_propagating_assignment(&fixed, l2_sig, Logic::D)
        .expect("engine runs")
    {
        Some(result) => {
            println!(
                "\npropagation engine: D on l2 (l0 = 1) observed at output #{} with assignment {:?}",
                result.observed_output,
                result
                    .external_assignment
                    .iter()
                    .map(|(s, v)| (circuit.signal_name(*s).to_owned(), *v))
                    .collect::<Vec<_>>()
            );
        }
        None => println!("\npropagation engine: no propagating assignment found"),
    }
}

/// Renders a cube over the manager's variable names (`!l1`), not the raw
/// variable ids `Cube`'s `Display` prints (`!x0`).
fn named_literals(m: &BddManager, cube: &Cube) -> String {
    if cube.is_empty() {
        return "(true)".to_owned();
    }
    let literals: Vec<String> = cube
        .iter()
        .map(|(var, value)| {
            let negation = if value { "" } else { "!" };
            format!("{negation}{}", m.var_name(var))
        })
        .collect();
    literals.join(" & ")
}
