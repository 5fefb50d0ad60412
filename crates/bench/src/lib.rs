//! Shared experiment scenarios for the benchmark harness.
//!
//! Every table and figure of the paper is regenerated by a binary in
//! `src/bin/`; the builders here assemble the mixed circuits those binaries
//! (and the Criterion benches) operate on, so that all experiments use the
//! same configurations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod naive;

use msatpg_analog::filters;
use msatpg_bdd::{Bdd, BddManager};
use msatpg_conversion::constraints::AllowedCodes;
use msatpg_conversion::FlashAdc;
use msatpg_core::{ConverterBlock, MixedCircuit};
use msatpg_digital::benchmarks;
use msatpg_digital::circuits;
use msatpg_digital::netlist::Netlist;

/// Number of comparators in the Example-3 conversion block.
pub const EXAMPLE3_COMPARATORS: usize = 15;
/// Reference voltage of the Example-3 conversion block.
pub const EXAMPLE3_VREF: f64 = 4.0;
/// Seed used for the "random" selection of constrained digital inputs.
pub const CONNECTION_SEED: u64 = 1995;

/// The Figure-4 mixed circuit: second-order band-pass filter, 2-comparator
/// conversion block, Figure-3 digital circuit, with the Example-2 constraint
/// (the code `(0, 0)` is never produced).
pub fn figure4_mixed_circuit() -> MixedCircuit {
    let analog = filters::second_order_band_pass();
    let adc = FlashAdc::uniform(2, 3.0).expect("valid converter");
    let digital = circuits::figure3_circuit();
    let mut mixed = MixedCircuit::new("figure4", analog, ConverterBlock::Flash(adc), digital);
    mixed
        .connect_in_order(&["l0", "l2"])
        .expect("figure-3 inputs exist");
    mixed.set_allowed_codes(AllowedCodes::new(
        2,
        vec![vec![true, false], vec![false, true], vec![true, true]],
    ));
    mixed
}

/// The Example-3 mixed circuit: fifth-order Chebyshev filter, 15-comparator
/// flash conversion block and the named (synthetic) ISCAS85 benchmark as the
/// digital block, with the constrained inputs selected pseudo-randomly as in
/// the paper.
///
/// # Panics
///
/// Panics if `benchmark` is not one of the supported ISCAS85 names.
pub fn example3_mixed_circuit(benchmark: &str) -> MixedCircuit {
    let digital = benchmarks::by_name(benchmark)
        .unwrap_or_else(|| panic!("unknown benchmark circuit '{benchmark}'"));
    example3_with_digital(digital)
}

/// Same as [`example3_mixed_circuit`] but with an explicit digital netlist.
pub fn example3_with_digital(digital: Netlist) -> MixedCircuit {
    let analog = filters::fifth_order_chebyshev();
    let adc = FlashAdc::uniform(EXAMPLE3_COMPARATORS, EXAMPLE3_VREF).expect("valid converter");
    let name = format!("example3-{}", digital.name());
    let mut mixed = MixedCircuit::new(&name, analog, ConverterBlock::Flash(adc), digital);
    mixed
        .connect_randomly(CONNECTION_SEED)
        .expect("benchmarks have enough inputs");
    mixed
}

/// The validation-board mixed circuit of Figure 8: state-variable filter,
/// behavioural 8-bit converter (4 low-order bits connected) and the 4-bit
/// ripple-carry adder.
pub fn figure8_board_circuit() -> MixedCircuit {
    let analog = filters::state_variable_filter();
    let adc = msatpg_conversion::SarAdc::ad7820();
    let digital = circuits::adder4();
    let mut mixed = MixedCircuit::new(
        "figure8-board",
        analog,
        ConverterBlock::Binary { adc, lines: 4 },
        digital,
    );
    mixed
        .connect_in_order(&["a0", "a1", "a2", "a3"])
        .expect("adder inputs exist");
    mixed
}

/// The ISCAS85 benchmark names used in Tables 4 and 5, in table order.
pub fn table4_benchmarks() -> Vec<&'static str> {
    vec!["c432", "c499", "c880", "c1355", "c1908"]
}

/// Builds the BDD of an n-bit adder's carry-out (a classic BDD stress case
/// with a good variable ordering) — the shared workload of the `bdd_ops`
/// bench, the `bench_kernels` bin and the naive-engine comparisons.  Any
/// change here changes *both* sides of every cross-engine measurement.
pub fn adder_carry_chain(manager: &mut BddManager, bits: usize) -> Bdd {
    let mut carry = manager.zero();
    for i in 0..bits {
        let a = manager.var(&format!("a{i}"));
        let b = manager.var(&format!("b{i}"));
        let ab = manager.and(a, b);
        let axb = manager.xor(a, b);
        let ac = manager.and(axb, carry);
        carry = manager.or(ab, ac);
    }
    carry
}

/// The `bdd_memory` carry workload: [`adder_carry_chain`] plus **both
/// stuck-at activation conditions** of every stage's carry line (`f` and
/// `NOT f`), mirroring what the test generator materializes per fault
/// target.  On the complement-edged engine each negation is an O(1) bit
/// flip that allocates nothing; compare
/// [`naive::naive_carry_chain_with_activations`].
pub fn adder_carry_chain_with_activations(manager: &mut BddManager, bits: usize) -> Bdd {
    let mut carry = manager.zero();
    let mut lines = Vec::with_capacity(bits);
    for i in 0..bits {
        let a = manager.var(&format!("a{i}"));
        let b = manager.var(&format!("b{i}"));
        let ab = manager.and(a, b);
        let axb = manager.xor(a, b);
        let ac = manager.and(axb, carry);
        carry = manager.or(ab, ac);
        lines.push(carry);
    }
    for &line in &lines {
        let _ = manager.not(line);
    }
    carry
}

/// Builds a balanced multiplexer tree selecting among `1 << selects` data
/// leaves with `selects` select variables, bottom-up with
/// [`BddManager::ite`] — the `bench_kernels` workload behind the
/// `ite_hit_rate` figure.
///
/// The carry-chain workload lowers to `and`/`xor`/`or` and never calls
/// `ite`, so its ITE hit rate reads a meaningless 0.  Here the leaves cycle
/// through only four data variables, so sibling sub-trees repeat the same
/// `(f, g, h)` triples at every level — exactly the re-asked questions the
/// dedicated ITE cache exists to answer.
pub fn mux_tree(manager: &mut BddManager, selects: usize) -> Bdd {
    let data: Vec<Bdd> = (0..4).map(|i| manager.var(&format!("d{i}"))).collect();
    let sels: Vec<Bdd> = (0..selects)
        .map(|i| manager.var(&format!("s{i}")))
        .collect();
    let mut level: Vec<Bdd> = (0..1usize << selects).map(|i| data[i % 4]).collect();
    for &sel in &sels {
        level = level
            .chunks(2)
            .map(|pair| manager.ite(sel, pair[1], pair[0]))
            .collect();
    }
    level[0]
}

/// Builds the fault-free function of every signal of `netlist` over its
/// primary inputs on `manager` — the full symbolic netlist build a
/// `DigitalAtpg` performs when it fills its signal functions (under a
/// budget, a cancel token or DVO), shared by the `bdd_memory` Example-3
/// measurement.
/// Returns the signal functions indexed by signal (undriven signals stay
/// `None`).
///
/// The gate lowering is the real generator's
/// [`msatpg_core::digital_atpg::apply_gate`] — not a copy — and the
/// traversal semantics (last driver wins, inputs must be defined before
/// use) match both that fill and
/// [`naive::naive_signal_functions`]: the memory comparison is only
/// meaningful if both engines build the identical function sequence.
pub fn signal_functions(manager: &mut BddManager, netlist: &Netlist) -> Vec<Option<Bdd>> {
    use msatpg_core::digital_atpg::apply_gate;
    let mut values: Vec<Option<Bdd>> = vec![None; netlist.signal_count()];
    for &pi in netlist.primary_inputs() {
        values[pi.index()] = Some(manager.var(netlist.signal_name(pi)));
    }
    for gate in netlist.gates() {
        let ins: Vec<Bdd> = gate
            .inputs
            .iter()
            .map(|i| values[i.index()].expect("topological order"))
            .collect();
        values[gate.output.index()] = Some(apply_gate(manager, gate.kind, &ins));
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_scenario_is_well_formed() {
        let mixed = figure4_mixed_circuit();
        assert!(mixed.validate().is_ok());
        assert_eq!(mixed.constrained_inputs().len(), 2);
    }

    #[test]
    fn example3_scenarios_connect_fifteen_lines() {
        let mixed = example3_mixed_circuit("c432");
        assert!(mixed.validate().is_ok());
        assert_eq!(mixed.constrained_inputs().len(), 15);
        assert_eq!(mixed.external_inputs().len(), 36 - 15);
    }

    #[test]
    fn figure8_board_is_well_formed() {
        let mixed = figure8_board_circuit();
        assert!(mixed.validate().is_ok());
        assert_eq!(mixed.constrained_inputs().len(), 4);
        assert_eq!(mixed.external_inputs().len(), 5);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_benchmark_panics() {
        let _ = example3_mixed_circuit("c9999");
    }

    #[test]
    fn benchmark_list_matches_the_paper() {
        assert_eq!(table4_benchmarks().len(), 5);
        assert_eq!(table4_benchmarks()[0], "c432");
    }

    #[test]
    fn mux_tree_selects_its_leaves_and_exercises_the_ite_cache() {
        use msatpg_bdd::Assignment;
        let selects = 5;
        let mut m = BddManager::new();
        let tree = mux_tree(&mut m, selects);
        // Semantic check: every select combination routes the chosen leaf
        // variable (leaves cycle through d0..d3).
        for address in 0..1usize << selects {
            for data_bits in 0..16usize {
                let mut asg = Assignment::new();
                for d in 0..4 {
                    asg.set(d as u32, (data_bits >> d) & 1 == 1);
                }
                for s in 0..selects {
                    asg.set((4 + s) as u32, (address >> s) & 1 == 1);
                }
                let expected = (data_bits >> (address % 4)) & 1 == 1;
                assert_eq!(m.eval(tree, &asg), expected, "address {address}");
            }
        }
        // The workload must actually hit the ITE cache — this is the whole
        // point of benchmarking it.
        assert!(m.stats().ite_cache.hit_rate() > 0.0);
    }
}
