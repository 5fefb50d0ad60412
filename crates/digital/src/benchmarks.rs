//! Synthetic ISCAS85-like benchmark circuits.
//!
//! The paper evaluates its constrained test generator on the ISCAS85
//! benchmarks c432, c499, c880, c1355 and c1908.  The original netlists are
//! not distributed with this reproduction, so this module generates
//! *deterministic synthetic stand-ins* that match each benchmark's published
//! interface (number of primary inputs and outputs) and approximate gate
//! count, with output cones of bounded support so that OBDD-based test
//! generation stays tractable — the property the real ISCAS85 circuits also
//! have.
//!
//! This module is where the substitution is documented (the workspace map
//! in `docs/ARCHITECTURE.md`, section "`msatpg-digital`", points here);
//! every generated circuit is reproducible (fixed seed, no dependence on
//! external randomness).

use crate::gate::GateKind;
use crate::netlist::{Netlist, SignalId};
use crate::prng::SplitMix64;

/// Specification of a synthetic benchmark circuit.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchmarkSpec {
    /// Circuit name (e.g. `"c432"`).
    pub name: String,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Approximate number of gates to generate.
    pub gates: usize,
    /// Maximum number of primary inputs in the support of any single output
    /// cone (bounds OBDD size during test generation).
    pub cone_window: usize,
    /// Seed of the deterministic generator.
    pub seed: u64,
}

fn pick_gate_kind(rng: &mut SplitMix64) -> GateKind {
    // Weighted toward the AND/OR family, with a sprinkling of XOR and
    // inverters, roughly like the ISCAS85 gate mix.
    match rng.below(20) {
        0..=4 => GateKind::And,
        5..=9 => GateKind::Nand,
        10..=12 => GateKind::Or,
        13..=15 => GateKind::Nor,
        16..=17 => GateKind::Xor,
        18 => GateKind::Not,
        _ => GateKind::Xnor,
    }
}

/// Generates a synthetic benchmark from a specification.
///
/// The circuit is a union of output cones.  Cone *j* draws its primary
/// inputs from a sliding window of `cone_window` consecutive PIs.  Each cone
/// is built as a set of small *fanout-free* AND/OR/NAND/NOR trees over
/// distinct window PIs whose roots are merged by an XOR/XNOR chain — the
/// structure of the error-detection circuits several of the real ISCAS85
/// benchmarks implement.  Fanout-free trees are fully stuck-at testable and
/// the XOR spine never masks a propagating fault, so the generated circuits
/// are close to 100 % testable, like the originals, while the bounded PI
/// window keeps the per-output OBDDs small.
pub fn synthetic(spec: &BenchmarkSpec) -> Netlist {
    let mut rng = SplitMix64::new(spec.seed);
    let mut n = Netlist::new(&spec.name);
    let pis: Vec<SignalId> = (0..spec.inputs)
        .map(|i| n.input(&format!("i{i}")))
        .collect();
    let gates_per_cone = (spec.gates / spec.outputs.max(1)).max(3);
    let mut gate_counter = 0usize;
    for cone in 0..spec.outputs {
        // Window of PIs for this cone.
        let window = spec.cone_window.min(spec.inputs);
        let max_start = spec.inputs - window;
        let start = if spec.outputs > 1 {
            (cone * max_start) / (spec.outputs - 1).max(1)
        } else {
            0
        };
        let window_pis: Vec<SignalId> = pis[start..start + window].to_vec();

        // Build fanout-free subtrees over distinct window PIs.
        let mut subtree_roots: Vec<SignalId> = Vec::new();
        let mut gates_this_cone = 0usize;
        while gates_this_cone + subtree_roots.len().saturating_sub(1) < gates_per_cone {
            // Pick 2..=5 distinct leaves from the window (every leaf distinct
            // inside one subtree keeps the subtree fanout-free).
            let leaf_count = 2 + rng.below(4.min(window - 1));
            let mut chosen: Vec<SignalId> = Vec::new();
            while chosen.len() < leaf_count {
                let candidate = window_pis[rng.below(window_pis.len())];
                if !chosen.contains(&candidate) {
                    chosen.push(candidate);
                }
            }
            // Reduce the leaves with a random tree of standard gates.
            while chosen.len() > 1 {
                let a = chosen.swap_remove(rng.below(chosen.len()));
                let b = chosen.swap_remove(rng.below(chosen.len()));
                let kind = {
                    let k = pick_gate_kind(&mut rng);
                    if k.is_unary() {
                        GateKind::Nand
                    } else {
                        k
                    }
                };
                let g = n.gate(kind, &format!("g{gate_counter}"), &[a, b]);
                gate_counter += 1;
                gates_this_cone += 1;
                chosen.push(g);
            }
            // Occasionally invert a subtree root for variety.
            let mut root = chosen[0];
            if rng.below(5) == 0 {
                root = n.gate(GateKind::Not, &format!("g{gate_counter}"), &[root]);
                gate_counter += 1;
                gates_this_cone += 1;
            }
            subtree_roots.push(root);
        }
        // Merge the subtree roots with an XOR/XNOR spine: the spine always
        // propagates a difference on any of its inputs, so it introduces no
        // redundancy even though the subtrees share primary inputs.
        let mut root = subtree_roots[0];
        for &next in &subtree_roots[1..] {
            let kind = if rng.below(2) == 0 {
                GateKind::Xor
            } else {
                GateKind::Xnor
            };
            root = n.gate(kind, &format!("g{gate_counter}"), &[root, next]);
            gate_counter += 1;
        }
        // The root is a gate output: a cone always builds at least one
        // subtree with at least one gate.
        n.mark_output(root);
    }
    n
}

fn spec(name: &str, inputs: usize, outputs: usize, gates: usize, seed: u64) -> BenchmarkSpec {
    BenchmarkSpec {
        name: name.to_owned(),
        inputs,
        outputs,
        gates,
        cone_window: 14,
        seed,
    }
}

/// Synthetic stand-in for ISCAS85 **c432** (27-channel interrupt controller):
/// 36 inputs, 7 outputs, ≈160 gates.
pub fn c432() -> Netlist {
    synthetic(&spec("c432", 36, 7, 160, 0x4320))
}

/// Synthetic stand-in for ISCAS85 **c499** (32-bit SEC circuit): 41 inputs,
/// 32 outputs, ≈202 gates.
pub fn c499() -> Netlist {
    synthetic(&spec("c499", 41, 32, 202, 0x4990))
}

/// Synthetic stand-in for ISCAS85 **c880** (8-bit ALU): 60 inputs,
/// 26 outputs, ≈383 gates.
pub fn c880() -> Netlist {
    synthetic(&spec("c880", 60, 26, 383, 0x8800))
}

/// Synthetic stand-in for ISCAS85 **c1355** (32-bit SEC circuit): 41 inputs,
/// 32 outputs, ≈546 gates.
pub fn c1355() -> Netlist {
    synthetic(&spec("c1355", 41, 32, 546, 0x1355))
}

/// Synthetic stand-in for ISCAS85 **c1908** (16-bit SEC/DED circuit):
/// 33 inputs, 25 outputs, ≈880 gates.
pub fn c1908() -> Netlist {
    synthetic(&spec("c1908", 33, 25, 880, 0x1908))
}

/// The benchmark suite used in Tables 4 and 5 of the paper, in table order.
pub fn iscas85_suite() -> Vec<Netlist> {
    vec![c432(), c499(), c880(), c1355(), c1908()]
}

/// Looks a benchmark up by its ISCAS85 name.
pub fn by_name(name: &str) -> Option<Netlist> {
    match name {
        "c432" => Some(c432()),
        "c499" => Some(c499()),
        "c880" => Some(c880()),
        "c1355" => Some(c1355()),
        "c1908" => Some(c1908()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interfaces_match_the_published_benchmarks() {
        let expected = [
            ("c432", 36, 7),
            ("c499", 41, 32),
            ("c880", 60, 26),
            ("c1355", 41, 32),
            ("c1908", 33, 25),
        ];
        for (name, pi, po) in expected {
            let n = by_name(name).unwrap();
            assert_eq!(n.primary_inputs().len(), pi, "{name} PI count");
            assert_eq!(n.primary_outputs().len(), po, "{name} PO count");
            assert!(n.validate().is_ok(), "{name} must validate");
        }
        assert!(by_name("c6288").is_none());
        assert_eq!(iscas85_suite().len(), 5);
    }

    #[test]
    fn gate_counts_scale_with_the_real_benchmarks() {
        let c432 = c432();
        let c1908 = c1908();
        assert!(c432.gate_count() >= 100 && c432.gate_count() <= 250);
        assert!(c1908.gate_count() >= 600 && c1908.gate_count() <= 1200);
        assert!(c1908.gate_count() > c432.gate_count());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = c880();
        let b = c880();
        assert_eq!(a.gate_count(), b.gate_count());
        assert_eq!(a.signal_count(), b.signal_count());
        // Same structure gate by gate.
        for (ga, gb) in a.gates().iter().zip(b.gates()) {
            assert_eq!(ga, gb);
        }
    }

    #[test]
    fn cones_have_bounded_support() {
        for n in iscas85_suite() {
            for &po in n.primary_outputs() {
                let support = n.fanin_support(po);
                assert!(
                    support.len() <= 20,
                    "{}: output {} depends on {} PIs",
                    n.name(),
                    n.signal_name(po),
                    support.len()
                );
            }
        }
    }

    #[test]
    fn every_output_responds_to_some_input() {
        // Sanity: flipping inputs changes at least one output for each
        // benchmark (the circuits are not constant).
        for n in iscas85_suite() {
            let zeros = vec![false; n.primary_inputs().len()];
            let ones = vec![true; n.primary_inputs().len()];
            let out0 = n.evaluate(&zeros).unwrap();
            let out1 = n.evaluate(&ones).unwrap();
            assert_ne!(out0, out1, "{} outputs must depend on inputs", n.name());
        }
    }

    #[test]
    fn custom_spec_is_respected() {
        let s = BenchmarkSpec {
            name: "tiny".into(),
            inputs: 8,
            outputs: 2,
            gates: 20,
            cone_window: 6,
            seed: 42,
        };
        let n = synthetic(&s);
        assert_eq!(n.primary_inputs().len(), 8);
        assert_eq!(n.primary_outputs().len(), 2);
        assert!(n.gate_count() >= 10);
        assert!(n.validate().is_ok());
    }
}
