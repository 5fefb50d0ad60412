//! Naive reference implementations of the three hot kernels, kept solely so
//! benchmarks can measure the optimized engines against their pre-overhaul
//! counterparts inside the same build.
//!
//! * [`NaiveBddManager`] — the previous BDD engine shape: `HashMap<Node,
//!   Bdd>` unique table (SipHash) plus unbounded `HashMap` apply/ite caches.
//! * [`naive_sweep`] — a frequency sweep that rebuilds the full MNA engine
//!   (stamping, allocation, factorization) at every sweep point, the cost
//!   profile of the pre-overhaul per-solve path.
//! * The serial fault-simulation baseline needs no copy here: the optimized
//!   crate still ships it as
//!   [`msatpg_digital::fault_sim::FaultSimulator::run_serial`].
//!
//! None of this module is used by the production flow.

use std::collections::HashMap;

use msatpg_analog::mna::Mna;
use msatpg_analog::netlist::{Circuit, NodeId};
use msatpg_analog::AnalogError;

/// Node reference of the naive BDD manager (index into its node vector).
pub type NaiveBdd = u32;

const NAIVE_ZERO: NaiveBdd = 0;
const NAIVE_ONE: NaiveBdd = 1;

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct NaiveNode {
    var: u32,
    low: NaiveBdd,
    high: NaiveBdd,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum NaiveOp {
    And,
    Or,
    Xor,
}

/// Hash-consed BDD store with SipHash `HashMap` unique table and unbounded
/// `HashMap` operation caches — the layout the arena engine replaced.
#[derive(Default)]
pub struct NaiveBddManager {
    nodes: Vec<NaiveNode>,
    unique: HashMap<NaiveNode, NaiveBdd>,
    apply_cache: HashMap<(NaiveOp, NaiveBdd, NaiveBdd), NaiveBdd>,
    ite_cache: HashMap<(NaiveBdd, NaiveBdd, NaiveBdd), NaiveBdd>,
    var_count: u32,
}

impl NaiveBddManager {
    /// Creates an empty manager containing only the two terminals.
    pub fn new() -> Self {
        let terminal = NaiveNode {
            var: u32::MAX,
            low: NAIVE_ZERO,
            high: NAIVE_ONE,
        };
        NaiveBddManager {
            nodes: vec![terminal, terminal],
            ..Default::default()
        }
    }

    /// The constant-false terminal.
    pub fn zero(&self) -> NaiveBdd {
        NAIVE_ZERO
    }

    /// Declares the next variable and returns its positive literal.
    pub fn new_var(&mut self) -> NaiveBdd {
        let var = self.var_count;
        self.var_count += 1;
        self.mk_node(var, NAIVE_ZERO, NAIVE_ONE)
    }

    /// Number of internal nodes created so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - 2
    }

    fn root_var(&self, f: NaiveBdd) -> u32 {
        if f <= 1 {
            u32::MAX
        } else {
            self.nodes[f as usize].var
        }
    }

    fn cofactors_at(&self, f: NaiveBdd, var: u32) -> (NaiveBdd, NaiveBdd) {
        if f <= 1 || self.root_var(f) != var {
            (f, f)
        } else {
            let n = self.nodes[f as usize];
            (n.low, n.high)
        }
    }

    fn mk_node(&mut self, var: u32, low: NaiveBdd, high: NaiveBdd) -> NaiveBdd {
        if low == high {
            return low;
        }
        let node = NaiveNode { var, low, high };
        if let Some(&existing) = self.unique.get(&node) {
            return existing;
        }
        let id = self.nodes.len() as NaiveBdd;
        self.nodes.push(node);
        self.unique.insert(node, id);
        id
    }

    /// Logical negation (recursive — the naive engine has no complement
    /// edges, so `!f` materializes a full second copy of the function).
    pub fn not(&mut self, f: NaiveBdd) -> NaiveBdd {
        self.ite(f, NAIVE_ZERO, NAIVE_ONE)
    }

    /// Logical conjunction.
    pub fn and(&mut self, f: NaiveBdd, g: NaiveBdd) -> NaiveBdd {
        self.apply(NaiveOp::And, f, g)
    }

    /// Logical disjunction.
    pub fn or(&mut self, f: NaiveBdd, g: NaiveBdd) -> NaiveBdd {
        self.apply(NaiveOp::Or, f, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: NaiveBdd, g: NaiveBdd) -> NaiveBdd {
        self.apply(NaiveOp::Xor, f, g)
    }

    /// If-then-else with an unbounded memo table.
    pub fn ite(&mut self, f: NaiveBdd, g: NaiveBdd, h: NaiveBdd) -> NaiveBdd {
        if f == NAIVE_ONE {
            return g;
        }
        if f == NAIVE_ZERO {
            return h;
        }
        if g == h {
            return g;
        }
        if g == NAIVE_ONE && h == NAIVE_ZERO {
            return f;
        }
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            return r;
        }
        let top = self.root_var(f).min(self.root_var(g)).min(self.root_var(h));
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        let (h0, h1) = self.cofactors_at(h, top);
        let low = self.ite(f0, g0, h0);
        let high = self.ite(f1, g1, h1);
        let result = self.mk_node(top, low, high);
        self.ite_cache.insert((f, g, h), result);
        result
    }

    fn apply(&mut self, op: NaiveOp, f: NaiveBdd, g: NaiveBdd) -> NaiveBdd {
        match op {
            NaiveOp::And => {
                if f == NAIVE_ZERO || g == NAIVE_ZERO {
                    return NAIVE_ZERO;
                }
                if f == NAIVE_ONE {
                    return g;
                }
                if g == NAIVE_ONE {
                    return f;
                }
                if f == g {
                    return f;
                }
            }
            NaiveOp::Or => {
                if f == NAIVE_ONE || g == NAIVE_ONE {
                    return NAIVE_ONE;
                }
                if f == NAIVE_ZERO {
                    return g;
                }
                if g == NAIVE_ZERO {
                    return f;
                }
                if f == g {
                    return f;
                }
            }
            NaiveOp::Xor => {
                if f == g {
                    return NAIVE_ZERO;
                }
                if f == NAIVE_ZERO {
                    return g;
                }
                if g == NAIVE_ZERO {
                    return f;
                }
            }
        }
        let (f, g) = if f <= g { (f, g) } else { (g, f) };
        if let Some(&r) = self.apply_cache.get(&(op, f, g)) {
            return r;
        }
        let top = self.root_var(f).min(self.root_var(g));
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        let low = self.apply(op, f0, g0);
        let high = self.apply(op, f1, g1);
        let result = self.mk_node(top, low, high);
        self.apply_cache.insert((op, f, g), result);
        result
    }
}

/// Builds the carry-out of an n-bit adder in a naive manager (same function
/// as the `bdd_ops` bench builds in the optimized one).
pub fn naive_carry_chain(manager: &mut NaiveBddManager, bits: usize) -> NaiveBdd {
    let mut carry = manager.zero();
    for _ in 0..bits {
        let a = manager.new_var();
        let b = manager.new_var();
        let ab = manager.and(a, b);
        let axb = manager.xor(a, b);
        let ac = manager.and(axb, carry);
        carry = manager.or(ab, ac);
    }
    carry
}

/// The `bdd_memory` carry workload on the naive engine: the n-bit carry
/// chain plus **both stuck-at activation conditions** of every stage's
/// carry line (a fault *l* s-a-1 activates with `NOT f_l`, s-a-0 with
/// `f_l` — exactly what BDD_FTEST materializes per fault target).  Without
/// complement edges every negation stores a full second copy of the
/// function.
pub fn naive_carry_chain_with_activations(manager: &mut NaiveBddManager, bits: usize) -> NaiveBdd {
    let mut carry = manager.zero();
    let mut lines = Vec::with_capacity(bits);
    for _ in 0..bits {
        let a = manager.new_var();
        let b = manager.new_var();
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

/// Builds the fault-free function of every signal of `netlist` over its
/// primary inputs on the naive engine — the full signal-function build of
/// the Example-3 constrained runs.  The ISCAS-style benchmarks are
/// NAND/NOR-heavy, so the naive engine materializes the negation of almost
/// every gate output.  Returns the total node population of the build.
pub fn naive_signal_functions(netlist: &msatpg_digital::netlist::Netlist) -> usize {
    use msatpg_digital::gate::GateKind;
    let mut m = NaiveBddManager::new();
    let mut values: Vec<Option<NaiveBdd>> = vec![None; netlist.signal_count()];
    for &pi in netlist.primary_inputs() {
        values[pi.index()] = Some(m.new_var());
    }
    for gate in netlist.gates() {
        let ins: Vec<NaiveBdd> = gate
            .inputs
            .iter()
            .map(|i| values[i.index()].expect("topological order"))
            .collect();
        let fold_and =
            |m: &mut NaiveBddManager| ins.iter().skip(1).fold(ins[0], |a, &b| m.and(a, b));
        let fold_or = |m: &mut NaiveBddManager| ins.iter().skip(1).fold(ins[0], |a, &b| m.or(a, b));
        let fold_xor =
            |m: &mut NaiveBddManager| ins.iter().skip(1).fold(ins[0], |a, &b| m.xor(a, b));
        let out = match gate.kind {
            GateKind::Buf => ins[0],
            GateKind::Not => m.not(ins[0]),
            GateKind::And => fold_and(&mut m),
            GateKind::Nand => {
                let t = fold_and(&mut m);
                m.not(t)
            }
            GateKind::Or => fold_or(&mut m),
            GateKind::Nor => {
                let t = fold_or(&mut m);
                m.not(t)
            }
            GateKind::Xor => fold_xor(&mut m),
            GateKind::Xnor => {
                let t = fold_xor(&mut m);
                m.not(t)
            }
        };
        values[gate.output.index()] = Some(out);
    }
    m.node_count()
}

/// Frequency sweep that pays the full pre-overhaul cost per point: a fresh
/// MNA engine (stamping + allocation + factorization) for every frequency.
///
/// # Errors
///
/// Propagates solver errors.
pub fn naive_sweep(
    circuit: &Circuit,
    source: &str,
    output: NodeId,
    frequencies: &[f64],
) -> Result<Vec<(f64, f64)>, AnalogError> {
    frequencies
        .iter()
        .map(|&f| {
            let mna = Mna::new(circuit);
            mna.gain(source, output, f).map(|g| (f, g))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use msatpg_analog::filters;
    use msatpg_analog::response::{FrequencyResponse, SweepConfig};
    use msatpg_bdd::BddManager;

    #[test]
    fn complement_engine_stores_fewer_nodes_than_naive() {
        let mut naive = NaiveBddManager::new();
        let naive_carry = naive_carry_chain(&mut naive, 8);
        let mut arena = BddManager::new();
        let carry = crate::adder_carry_chain(&mut arena, 8);
        // Same function under the same variable order, but the complement
        // engine stores only one polarity of every subfunction: its total
        // population is strictly smaller than the naive engine's.
        assert!(
            arena.stats().node_count < naive.node_count(),
            "complement edges must shrink the unique table: {} vs naive {}",
            arena.stats().node_count,
            naive.node_count()
        );
        assert!(naive_carry > 1);
        assert!(!carry.is_terminal());
    }

    #[test]
    fn naive_sweep_matches_optimized_sweep() {
        let filter = filters::second_order_band_pass();
        let config = SweepConfig {
            start_hz: 10.0,
            stop_hz: 100.0e3,
            points_per_decade: 5,
        };
        let freqs = config.frequencies();
        let naive = naive_sweep(filter.circuit(), "Vin", filter.output_node(), &freqs).unwrap();
        let fast = FrequencyResponse::sweep(filter.circuit(), "Vin", filter.output_node(), &config)
            .unwrap();
        assert_eq!(naive.len(), fast.points().len());
        for ((f1, g1), (f2, g2)) in naive.iter().zip(fast.points()) {
            assert_eq!(f1, f2);
            assert!((g1 - g2).abs() < 1e-12);
        }
    }
}
