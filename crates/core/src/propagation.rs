//! Propagation of a composite value (`D`/`D̄`) from a conversion-block
//! output through the digital block to a primary output (§2.3, Figure 6).
//!
//! The digital inputs driven by the conversion block are not free: under the
//! chosen analog stimulus they carry fixed logic values, except the one
//! comparator whose output differs between the fault-free and the faulty
//! circuit, which carries `D` or `D̄`.
//!
//! The engine builds the OBDD of every primary output **once**, over every
//! primary input: the external inputs first (declaration order), then each
//! constrained line as a variable of its own, placed after all of them in
//! netlist primary-input order.  A query restricts the other constrained
//! lines to their fixed values, takes the Boolean difference with respect
//! to the composite line and reads one satisfying cube off it; both
//! cofactor kernels are memoized and linear in BDD size.  After the
//! restriction the function depends on the external inputs only, in their
//! declaration order, so the canonical OBDD — and the cube `sat_one` reads
//! off it — is the one a per-query build with constants on the fixed lines
//! would produce.  The polarity of the composite does not matter to the
//! search: `∂g(¬D)/∂D = ∂g(D)/∂D`.

use std::collections::HashMap;

use msatpg_bdd::{Assignment, Bdd, BddManager, Cube, VarId};
use msatpg_digital::logic::Logic;
use msatpg_digital::netlist::{Netlist, SignalId};
use msatpg_digital::sim::CompositeSimulator;

use crate::digital_atpg::apply_gate;
use crate::ordering::DvoMode;
use crate::CoreError;

/// Live-node watermark above which the engine sweeps its manager once the
/// output functions are built: every interior signal function is garbage at
/// that point, only the primary-output BDDs (registered as GC roots) carry
/// forward into the queries.
const GC_WATERMARK: usize = 1 << 12;

/// The result of a successful propagation search.
#[derive(Clone, Debug, PartialEq)]
pub struct PropagationResult {
    /// Index (in primary-output order) of the output where the composite
    /// value is observed.
    pub observed_output: usize,
    /// Required values of the external (unconstrained) primary inputs;
    /// `None` = don't-care.
    pub external_assignment: Vec<(SignalId, Option<bool>)>,
    /// The composite value observed at the output.
    pub observed_value: Logic,
}

/// OBDD-based propagation engine bound to one digital netlist and its set
/// of constrained lines: one build, any number of queries.
pub struct PropagationEngine<'a> {
    netlist: &'a Netlist,
    manager: BddManager,
    /// Primary-output functions over every primary input (GC roots).
    outputs: Vec<Bdd>,
    /// The variables of the constrained lines in each output's fanin cone.
    output_lines: Vec<Vec<VarId>>,
    /// BDD variable of each primary input, in netlist primary-input order.
    pi_vars: Vec<VarId>,
    /// Whether each primary input (same order) is a constrained line.
    constrained: Vec<bool>,
    /// Five-valued cross-check of every assignment the OBDDs yield.
    sim: CompositeSimulator<'a>,
}

impl<'a> PropagationEngine<'a> {
    /// Builds the output functions of `netlist` with `constrained_lines`
    /// (the primary inputs driven by the conversion block) as trailing
    /// variables, then applies the dynamic-reordering safe point of the
    /// `MSATPG_DVO` environment variable.  Lines that are not primary inputs
    /// of `netlist` are ignored; querying them is an error.
    pub fn new(netlist: &'a Netlist, constrained_lines: &[SignalId]) -> Self {
        let pis = netlist.primary_inputs();
        let constrained: Vec<bool> = pis
            .iter()
            .map(|pi| constrained_lines.contains(pi))
            .collect();
        let mut manager = BddManager::new();
        let mut values: Vec<Option<Bdd>> = vec![None; netlist.signal_count()];
        let mut pi_vars = vec![0; pis.len()];
        // External inputs first, the constrained lines after them.
        let externals = (0..pis.len()).filter(|&i| !constrained[i]);
        for i in externals.chain((0..pis.len()).filter(|&i| constrained[i])) {
            pi_vars[i] = manager.var_id(netlist.signal_name(pis[i]));
            values[pis[i].index()] = Some(manager.literal(pi_vars[i], true));
        }
        for gate in netlist.gates() {
            let inputs: Vec<Bdd> = gate
                .inputs
                .iter()
                .map(|i| values[i.index()].expect("topological order guarantees availability"))
                .collect();
            let out = apply_gate(&mut manager, gate.kind, &inputs);
            values[gate.output.index()].get_or_insert(out);
        }
        let outputs: Vec<Bdd> = netlist
            .primary_outputs()
            .iter()
            .map(|&po| values[po.index()].expect("all signals computed"))
            .collect();
        // Only the output functions carry forward; reclaim the interior of
        // the netlist build before the queries fan out.
        for &f in &outputs {
            manager.protect(f);
        }
        manager.gc_if_above(GC_WATERMARK);
        // Deterministic reordering safe point: only the protected output
        // functions survive into the queries, so a sift here shrinks exactly
        // what they will traverse.
        if DvoMode::Auto.is_active() {
            let _ = manager.try_sift_until_convergence();
        }
        let output_lines = netlist
            .primary_outputs()
            .iter()
            .map(|&po| {
                let cone = netlist.fanin_support(po);
                (0..pis.len())
                    .filter(|&i| constrained[i] && cone.contains(&pis[i]))
                    .map(|i| pi_vars[i])
                    .collect()
            })
            .collect();
        PropagationEngine {
            netlist,
            manager,
            outputs,
            output_lines,
            pi_vars,
            constrained,
            sim: CompositeSimulator::new(netlist),
        }
    }

    /// Searches for an assignment to the external primary inputs that
    /// propagates the composite value to some primary output (the first
    /// one, in output order, that can observe it).
    ///
    /// `fixed` gives the logic value of every other constrained line (the
    /// values the conversion block produces under the chosen stimulus in
    /// the fault-free circuit); `composite_line` is the constrained line
    /// whose value differs in the faulty circuit and `composite` is that
    /// value (`D` or `D̄`).
    ///
    /// Returns `Ok(None)` when no assignment propagates the fault.
    ///
    /// # Errors
    ///
    /// Returns an error if `composite` is not a fault effect, if
    /// `composite_line` is not a constrained line, or if `fixed` does not
    /// give a value to exactly the other constrained lines.
    pub fn find_propagating_assignment(
        &mut self,
        fixed: &HashMap<SignalId, bool>,
        composite_line: SignalId,
        composite: Logic,
    ) -> Result<Option<PropagationResult>, CoreError> {
        let misuse = |reason: String| CoreError::Propagation { reason };
        if !composite.is_fault_effect() {
            return Err(misuse(format!(
                "composite value must be D or D', got {composite}"
            )));
        }
        let mut d_var = None;
        let mut others = Assignment::new();
        for (i, &pi) in self.netlist.primary_inputs().iter().enumerate() {
            if !self.constrained[i] {
                continue;
            }
            if pi == composite_line {
                d_var = Some(self.pi_vars[i]);
            } else if let Some(&value) = fixed.get(&pi) {
                others.set(self.pi_vars[i], value);
            }
        }
        let name = self.netlist.signal_name(composite_line);
        let d_var = d_var.ok_or_else(|| misuse(format!("'{name}' is not a constrained line")))?;
        if others.len() + 1 != self.constrained.iter().filter(|&&c| c).count()
            || others.len() != fixed.len()
        {
            return Err(misuse(format!(
                "the fixed values must cover exactly the constrained lines other than '{name}'"
            )));
        }
        for po_index in 0..self.outputs.len() {
            // The fault is observable at this output iff, with the other
            // lines fixed, the output depends on the composite line for
            // some external-input assignment.  Lines outside the output's
            // fanin cone need no restriction, and an output outside the
            // composite line's fanout cannot observe it.
            let lines = &self.output_lines[po_index];
            if !lines.contains(&d_var) {
                continue;
            }
            let restriction: Assignment =
                others.iter().filter(|(v, _)| lines.contains(v)).collect();
            let f = self
                .manager
                .restrict_all(self.outputs[po_index], &restriction);
            let diff = self.manager.boolean_difference(f, d_var);
            if let Some(cube) = self.manager.sat_one(diff) {
                let result =
                    self.result_from_cube(&cube, po_index, fixed, composite_line, composite);
                return result.map(Some);
            }
        }
        Ok(None)
    }

    /// Reads the external assignment off `cube` and cross-checks it with
    /// the five-valued simulator, which also reports the composite value
    /// actually observed at the output.
    fn result_from_cube(
        &mut self,
        cube: &Cube,
        po_index: usize,
        fixed: &HashMap<SignalId, bool>,
        composite_line: SignalId,
        composite: Logic,
    ) -> Result<PropagationResult, CoreError> {
        let pis = self.netlist.primary_inputs();
        let external_assignment: Vec<(SignalId, Option<bool>)> = (0..pis.len())
            .filter(|&i| !self.constrained[i])
            .map(|i| (pis[i], cube.get(self.pi_vars[i])))
            .collect();
        // Don't-care externals simulate as 0; the composite line is forced.
        let inputs: Vec<Logic> = (0..pis.len())
            .map(|i| match fixed.get(&pis[i]) {
                Some(&v) => Logic::from(v),
                None if self.constrained[i] => Logic::X,
                None => Logic::from(cube.get(self.pi_vars[i]).unwrap_or(false)),
            })
            .collect();
        self.sim.clear_forced().force(composite_line, composite);
        let outputs = self
            .sim
            .run_outputs(&inputs)
            .map_err(|e| CoreError::Digital(e.to_string()))?;
        let observed_value = outputs[po_index];
        if !observed_value.is_fault_effect() {
            return Err(CoreError::Propagation {
                reason: format!(
                    "BDD search claimed propagation to output {po_index} but simulation observes {observed_value}"
                ),
            });
        }
        Ok(PropagationResult {
            observed_output: po_index,
            external_assignment,
            observed_value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msatpg_digital::circuits;
    use msatpg_digital::gate::GateKind;

    fn signal(circuit: &Netlist, name: &str) -> SignalId {
        circuit.find_signal(name).unwrap()
    }

    fn assignment_of(result: &PropagationResult, line: SignalId) -> Option<bool> {
        result
            .external_assignment
            .iter()
            .find(|(s, _)| *s == line)
            .unwrap()
            .1
    }

    /// The paper's Figure-6 scenario: l0 = D, l2 = D̄ is not representable
    /// with a single composite line, so we reproduce the simpler case the
    /// text walks through: a D appears on l2 (through the comparator Co1)
    /// while l0 keeps its fault-free value, and the external inputs l1, l4
    /// must be chosen to propagate it.
    #[test]
    fn figure6_propagation_to_both_outputs() {
        let circuit = circuits::figure3_circuit();
        let (l0, l2) = (signal(&circuit, "l0"), signal(&circuit, "l2"));
        let mut engine = PropagationEngine::new(&circuit, &[l0, l2]);
        let fixed = HashMap::from([(l0, true)]); // comparator Co? keeps l0 = 1
        let result = engine
            .find_propagating_assignment(&fixed, l2, Logic::D)
            .unwrap()
            .expect("the fault effect must reach an output");
        assert!(result.observed_value.is_fault_effect());
        // With l0 = 1, l6 = 1 and Vo1 = l7 = l1 + D... propagation to Vo1
        // requires l1 = 0; Vo2 = l6·l4 never sees the effect; so observation
        // happens at output 0 (Vo1).
        assert_eq!(result.observed_output, 0);
        assert_eq!(assignment_of(&result, signal(&circuit, "l1")), Some(false));
    }

    /// The Figure-3 circuit with only `Vo2 = (l0 + l2)·l4` as an output.
    fn figure3_vo2_only() -> Netlist {
        let mut n = Netlist::new("figure3-vo2");
        let l0 = n.input("l0");
        let _l1 = n.input("l1");
        let l2 = n.input("l2");
        let l4 = n.input("l4");
        let l3 = n.gate(GateKind::Buf, "l3", &[l2]);
        let l6 = n.gate(GateKind::Or, "l6", &[l0, l3]);
        let vo2 = n.gate(GateKind::And, "Vo2", &[l6, l4]);
        n.mark_output(vo2);
        n
    }

    #[test]
    fn propagation_blocked_by_fixed_values() {
        // Composite on l2.  With l0 = 0 the OR gate l6 = l0 + l3 passes
        // l3 = l2, so the effect reaches Vo1 (first in output order) and
        // also Vo2 = l6·l4, which needs l4 = 1.  With l0 = 1, l6 is stuck at
        // 1: Vo2 = l4 is fault-free and only Vo1 (through l7) observes it.
        let circuit = circuits::figure3_circuit();
        let (l0, l2) = (signal(&circuit, "l0"), signal(&circuit, "l2"));
        let mut engine = PropagationEngine::new(&circuit, &[l0, l2]);
        for l0_value in [false, true] {
            let fixed = HashMap::from([(l0, l0_value)]);
            let result = engine
                .find_propagating_assignment(&fixed, l2, Logic::D)
                .unwrap()
                .expect("Vo1 observes the composite");
            assert_eq!(result.observed_output, 0, "l0 = {l0_value}");
        }

        let vo2_only = figure3_vo2_only();
        let (l0, l2) = (signal(&vo2_only, "l0"), signal(&vo2_only, "l2"));
        let mut engine = PropagationEngine::new(&vo2_only, &[l0, l2]);
        let open = engine
            .find_propagating_assignment(&HashMap::from([(l0, false)]), l2, Logic::D)
            .unwrap()
            .expect("Vo2 observes the composite when l0 = 0");
        assert_eq!(open.observed_output, 0);
        assert_eq!(assignment_of(&open, signal(&vo2_only, "l4")), Some(true));
        let masked = engine
            .find_propagating_assignment(&HashMap::from([(l0, true)]), l2, Logic::D)
            .unwrap();
        assert_eq!(masked, None, "l0 = 1 masks the composite at Vo2");
    }

    #[test]
    fn dbar_composite_is_supported() {
        let circuit = circuits::figure3_circuit();
        let (l0, l2) = (signal(&circuit, "l0"), signal(&circuit, "l2"));
        let mut engine = PropagationEngine::new(&circuit, &[l0, l2]);
        let fixed = HashMap::from([(l0, true)]);
        let d = engine.find_propagating_assignment(&fixed, l2, Logic::D);
        let dbar = engine
            .find_propagating_assignment(&fixed, l2, Logic::Dbar)
            .unwrap()
            .expect("D' propagates the same way");
        let d = d.unwrap().unwrap();
        assert!(dbar.observed_value.is_fault_effect());
        assert_eq!(dbar.observed_output, d.observed_output);
        assert_eq!(dbar.external_assignment, d.external_assignment);
    }

    #[test]
    fn non_composite_value_is_rejected() {
        let circuit = circuits::figure3_circuit();
        let (l0, l2) = (signal(&circuit, "l0"), signal(&circuit, "l2"));
        let mut engine = PropagationEngine::new(&circuit, &[l0, l2]);
        let err = engine
            .find_propagating_assignment(&HashMap::from([(l0, true)]), l2, Logic::One)
            .unwrap_err();
        assert!(matches!(err, CoreError::Propagation { .. }));
    }

    #[test]
    fn queries_fix_exactly_the_other_constrained_lines() {
        let circuit = circuits::figure3_circuit();
        let [l0, l1, l2] = ["l0", "l1", "l2"].map(|name| signal(&circuit, name));
        let mut engine = PropagationEngine::new(&circuit, &[l0, l2]);
        for (fixed, line) in [
            (vec![(l0, true)], l1),              // l1 is not a constrained line
            (vec![], l2),                        // l0 left unfixed
            (vec![(l0, true), (l1, false)], l2), // l1 is external
            (vec![(l0, true), (l2, false)], l2), // l2 carries the composite
        ] {
            let fixed: HashMap<SignalId, bool> = fixed.into_iter().collect();
            let err = engine
                .find_propagating_assignment(&fixed, line, Logic::D)
                .unwrap_err();
            assert!(matches!(err, CoreError::Propagation { .. }), "{err}");
        }
    }

    #[test]
    fn unpropagatable_effect_returns_none() {
        // Composite on l1 with l2 = 1 forces l7 = 1, so Vo1 is insensitive
        // to l1 and Vo2 never depends on l1.
        let circuit = circuits::figure3_circuit();
        let (l1, l2) = (signal(&circuit, "l1"), signal(&circuit, "l2"));
        let mut engine = PropagationEngine::new(&circuit, &[l1, l2]);
        let fixed = HashMap::from([(l2, true)]);
        let result = engine
            .find_propagating_assignment(&fixed, l1, Logic::D)
            .unwrap();
        assert!(result.is_none(), "l7 = l1 + 1 masks the composite");
    }
}
