//! Combinational gate-level netlists.
//!
//! A [`Netlist`] is a DAG of gates connected by named *signals* (the paper's
//! "lines").  Every signal is a potential stuck-at fault site, including
//! primary inputs, internal gate outputs and fanout branches (modelled as
//! `Buf` gates).

use std::collections::HashMap;
use std::fmt;

use crate::gate::GateKind;
use crate::DigitalError;

/// Identifier of a signal (line) in a netlist.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// Raw index of the signal.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a gate in a netlist.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// Raw index of the gate.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A gate instance: kind, input signals and output signal.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    /// Logic function.
    pub kind: GateKind,
    /// Input signals in pin order.
    pub inputs: Vec<SignalId>,
    /// Output signal driven by this gate.
    pub output: SignalId,
}

#[derive(Clone, Debug, PartialEq)]
struct Signal {
    name: String,
    driver: Option<GateId>,
}

/// A combinational gate-level netlist.
///
/// # Example
///
/// ```
/// use msatpg_digital::netlist::Netlist;
/// use msatpg_digital::gate::GateKind;
///
/// let mut n = Netlist::new("half-adder");
/// let a = n.input("a");
/// let b = n.input("b");
/// let sum = n.gate(GateKind::Xor, "sum", &[a, b]);
/// let carry = n.gate(GateKind::And, "carry", &[a, b]);
/// n.mark_output(sum);
/// n.mark_output(carry);
/// assert_eq!(n.primary_inputs().len(), 2);
/// assert_eq!(n.primary_outputs().len(), 2);
/// assert_eq!(n.evaluate(&[true, true]).unwrap(), vec![false, true]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    name: String,
    signals: Vec<Signal>,
    by_name: HashMap<String, SignalId>,
    gates: Vec<Gate>,
    inputs: Vec<SignalId>,
    outputs: Vec<SignalId>,
}

impl Netlist {
    /// Creates an empty netlist with the given name.
    pub fn new(name: &str) -> Self {
        Netlist {
            name: name.to_owned(),
            ..Default::default()
        }
    }

    /// Name of the netlist.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a primary input and returns its signal.
    ///
    /// # Panics
    ///
    /// Panics if the name is already used.
    pub fn input(&mut self, name: &str) -> SignalId {
        let id = self.new_signal(name, None);
        self.inputs.push(id);
        id
    }

    /// Adds a gate driving a new signal named `output_name`.
    ///
    /// # Panics
    ///
    /// Panics if the output name is already used, if `inputs` is empty, or if
    /// a unary gate receives more than one input.
    pub fn gate(&mut self, kind: GateKind, output_name: &str, inputs: &[SignalId]) -> SignalId {
        assert!(!inputs.is_empty(), "gate must have at least one input");
        if kind.is_unary() {
            assert_eq!(inputs.len(), 1, "unary gate takes exactly one input");
        }
        let gate_id = GateId(self.gates.len() as u32);
        let output = self.new_signal(output_name, Some(gate_id));
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output,
        });
        output
    }

    /// Marks a signal as a primary output.
    pub fn mark_output(&mut self, signal: SignalId) {
        if !self.outputs.contains(&signal) {
            self.outputs.push(signal);
        }
    }

    fn new_signal(&mut self, name: &str, driver: Option<GateId>) -> SignalId {
        assert!(
            !self.by_name.contains_key(name),
            "duplicate signal name {name}"
        );
        let id = SignalId(self.signals.len() as u32);
        self.signals.push(Signal {
            name: name.to_owned(),
            driver,
        });
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Primary inputs in declaration order.
    pub fn primary_inputs(&self) -> &[SignalId] {
        &self.inputs
    }

    /// Primary outputs in declaration order.
    pub fn primary_outputs(&self) -> &[SignalId] {
        &self.outputs
    }

    /// All gates in insertion (topological) order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of signals (lines).
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// Number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Name of a signal.
    pub fn signal_name(&self, signal: SignalId) -> &str {
        &self.signals[signal.index()].name
    }

    /// Looks up a signal by name.
    pub fn find_signal(&self, name: &str) -> Option<SignalId> {
        self.by_name.get(name).copied()
    }

    /// The gate driving `signal`, or `None` for primary inputs.
    pub fn driver(&self, signal: SignalId) -> Option<&Gate> {
        self.signals[signal.index()]
            .driver
            .map(|g| &self.gates[g.index()])
    }

    /// Returns `true` if the signal is a primary input.
    pub fn is_primary_input(&self, signal: SignalId) -> bool {
        self.signals[signal.index()].driver.is_none()
    }

    /// Returns `true` if the signal is a primary output.
    pub fn is_primary_output(&self, signal: SignalId) -> bool {
        self.outputs.contains(&signal)
    }

    /// All signals in id order.
    pub fn signals(&self) -> Vec<SignalId> {
        (0..self.signals.len() as u32).map(SignalId).collect()
    }

    /// Primary inputs in the transitive fanin of `signal` (its support).
    pub fn fanin_support(&self, signal: SignalId) -> Vec<SignalId> {
        let mut needed = vec![false; self.signals.len()];
        needed[signal.index()] = true;
        // Walk gates in reverse topological order.
        for gate in self.gates.iter().rev() {
            if needed[gate.output.index()] {
                for i in &gate.inputs {
                    needed[i.index()] = true;
                }
            }
        }
        self.inputs
            .iter()
            .copied()
            .filter(|s| needed[s.index()])
            .collect()
    }

    /// Logic level of every signal (primary inputs are level 0; a gate output
    /// is one more than its deepest input).
    pub fn levels(&self) -> Vec<usize> {
        let mut level = vec![0usize; self.signals.len()];
        for gate in &self.gates {
            let max_in = gate
                .inputs
                .iter()
                .map(|i| level[i.index()])
                .max()
                .unwrap_or(0);
            level[gate.output.index()] = max_in + 1;
        }
        level
    }

    /// Depth of the netlist (maximum logic level of any primary output).
    pub fn depth(&self) -> usize {
        let levels = self.levels();
        self.outputs
            .iter()
            .map(|o| levels[o.index()])
            .max()
            .unwrap_or(0)
    }

    /// Structural validation: every primary output must be driven or be an
    /// input, every gate input must precede the gate (guaranteed by the
    /// builder), and there must be at least one input and one output.
    ///
    /// # Errors
    ///
    /// Returns [`DigitalError::InvalidNetlist`] describing the first problem
    /// found.
    pub fn validate(&self) -> Result<(), DigitalError> {
        if self.inputs.is_empty() {
            return Err(DigitalError::InvalidNetlist {
                reason: "netlist has no primary inputs".to_owned(),
            });
        }
        if self.outputs.is_empty() {
            return Err(DigitalError::InvalidNetlist {
                reason: "netlist has no primary outputs".to_owned(),
            });
        }
        for gate in &self.gates {
            for input in &gate.inputs {
                if input.index() >= gate.output.index() {
                    return Err(DigitalError::InvalidNetlist {
                        reason: format!(
                            "gate output '{}' depends on a later signal '{}'",
                            self.signal_name(gate.output),
                            self.signal_name(*input)
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Evaluates the netlist on a primary-input assignment and returns the
    /// primary-output values in output order.
    ///
    /// # Errors
    ///
    /// Returns [`DigitalError::PatternWidthMismatch`] if the pattern length
    /// differs from the number of primary inputs.
    pub fn evaluate(&self, pattern: &[bool]) -> Result<Vec<bool>, DigitalError> {
        let all = self.evaluate_all(pattern)?;
        Ok(self.outputs.iter().map(|o| all[o.index()]).collect())
    }

    /// Evaluates the netlist and returns the value of every signal, indexed
    /// by signal id.
    ///
    /// # Errors
    ///
    /// Returns [`DigitalError::PatternWidthMismatch`] if the pattern length
    /// differs from the number of primary inputs.
    pub fn evaluate_all(&self, pattern: &[bool]) -> Result<Vec<bool>, DigitalError> {
        if pattern.len() != self.inputs.len() {
            return Err(DigitalError::PatternWidthMismatch {
                expected: self.inputs.len(),
                actual: pattern.len(),
            });
        }
        let mut values = vec![false; self.signals.len()];
        for (i, &sig) in self.inputs.iter().enumerate() {
            values[sig.index()] = pattern[i];
        }
        for gate in &self.gates {
            let ins: Vec<bool> = gate.inputs.iter().map(|i| values[i.index()]).collect();
            values[gate.output.index()] = gate.kind.eval(&ins);
        }
        Ok(values)
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} PIs, {} POs, {} gates, {} lines, depth {}",
            self.name,
            self.inputs.len(),
            self.outputs.len(),
            self.gates.len(),
            self.signals.len(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half_adder() -> Netlist {
        let mut n = Netlist::new("half-adder");
        let a = n.input("a");
        let b = n.input("b");
        let sum = n.gate(GateKind::Xor, "sum", &[a, b]);
        let carry = n.gate(GateKind::And, "carry", &[a, b]);
        n.mark_output(sum);
        n.mark_output(carry);
        n
    }

    #[test]
    fn half_adder_truth_table() {
        let n = half_adder();
        assert!(n.validate().is_ok());
        assert_eq!(n.evaluate(&[false, false]).unwrap(), vec![false, false]);
        assert_eq!(n.evaluate(&[true, false]).unwrap(), vec![true, false]);
        assert_eq!(n.evaluate(&[false, true]).unwrap(), vec![true, false]);
        assert_eq!(n.evaluate(&[true, true]).unwrap(), vec![false, true]);
    }

    #[test]
    fn structure_queries() {
        let n = half_adder();
        assert_eq!(n.signal_count(), 4);
        assert_eq!(n.gate_count(), 2);
        assert_eq!(n.depth(), 1);
        let a = n.find_signal("a").unwrap();
        let sum = n.find_signal("sum").unwrap();
        assert!(n.is_primary_input(a));
        assert!(!n.is_primary_input(sum));
        assert!(n.is_primary_output(sum));
        assert!(!n.is_primary_output(a));
        assert_eq!(n.signal_name(sum), "sum");
        assert!(n.driver(sum).is_some());
        assert!(n.driver(a).is_none());
        assert_eq!(n.fanin_support(sum).len(), 2);
        assert!(format!("{n}").contains("half-adder"));
    }

    #[test]
    fn pattern_width_is_checked() {
        let n = half_adder();
        assert!(matches!(
            n.evaluate(&[true]),
            Err(DigitalError::PatternWidthMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn validation_rejects_empty_interfaces() {
        let n = Netlist::new("empty");
        assert!(matches!(
            n.validate(),
            Err(DigitalError::InvalidNetlist { .. })
        ));
        let mut n2 = Netlist::new("no-output");
        n2.input("a");
        assert!(matches!(
            n2.validate(),
            Err(DigitalError::InvalidNetlist { .. })
        ));
    }

    #[test]
    fn mark_output_is_idempotent() {
        let mut n = half_adder();
        let sum = n.find_signal("sum").unwrap();
        n.mark_output(sum);
        assert_eq!(n.primary_outputs().len(), 2);
    }

    #[test]
    fn levels_increase_along_paths() {
        let mut n = Netlist::new("chain");
        let a = n.input("a");
        let b = n.gate(GateKind::Not, "b", &[a]);
        let c = n.gate(GateKind::Not, "c", &[b]);
        let d = n.gate(GateKind::Not, "d", &[c]);
        n.mark_output(d);
        let levels = n.levels();
        assert_eq!(levels[a.index()], 0);
        assert_eq!(levels[d.index()], 3);
        assert_eq!(n.depth(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate signal name")]
    fn duplicate_signal_names_panic() {
        let mut n = Netlist::new("dup");
        n.input("a");
        n.input("a");
    }
}
