//! Logic simulation: two-valued, 64-way parallel-pattern and five-valued.

use std::collections::HashMap;

use crate::logic::Logic;
use crate::netlist::{Netlist, SignalId};
use crate::DigitalError;

/// Two-valued simulation of a netlist (convenience re-export of
/// [`Netlist::evaluate_all`] plus pattern helpers).
pub struct Simulator<'a> {
    netlist: &'a Netlist,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for `netlist`.
    pub fn new(netlist: &'a Netlist) -> Self {
        Simulator { netlist }
    }

    /// Simulates one pattern and returns the primary-output values.
    ///
    /// # Errors
    ///
    /// Returns an error if the pattern width does not match.
    pub fn run(&self, pattern: &[bool]) -> Result<Vec<bool>, DigitalError> {
        self.netlist.evaluate(pattern)
    }

    /// Simulates up to 64 patterns at once.  `patterns[i]` is the i-th
    /// pattern; the returned vector contains, for each primary output, a word
    /// whose bit *i* is that output's value under pattern *i*.
    ///
    /// # Errors
    ///
    /// Returns an error if any pattern width does not match or more than 64
    /// patterns are supplied.
    pub fn run_parallel(&self, patterns: &[Vec<bool>]) -> Result<Vec<u64>, DigitalError> {
        if patterns.len() > 64 {
            return Err(DigitalError::TooManyPatterns {
                max: 64,
                actual: patterns.len(),
            });
        }
        let words = self.run_parallel_all(patterns)?;
        Ok(self
            .netlist
            .primary_outputs()
            .iter()
            .map(|o| words[o.index()])
            .collect())
    }

    /// Parallel-pattern simulation returning a word per signal.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run_parallel`].
    pub fn run_parallel_all(&self, patterns: &[Vec<bool>]) -> Result<Vec<u64>, DigitalError> {
        let n_inputs = self.netlist.primary_inputs().len();
        for p in patterns {
            if p.len() != n_inputs {
                return Err(DigitalError::PatternWidthMismatch {
                    expected: n_inputs,
                    actual: p.len(),
                });
            }
        }
        let mut words = vec![0u64; self.netlist.signal_count()];
        for (i, &sig) in self.netlist.primary_inputs().iter().enumerate() {
            let mut w = 0u64;
            for (p, pattern) in patterns.iter().enumerate() {
                if pattern[i] {
                    w |= 1 << p;
                }
            }
            words[sig.index()] = w;
        }
        for gate in self.netlist.gates() {
            let ins: Vec<u64> = gate.inputs.iter().map(|i| words[i.index()]).collect();
            words[gate.output.index()] = gate.kind.eval_word(&ins);
        }
        Ok(words)
    }

    /// Wide parallel-pattern simulation returning a `W`-lane block per
    /// signal: pattern `p` lives in bit `p % 64` of lane `p / 64`, so one
    /// pass fills up to `64 * W` patterns.  `W = 1` is bit-identical to
    /// [`Simulator::run_parallel_all`].
    ///
    /// # Errors
    ///
    /// Returns an error if any pattern width does not match or more than
    /// `64 * W` patterns are supplied.
    pub fn run_parallel_blocks<const W: usize>(
        &self,
        patterns: &[Vec<bool>],
    ) -> Result<Vec<[u64; W]>, DigitalError> {
        if patterns.len() > 64 * W {
            return Err(DigitalError::TooManyPatterns {
                max: 64 * W,
                actual: patterns.len(),
            });
        }
        let n_inputs = self.netlist.primary_inputs().len();
        for p in patterns {
            if p.len() != n_inputs {
                return Err(DigitalError::PatternWidthMismatch {
                    expected: n_inputs,
                    actual: p.len(),
                });
            }
        }
        let mut blocks = vec![[0u64; W]; self.netlist.signal_count()];
        for (i, &sig) in self.netlist.primary_inputs().iter().enumerate() {
            let mut block = [0u64; W];
            for (p, pattern) in patterns.iter().enumerate() {
                if pattern[i] {
                    block[p / 64] |= 1 << (p % 64);
                }
            }
            blocks[sig.index()] = block;
        }
        self.settle_blocks(&mut blocks);
        Ok(blocks)
    }

    /// Evaluates every gate, in topological order, on a block per signal
    /// whose primary-input entries are already packed: the gate pass of
    /// [`Simulator::run_parallel_blocks`], for callers that pack their
    /// input words directly.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` has fewer entries than the netlist has signals.
    pub fn settle_blocks<const W: usize>(&self, blocks: &mut [[u64; W]]) {
        for gate in self.netlist.gates() {
            let block = gate
                .kind
                .eval_block_iter(gate.inputs.iter().map(|i| &blocks[i.index()]));
            blocks[gate.output.index()] = block;
        }
    }
}

/// Five-valued (D-algebra) simulation with composite values at arbitrary
/// lines.
///
/// This is how the effect of an analog fault — a `D`/`D̄` appearing at a
/// conversion-block output — is pushed through the digital block to see
/// whether it reaches a primary output (§2.3 of the paper).
pub struct CompositeSimulator<'a> {
    netlist: &'a Netlist,
    forced: HashMap<SignalId, Logic>,
}

impl<'a> CompositeSimulator<'a> {
    /// Creates a composite simulator for `netlist`.
    pub fn new(netlist: &'a Netlist) -> Self {
        CompositeSimulator {
            netlist,
            forced: HashMap::new(),
        }
    }

    /// Forces a line to a composite value regardless of its driver (used to
    /// inject `D`/`D̄` at the lines fed by the conversion block).
    pub fn force(&mut self, signal: SignalId, value: Logic) -> &mut Self {
        self.forced.insert(signal, value);
        self
    }

    /// Clears all forced values.
    pub fn clear_forced(&mut self) -> &mut Self {
        self.forced.clear();
        self
    }

    /// Runs the simulation with the given primary-input values (missing /
    /// extra inputs are an error) and returns the value of every signal.
    ///
    /// Forced values take precedence over both input values and gate
    /// evaluation.
    ///
    /// # Errors
    ///
    /// Returns an error if the pattern width does not match.
    pub fn run(&self, inputs: &[Logic]) -> Result<Vec<Logic>, DigitalError> {
        let n_inputs = self.netlist.primary_inputs().len();
        if inputs.len() != n_inputs {
            return Err(DigitalError::PatternWidthMismatch {
                expected: n_inputs,
                actual: inputs.len(),
            });
        }
        let mut values = vec![Logic::X; self.netlist.signal_count()];
        for (i, &sig) in self.netlist.primary_inputs().iter().enumerate() {
            values[sig.index()] = *self.forced.get(&sig).unwrap_or(&inputs[i]);
        }
        for gate in self.netlist.gates() {
            let value = if let Some(&forced) = self.forced.get(&gate.output) {
                forced
            } else {
                let ins: Vec<Logic> = gate.inputs.iter().map(|i| values[i.index()]).collect();
                Logic::eval_gate(gate.kind, &ins)
            };
            values[gate.output.index()] = value;
        }
        Ok(values)
    }

    /// Runs the simulation and returns the primary-output values in output
    /// order.
    ///
    /// # Errors
    ///
    /// Returns an error if the pattern width does not match.
    pub fn run_outputs(&self, inputs: &[Logic]) -> Result<Vec<Logic>, DigitalError> {
        let all = self.run(inputs)?;
        Ok(self
            .netlist
            .primary_outputs()
            .iter()
            .map(|o| all[o.index()])
            .collect())
    }

    /// Returns `true` if, under the given inputs, a fault effect (`D` or
    /// `D̄`) reaches at least one primary output.
    ///
    /// # Errors
    ///
    /// Returns an error if the pattern width does not match.
    pub fn propagates_fault(&self, inputs: &[Logic]) -> Result<bool, DigitalError> {
        Ok(self
            .run_outputs(inputs)?
            .iter()
            .any(|v| v.is_fault_effect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;

    fn and_or_circuit() -> Netlist {
        // out = (a AND b) OR c
        let mut n = Netlist::new("aoc");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let ab = n.gate(GateKind::And, "ab", &[a, b]);
        let out = n.gate(GateKind::Or, "out", &[ab, c]);
        n.mark_output(out);
        n
    }

    #[test]
    fn parallel_simulation_matches_serial() {
        let n = and_or_circuit();
        let sim = Simulator::new(&n);
        let patterns: Vec<Vec<bool>> = (0..8u32)
            .map(|i| vec![i & 1 != 0, i & 2 != 0, i & 4 != 0])
            .collect();
        let words = sim.run_parallel(&patterns).unwrap();
        assert_eq!(words.len(), 1);
        for (p, pattern) in patterns.iter().enumerate() {
            let serial = sim.run(pattern).unwrap()[0];
            assert_eq!((words[0] >> p) & 1 == 1, serial, "pattern {p}");
        }
    }

    #[test]
    fn block_simulation_matches_word_simulation() {
        let n = and_or_circuit();
        let sim = Simulator::new(&n);
        // 130 patterns fill three of the eight lanes at W = 8 (two full,
        // one partial).
        let patterns: Vec<Vec<bool>> = (0..130u32)
            .map(|i| vec![i & 1 != 0, i & 2 != 0, i & 4 != 0])
            .collect();
        let blocks = sim.run_parallel_blocks::<8>(&patterns).unwrap();
        for (start, chunk) in patterns.chunks(64).enumerate() {
            let words = sim.run_parallel_all(chunk).unwrap();
            for (i, &w) in words.iter().enumerate() {
                assert_eq!(blocks[i][start], w, "signal {i} lane {start}");
            }
        }
        for block in &blocks {
            assert!(
                block[3..].iter().all(|&w| w == 0),
                "lanes past the pattern count stay zero"
            );
        }
        // W = 1 is exactly run_parallel_all.
        let one = sim.run_parallel_blocks::<1>(&patterns[..64]).unwrap();
        let flat = sim.run_parallel_all(&patterns[..64]).unwrap();
        assert!(one.iter().map(|b| b[0]).eq(flat.iter().copied()));
        // Over-wide inputs are a structured error, not a panic.
        let many = vec![vec![false, false, false]; 65];
        assert!(matches!(
            sim.run_parallel_blocks::<1>(&many),
            Err(DigitalError::TooManyPatterns { max: 64, .. })
        ));
    }

    #[test]
    fn too_many_patterns_is_an_error() {
        let n = and_or_circuit();
        let sim = Simulator::new(&n);
        let patterns = vec![vec![false, false, false]; 65];
        assert!(matches!(
            sim.run_parallel(&patterns),
            Err(DigitalError::TooManyPatterns { .. })
        ));
    }

    #[test]
    fn composite_simulation_propagates_d() {
        let n = and_or_circuit();
        let mut sim = CompositeSimulator::new(&n);
        let a = n.find_signal("a").unwrap();
        sim.force(a, Logic::D);
        // D propagates through the AND only when b = 1 and is not masked by
        // the OR only when c = 0.
        let out = sim
            .run_outputs(&[Logic::X, Logic::One, Logic::Zero])
            .unwrap();
        assert_eq!(out[0], Logic::D);
        assert!(sim
            .propagates_fault(&[Logic::X, Logic::One, Logic::Zero])
            .unwrap());
        // Masked by c = 1.
        assert!(!sim
            .propagates_fault(&[Logic::X, Logic::One, Logic::One])
            .unwrap());
        // Blocked by b = 0.
        assert!(!sim
            .propagates_fault(&[Logic::X, Logic::Zero, Logic::Zero])
            .unwrap());
    }

    #[test]
    fn forced_internal_line_overrides_driver() {
        let n = and_or_circuit();
        let mut sim = CompositeSimulator::new(&n);
        let ab = n.find_signal("ab").unwrap();
        sim.force(ab, Logic::Dbar);
        let out = sim
            .run_outputs(&[Logic::Zero, Logic::Zero, Logic::Zero])
            .unwrap();
        assert_eq!(out[0], Logic::Dbar);
        sim.clear_forced();
        let out2 = sim
            .run_outputs(&[Logic::Zero, Logic::Zero, Logic::Zero])
            .unwrap();
        assert_eq!(out2[0], Logic::Zero);
    }

    #[test]
    fn width_mismatch_detected() {
        let n = and_or_circuit();
        let sim = CompositeSimulator::new(&n);
        assert!(sim.run(&[Logic::One]).is_err());
        let s2 = Simulator::new(&n);
        assert!(s2.run_parallel(&[vec![true]]).is_err());
    }
}
