//! Gate-level digital netlists, fault models, simulation and benchmark
//! circuits.
//!
//! This crate is the digital substrate of the mixed-signal ATPG
//! reproduction:
//!
//! * [`netlist`] / [`gate`] — combinational gate-level netlists;
//! * [`logic`] / [`sim`] — two-valued, 64-way parallel-pattern and
//!   five-valued (D-algebra) simulation;
//! * [`fault`] / [`fault_sim`] — single stuck-at faults, structural
//!   collapsing and fault simulation;
//! * [`circuits`] — the paper's Figure-3 circuit, the 4-bit adder of the
//!   validation board and generic building blocks;
//! * [`benchmarks`] — deterministic synthetic stand-ins for the ISCAS85
//!   circuits used in Tables 4, 5 and 7;
//! * [`bench_format`] — `.bench` reader/writer for loading real netlists;
//! * [`random_tpg`] — the random test-generation baseline;
//! * [`prng`] — the in-tree deterministic generator behind both;
//! * [`region`] — fanout-free regions and their stems.
//!
//! # Fault-simulation engine
//!
//! [`fault_sim::FaultSimulator::run`] implements **PPSFP**
//! (parallel-pattern single-fault propagation) over fanout-free regions:
//!
//! 1. patterns are packed 64 to a machine word, `W` words to a block, and
//!    the *good* circuit is simulated once per block
//!    ([`sim::Simulator::run_parallel_blocks`]);
//! 2. every line's fanout-free region is computed once ([`region`]): a
//!    line read by exactly one gate pin, and not a primary output, passes
//!    every change through that gate, and following such single readers
//!    ends at the region's *stem*;
//! 3. one output cone is compiled per stem, not per fault site, by walking
//!    the reader lists ([`fault_sim::FaultCones`]);
//! 4. a fault *l* s-a-*v* in the region of stem *s* is detected by
//!    `(good_l ⊕ v) · sens(l) · obs(s)`: its activation word, ANDed with
//!    the side-input conditions of the gates on the path from *l* to *s*
//!    (other inputs at 1 for AND/NAND, at 0 for OR/NOR, none for
//!    XOR/XNOR/BUF/NOT), ANDed with `obs(s)`, the patterns under which
//!    flipping *s* changes some primary output.  `obs(s)` comes from one
//!    propagation through the stem's cone with the stem's good word
//!    complemented, and is memoized per (stem, block)
//!    ([`fault_sim::ObsMemo`]);
//! 5. detected faults are dropped from later words.
//!
//! The word is exact because no side input of a fanout-free path lies in
//! the fanout of *l* (that would need a second reader on the path): the
//! side inputs are fault-free, so the fault flips *s* exactly where it is
//! activated and every path gate passes the change.  This is critical-path
//! tracing inside fanout-free regions with stem-only fault propagation.
//! Per 64-pattern word the cost is one cone walk per stem plus a few word
//! operations per fault, instead of the serial path's `O(|circuit| · 64)`
//! bit operations per fault (see `BENCH_kernels.json`).  The serial
//! reference survives as [`fault_sim::FaultSimulator::run_serial`] and the
//! two engines are property-tested to produce identical detected-fault
//! sets.
//!
//! The word further widens to 256/512-bit blocks (`[u64; 4/8]` lane
//! arrays that auto-vectorize at `--release`) behind the
//! [`fault_sim::WordWidth`] knob / `MSATPG_WORD_WIDTH` environment
//! variable, so one cone walk decides up to 512 patterns with results
//! byte-identical to the one-lane engine.
//!
//! # Example
//!
//! ```
//! use msatpg_digital::circuits;
//! use msatpg_digital::fault::FaultList;
//! use msatpg_digital::fault_sim::FaultSimulator;
//!
//! let adder = circuits::adder4();
//! let faults = FaultList::collapsed(&adder);
//! let sim = FaultSimulator::new(&adder);
//! let patterns = vec![vec![true; 9], vec![false; 9]];
//! let result = sim.run(&faults, &patterns)?;
//! assert!(result.coverage() > 0.0);
//! # Ok::<(), msatpg_digital::DigitalError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_format;
pub mod benchmarks;
pub mod circuits;
pub mod fault;
pub mod fault_sim;
pub mod gate;
pub mod logic;
pub mod netlist;
pub mod prng;
pub mod random_tpg;
pub mod region;
pub mod sim;

pub use fault::{FaultList, StuckAtFault};
pub use fault_sim::{FaultSimResult, FaultSimulator, WordWidth};
pub use gate::GateKind;
pub use logic::Logic;
pub use netlist::{Gate, GateId, Netlist, SignalId};
pub use sim::{CompositeSimulator, Simulator};

use std::fmt;

/// Errors produced by the digital netlist and simulation layers.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DigitalError {
    /// The netlist failed structural validation.
    InvalidNetlist {
        /// Explanation of the problem.
        reason: String,
    },
    /// A test pattern has the wrong number of bits.
    PatternWidthMismatch {
        /// Expected number of primary inputs.
        expected: usize,
        /// Actual pattern width.
        actual: usize,
    },
    /// More patterns were supplied than the parallel simulator can pack.
    TooManyPatterns {
        /// Maximum number of patterns per call.
        max: usize,
        /// Number of patterns supplied.
        actual: usize,
    },
    /// A `.bench` file could not be parsed.
    ParseError {
        /// 1-based line number (0 when the problem is global).
        line: usize,
        /// Explanation of the problem.
        reason: String,
    },
}

impl fmt::Display for DigitalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DigitalError::InvalidNetlist { reason } => write!(f, "invalid netlist: {reason}"),
            DigitalError::PatternWidthMismatch { expected, actual } => write!(
                f,
                "pattern width mismatch: expected {expected} bits, got {actual}"
            ),
            DigitalError::TooManyPatterns { max, actual } => {
                write!(
                    f,
                    "too many patterns: {actual} supplied, at most {max} allowed"
                )
            }
            DigitalError::ParseError { line, reason } => {
                if *line == 0 {
                    write!(f, "bench parse error: {reason}")
                } else {
                    write!(f, "bench parse error at line {line}: {reason}")
                }
            }
        }
    }
}

impl std::error::Error for DigitalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_variants() {
        let variants = vec![
            DigitalError::InvalidNetlist { reason: "x".into() },
            DigitalError::PatternWidthMismatch {
                expected: 4,
                actual: 2,
            },
            DigitalError::TooManyPatterns {
                max: 64,
                actual: 100,
            },
            DigitalError::ParseError {
                line: 3,
                reason: "bad".into(),
            },
            DigitalError::ParseError {
                line: 0,
                reason: "global".into(),
            },
        ];
        for v in variants {
            assert!(!format!("{v}").is_empty());
        }
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DigitalError>();
    }
}
