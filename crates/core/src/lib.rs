//! Mixed-signal automatic test vector generation — the primary contribution
//! of *Ayari, BenHamida & Kaminska, "Automatic Test Vector Generation for
//! Mixed-Signal Circuits" (DATE 1995)*.
//!
//! The crate assembles the analog, conversion and digital substrates into a
//! [`MixedCircuit`] and generates tests for it as a single entity:
//!
//! * [`digital_atpg`] — backtrack-free OBDD stuck-at ATPG with the
//!   constraint function `Fc` ([`constraint`]) imposed by the conversion
//!   block, whose OBDDs also answer the D/D̄ propagation from a
//!   conversion-block output through the digital block (Figure 6,
//!   [`DigitalAtpg::try_propagate`]);
//! * [`activation`] — Table-1 stimulus selection for analog parametric
//!   faults;
//! * [`analog_atpg`] / [`test_plan`] — the end-to-end flow producing a
//!   [`TestPlan`];
//! * [`report`] — plain-text tables used by the experiment binaries.
//!
//! See the crate-level examples of the `msatpg` facade crate and the
//! `msatpg-bench` binaries that regenerate every table and figure of the
//! paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod analog_atpg;
pub mod constraint;
pub mod digital_atpg;
pub mod mixed_circuit;
pub mod ordering;
pub mod report;
pub mod store;
pub mod test_plan;

/// Execution policy and persistent worker pool of the workspace (re-export
/// of [`msatpg_exec`]).
pub use msatpg_bdd::{BddBudget, BddError};
pub use msatpg_digital::fault_sim::WordWidth;
pub use msatpg_exec::{CancelToken, ChaosInjector, ExecPolicy, PanicPolicy, PoolStats, WorkerPool};

pub use activation::{DeviationSign, StimulusPlan};
pub use analog_atpg::{
    AnalogAtpg, AnalogTestEntry, AnalogTestOutcome, AnalogTestVector, StudyPaths,
};
pub use digital_atpg::{
    AbortReason, AtpgReport, DegradePolicy, DigitalAtpg, TestOutcome, TestVector,
};
pub use mixed_circuit::{ConverterBlock, MixedCircuit};
pub use ordering::{pi_order, DvoMode, StaticOrder, DVO_ENV_VAR};
pub use store::{Checkpoint, CheckpointPolicy, StoreError};
pub use test_plan::{AtpgOptions, MixedSignalAtpg, TestPlan};

use std::fmt;

/// Errors produced by the mixed-signal test generator.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// An error bubbled up from the analog simulation layer.
    Analog(String),
    /// An error bubbled up from the digital simulation layer.
    Digital(String),
    /// An error bubbled up from the conversion-block models.
    Conversion(String),
    /// The mixed-circuit wiring is inconsistent.
    InvalidConnection {
        /// Explanation of the problem.
        reason: String,
    },
    /// No stimulus can activate the requested analog fault.
    ActivationImpossible {
        /// Explanation of the problem.
        reason: String,
    },
    /// The five-valued simulation of the digital block does not observe the
    /// fault effect an OBDD propagation query claims at an output.
    Propagation {
        /// Explanation of the problem.
        reason: String,
    },
    /// A persistence operation (checkpoint write, artifact load) failed.
    ///
    /// The structured details live in [`store::StoreError`]; this variant
    /// carries its rendered message so `CoreError` can stay `Clone` +
    /// `PartialEq`.
    Store {
        /// Explanation of the problem.
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Analog(msg) => write!(f, "analog layer: {msg}"),
            CoreError::Digital(msg) => write!(f, "digital layer: {msg}"),
            CoreError::Conversion(msg) => write!(f, "conversion layer: {msg}"),
            CoreError::InvalidConnection { reason } => {
                write!(f, "invalid mixed-circuit connection: {reason}")
            }
            CoreError::ActivationImpossible { reason } => {
                write!(f, "analog fault activation impossible: {reason}")
            }
            CoreError::Propagation { reason } => write!(f, "propagation error: {reason}"),
            CoreError::Store { reason } => write!(f, "store error: {reason}"),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_variants() {
        let variants = vec![
            CoreError::Analog("a".into()),
            CoreError::Digital("d".into()),
            CoreError::Conversion("c".into()),
            CoreError::InvalidConnection { reason: "r".into() },
            CoreError::ActivationImpossible { reason: "r".into() },
            CoreError::Propagation { reason: "r".into() },
        ];
        for v in variants {
            assert!(!format!("{v}").is_empty());
        }
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
