//! # msatpg — Automatic Test Vector Generation for Mixed-Signal Circuits
//!
//! A Rust reproduction of *Ayari, BenHamida & Kaminska, "Automatic Test
//! Vector Generation for Mixed-Signal Circuits", DATE 1995*.
//!
//! The paper's flow tests a mixed circuit of the form **analog block → A/D
//! conversion block → digital block** as a single entity:
//!
//! 1. sensitivity / worst-case analysis selects, per analog element, the
//!    measurable parameter that detects its smallest deviation
//!    ([`analog`]);
//! 2. a backtrack-free OBDD-based stuck-at ATPG generates digital test
//!    vectors that additionally satisfy the constraint function `Fc` imposed
//!    by the conversion block ([`core::digital_atpg`], [`bdd`]);
//! 3. analog faults are activated by choosing a sine stimulus `(A, f)` that
//!    flips at least one comparator of the conversion block, and the
//!    resulting composite `D`/`D̄` value is propagated to a primary output
//!    through the digital block by the same OBDD engine
//!    ([`core::activation`], [`core::DigitalAtpg::try_propagate`]).
//!
//! This facade crate re-exports the whole workspace under one name.  See the
//! `examples/` directory for runnable end-to-end scenarios and the
//! `msatpg-bench` crate for the binaries that regenerate every table and
//! figure of the paper.
//!
//! ```
//! use msatpg::analog::filters;
//! use msatpg::analog::sensitivity::WorstCaseAnalysis;
//!
//! // Example 1 of the paper: the second-order band-pass filter.  Restrict
//! // the analysis to the two gain parameters to keep the example fast.
//! let filter = filters::second_order_band_pass();
//! let gains = &filter.parameters()[..2];
//! let report = WorstCaseAnalysis::new(filter.circuit(), gains)
//!     .with_parameter_tolerance(0.05)
//!     .with_worst_case(false)
//!     .run()
//!     .expect("analysis succeeds");
//! assert!(!report.rows().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Ordered binary decision diagrams (re-export of [`msatpg_bdd`]).
pub mod bdd {
    pub use msatpg_bdd::*;
}

/// Analog circuit simulation, sensitivity analysis and analog test selection
/// (re-export of [`msatpg_analog`]).
pub mod analog {
    pub use msatpg_analog::*;
}

/// Gate-level digital netlists, fault models and simulation (re-export of
/// [`msatpg_digital`]).
pub mod digital {
    pub use msatpg_digital::*;
}

/// A/D conversion block models (re-export of [`msatpg_conversion`]).
pub mod conversion {
    pub use msatpg_conversion::*;
}

/// The mixed-signal ATPG itself (re-export of [`msatpg_core`]).
pub mod core {
    pub use msatpg_core::*;
}

/// Worker pool and execution policies shared by every parallel loop in the
/// workspace (re-export of [`msatpg_exec`]).
pub mod exec {
    pub use msatpg_exec::*;
}

pub use msatpg_core::{MixedCircuit, MixedSignalAtpg, TestPlan};
