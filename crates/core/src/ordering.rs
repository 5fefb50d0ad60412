//! Variable-ordering policy for the digital OBDD engines: the dynamic
//! reordering (sifting) knob threaded through [`DigitalAtpg`] and honoured
//! by [`PropagationEngine`], plus the static primary-input orders the
//! benchmarks use to seed a deliberately bad order.
//!
//! OBDD size is notoriously order-sensitive — the paper's backtrack-free
//! generator inherits whatever order the primary inputs were declared in,
//! which is fine for the hand-ordered benchmark netlists but pathological
//! when a netlist arrives with an adversarial input order.
//!
//! * **static orders** ([`StaticOrder`], [`pi_order`]): a permutation of
//!   the primary inputs' *declaration* order.  `Declaration` is the
//!   paper's order; `Reversed` exists for benchmarks that need a
//!   deliberately bad seed order;
//! * **dynamic reordering** ([`DvoMode`]): Rudell sifting on the live
//!   arena (see `msatpg_bdd::reorder`), applied at deterministic
//!   construction-time safe points so that reports stay byte-identical
//!   across thread counts.  The default honors the [`DVO_ENV_VAR`]
//!   environment variable, mirroring the `MSATPG_WORD_WIDTH` knob.
//!
//! Sifting preserves the paper's contract that the composite variable `D`
//! sits *last* in the construction order: it happens before any per-fault
//! work consumes the order.
//!
//! [`DigitalAtpg`]: crate::DigitalAtpg
//! [`PropagationEngine`]: crate::PropagationEngine

use msatpg_digital::netlist::{Netlist, SignalId};

/// Environment variable consulted by [`DvoMode::Auto`]; accepts `never`
/// (the default) or `until-convergence`.  Any other value is ignored.
pub const DVO_ENV_VAR: &str = "MSATPG_DVO";

/// Dynamic-variable-ordering knob of the digital OBDD engines.
///
/// When active, the engine runs sifting-until-convergence on its manager at
/// a deterministic construction-time safe point (after every signal
/// function and the constraint BDD are built and protected).  Reordering never
/// renumbers handles or `VarId`s — only the var↔level permutation moves —
/// so everything downstream (cube extraction, PPSFP cross-checks, reports)
/// is unaffected except for memory footprint.  Results are *equivalent*
/// across modes (same coverage, same outcome taxonomy) but not
/// byte-identical: a different order yields different satisfying cubes.
/// Within one mode, reports remain byte-identical across thread counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DvoMode {
    /// Honor [`DVO_ENV_VAR`] (`MSATPG_DVO=never/until-convergence`); never
    /// reorder when unset or malformed.  This is the default.
    #[default]
    Auto,
    /// Keep the declaration order — the pre-reordering behavior.
    Never,
    /// Sift to convergence at the construction-time safe point.
    UntilConvergence,
}

impl DvoMode {
    /// Resolves [`DvoMode::Auto`] against the environment; `Never` and
    /// `UntilConvergence` pass through unchanged.
    pub fn resolve(self) -> DvoMode {
        match self {
            DvoMode::Auto => match std::env::var(DVO_ENV_VAR) {
                Ok(v) if v.eq_ignore_ascii_case("until-convergence") => DvoMode::UntilConvergence,
                _ => DvoMode::Never,
            },
            other => other,
        }
    }

    /// Whether the resolved mode asks for reordering.
    pub fn is_active(self) -> bool {
        self.resolve() == DvoMode::UntilConvergence
    }
}

/// Static primary-input orders (see [`pi_order`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum StaticOrder {
    /// Netlist declaration order — the paper's order, and the default.
    #[default]
    Declaration,
    /// Declaration order reversed — a deliberately bad seed order used by
    /// the `bdd_reorder` benchmarks and the reordering tests.
    Reversed,
}

/// Computes the declaration order of the primary inputs under `order`.
///
/// The result is a permutation of `netlist.primary_inputs()`.
pub fn pi_order(netlist: &Netlist, order: StaticOrder) -> Vec<SignalId> {
    match order {
        StaticOrder::Declaration => netlist.primary_inputs().to_vec(),
        StaticOrder::Reversed => {
            let mut pis = netlist.primary_inputs().to_vec();
            pis.reverse();
            pis
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msatpg_digital::{benchmarks, circuits};

    fn is_permutation_of_pis(netlist: &Netlist, order: &[SignalId]) -> bool {
        let mut sorted: Vec<_> = order.iter().map(|s| s.index()).collect();
        sorted.sort_unstable();
        let mut expected: Vec<_> = netlist.primary_inputs().iter().map(|s| s.index()).collect();
        expected.sort_unstable();
        sorted == expected
    }

    #[test]
    fn every_heuristic_permutes_the_inputs() {
        for netlist in [
            circuits::figure3_circuit(),
            benchmarks::c432(),
            circuits::adder4(),
        ] {
            for order in [StaticOrder::Declaration, StaticOrder::Reversed] {
                let pis = pi_order(&netlist, order);
                assert!(
                    is_permutation_of_pis(&netlist, &pis),
                    "{order:?} must permute the PIs of {}",
                    netlist.name()
                );
            }
        }
    }

    #[test]
    fn declaration_and_reversed_are_mirror_images() {
        let netlist = benchmarks::c432();
        let mut fwd = pi_order(&netlist, StaticOrder::Declaration);
        let rev = pi_order(&netlist, StaticOrder::Reversed);
        fwd.reverse();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn dvo_mode_resolution() {
        assert_eq!(DvoMode::Never.resolve(), DvoMode::Never);
        assert_eq!(
            DvoMode::UntilConvergence.resolve(),
            DvoMode::UntilConvergence
        );
        assert!(!DvoMode::Never.is_active());
        assert!(DvoMode::UntilConvergence.is_active());
        // Auto resolves to one of the two concrete modes.
        assert_ne!(DvoMode::Auto.resolve(), DvoMode::Auto);
    }
}
