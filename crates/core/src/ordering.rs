//! Variable-ordering policy for the digital OBDD engines: static
//! construction orders computed from the netlist (for [`DigitalAtpg`]), and
//! the dynamic reordering (sifting) knob threaded through [`DigitalAtpg`]
//! and honoured by [`PropagationEngine`].
//!
//! OBDD size is notoriously order-sensitive — the paper's backtrack-free
//! generator inherits whatever order the primary inputs were declared in,
//! which is fine for the hand-ordered benchmark netlists but pathological
//! when a netlist arrives with an adversarial input order.  Two
//! complementary defenses live here:
//!
//! * **static orders** ([`StaticOrder`], [`pi_order`]): a one-shot
//!   pre-construction pass that permutes the *declaration* order of the
//!   primary inputs.  `FaninDfs` clusters inputs that feed the same output
//!   cone (the classic fan-in heuristic); `Force` runs the
//!   hypergraph-span-minimizing FORCE iteration of Aloul/Markov/Sakallah
//!   with each gate as one hyperedge.  `Reversed` exists for benchmarks
//!   and tests that need a deliberately bad seed order;
//! * **dynamic reordering** ([`DvoMode`]): Rudell sifting on the live
//!   arena (see `msatpg_bdd::reorder`), applied at deterministic
//!   construction-time safe points so that reports stay byte-identical
//!   across thread counts.  The default honors the [`DVO_ENV_VAR`]
//!   environment variable, mirroring the `MSATPG_WORD_WIDTH` knob.
//!
//! Both defenses preserve the paper's contract that the composite variable
//! `D` sits *last* in the construction order: static orders only permute
//! the external primary inputs (declared before `D`, and before the
//! constrained lines the propagation engine declares last), and sifting
//! happens before any per-fault work consumes the order.
//!
//! [`DigitalAtpg`]: crate::DigitalAtpg
//! [`PropagationEngine`]: crate::PropagationEngine

use msatpg_digital::netlist::{Netlist, SignalId};

/// Environment variable consulted by [`DvoMode::Auto`]; accepts `never`
/// (the default) or `until-convergence`.  Any other value is ignored.
pub const DVO_ENV_VAR: &str = "MSATPG_DVO";

/// Upper bound on FORCE iterations; the iteration stops earlier as soon as
/// the total hyperedge span stops improving.
const FORCE_ITERATIONS: usize = 16;

/// Dynamic-variable-ordering knob of the digital OBDD engines.
///
/// When active, the engine runs sifting-until-convergence on its manager at
/// a deterministic construction-time safe point (after the signal functions
/// and the constraint BDD are built and protected).  Reordering never
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

/// Static primary-input ordering heuristics (see [`pi_order`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum StaticOrder {
    /// Netlist declaration order — the paper's order, and the default.
    #[default]
    Declaration,
    /// Depth-first preorder over the output cones: walk each primary
    /// output's fan-in cone depth-first and list the primary inputs in
    /// first-visit order.  Inputs feeding the same cone end up adjacent,
    /// which is the classic fan-in ordering heuristic for circuit BDDs.
    FaninDfs,
    /// FORCE (Aloul/Markov/Sakallah): iterative center-of-gravity placement
    /// over the gate hypergraph, minimizing the total span of gate
    /// hyperedges.  Span-minimal orders keep connected signals at nearby
    /// levels, which bounds the width of the intermediate BDDs.
    Force,
    /// Declaration order reversed — a deliberately bad seed order used by
    /// the `bdd_reorder` benchmarks and the reordering tests.
    Reversed,
}

/// Computes the declaration order of the primary inputs under `order`.
///
/// The result is a permutation of `netlist.primary_inputs()`, deterministic
/// for a given netlist (ties always break toward declaration order).
pub fn pi_order(netlist: &Netlist, order: StaticOrder) -> Vec<SignalId> {
    match order {
        StaticOrder::Declaration => netlist.primary_inputs().to_vec(),
        StaticOrder::Reversed => {
            let mut pis = netlist.primary_inputs().to_vec();
            pis.reverse();
            pis
        }
        StaticOrder::FaninDfs => fanin_dfs_order(netlist),
        StaticOrder::Force => force_order(netlist),
    }
}

/// Depth-first preorder over the output cones; unreached inputs (not in any
/// output cone) are appended in declaration order.
fn fanin_dfs_order(netlist: &Netlist) -> Vec<SignalId> {
    let mut visited = vec![false; netlist.signal_count()];
    let mut pis = Vec::new();
    let mut stack: Vec<SignalId> = Vec::new();
    for &po in netlist.primary_outputs() {
        stack.push(po);
        while let Some(s) = stack.pop() {
            if std::mem::replace(&mut visited[s.index()], true) {
                continue;
            }
            match netlist.driver(s) {
                Some(gate) => {
                    // Push in reverse so the gate's first input is visited
                    // first (left-to-right preorder).
                    for &input in gate.inputs.iter().rev() {
                        stack.push(input);
                    }
                }
                None => pis.push(s),
            }
        }
    }
    for &pi in netlist.primary_inputs() {
        if !visited[pi.index()] {
            pis.push(pi);
        }
    }
    // Non-input sources (e.g. constant drivers) are not primary inputs;
    // keep only genuine PIs, preserving first-visit order.
    pis.retain(|&s| netlist.is_primary_input(s));
    pis
}

/// Total span of the gate hyperedges under the placement `pos`: for each
/// gate, `max(pos of pins) - min(pos of pins)`, summed over all gates.
fn total_span(netlist: &Netlist, pos: &[f64]) -> f64 {
    let mut span = 0.0;
    for gate in netlist.gates() {
        let mut lo = pos[gate.output.index()];
        let mut hi = lo;
        for &input in &gate.inputs {
            let p = pos[input.index()];
            lo = lo.min(p);
            hi = hi.max(p);
        }
        span += hi - lo;
    }
    span
}

/// FORCE placement: every signal is a vertex, every gate (inputs ∪ output)
/// a hyperedge.  Each iteration moves every vertex to the mean
/// center-of-gravity of its incident hyperedges, then re-ranks positions to
/// integers; the iteration keeps the best placement seen and stops when the
/// total span stops improving.
fn force_order(netlist: &Netlist) -> Vec<SignalId> {
    let n = netlist.signal_count();
    let mut pos: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut best_pos = pos.clone();
    let mut best_span = total_span(netlist, &pos);
    for _ in 0..FORCE_ITERATIONS {
        let mut sum = vec![0.0f64; n];
        let mut degree = vec![0u32; n];
        for gate in netlist.gates() {
            let pins = gate.inputs.len() + 1;
            let mut cog = pos[gate.output.index()];
            for &input in &gate.inputs {
                cog += pos[input.index()];
            }
            cog /= pins as f64;
            sum[gate.output.index()] += cog;
            degree[gate.output.index()] += 1;
            for &input in &gate.inputs {
                sum[input.index()] += cog;
                degree[input.index()] += 1;
            }
        }
        for i in 0..n {
            if degree[i] > 0 {
                pos[i] = sum[i] / f64::from(degree[i]);
            }
        }
        // Re-rank to integer positions (ties break toward signal index, so
        // the placement — and the induced input order — is deterministic).
        let mut ranked: Vec<usize> = (0..n).collect();
        ranked.sort_by(|&a, &b| pos[a].total_cmp(&pos[b]).then(a.cmp(&b)));
        for (rank, &i) in ranked.iter().enumerate() {
            pos[i] = rank as f64;
        }
        let span = total_span(netlist, &pos);
        if span < best_span {
            best_span = span;
            best_pos = pos.clone();
        } else {
            break;
        }
    }
    let mut pis = netlist.primary_inputs().to_vec();
    pis.sort_by(|&a, &b| {
        best_pos[a.index()]
            .total_cmp(&best_pos[b.index()])
            .then(a.index().cmp(&b.index()))
    });
    pis
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
            for order in [
                StaticOrder::Declaration,
                StaticOrder::FaninDfs,
                StaticOrder::Force,
                StaticOrder::Reversed,
            ] {
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
    fn force_improves_reversed_adder_span() {
        // On the ripple-carry adder the declaration order is near-optimal;
        // FORCE must at least recover a span no worse than the reversed
        // (pathological) placement.
        let netlist = circuits::adder4();
        let n = netlist.signal_count();
        let placement_span = |order: &[SignalId]| {
            // Extend the PI placement to all signals by declaration index so
            // spans are comparable.
            let mut pos: Vec<f64> = (0..n).map(|i| i as f64).collect();
            for (rank, &pi) in order.iter().enumerate() {
                pos[pi.index()] = rank as f64 - n as f64; // PIs first
            }
            total_span(&netlist, &pos)
        };
        let force = pi_order(&netlist, StaticOrder::Force);
        let reversed = pi_order(&netlist, StaticOrder::Reversed);
        assert!(placement_span(&force) <= placement_span(&reversed));
    }

    #[test]
    fn fanin_dfs_clusters_cone_inputs() {
        // figure3: Vo1's cone is walked first, so its inputs lead the order.
        let netlist = circuits::figure3_circuit();
        let pis = pi_order(&netlist, StaticOrder::FaninDfs);
        assert!(is_permutation_of_pis(&netlist, &pis));
        let first_po_cone = netlist.fanin_support(netlist.primary_outputs()[0]);
        let lead = pis[0];
        assert!(
            first_po_cone.contains(&lead),
            "first-listed input must belong to the first output cone"
        );
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
