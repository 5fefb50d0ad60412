//! Acceptance tests of dynamic variable ordering (this PR's headline
//! scenario): on the constrained c432 campaign, `DvoMode::Never` and
//! `DvoMode::UntilConvergence` produce *equivalent* reports — identical
//! fault coverage and outcome taxonomy, every vector re-verified through
//! the PPSFP fault simulator.  A campaign checkpointed under one
//! mode resumes byte-identically under the same mode and equivalently
//! under the other (the journaled prefix replays verbatim; only the
//! recomputed tail feels the order).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use msatpg::conversion::constraints::{thermometer_codes, AllowedCodes};
use msatpg::conversion::FlashAdc;
use msatpg::core::digital_atpg::{AbortReason, AtpgReport, DigitalAtpg};
use msatpg::core::store::load_checkpoint;
use msatpg::core::{CheckpointPolicy, ConverterBlock, DvoMode};
use msatpg::digital::benchmarks;
use msatpg::digital::fault::FaultList;
use msatpg::digital::fault_sim::FaultSimulator;
use msatpg::digital::netlist::{Netlist, SignalId};
use msatpg::exec::CancelToken;
use msatpg::MixedCircuit;

/// A unique scratch path under the system temp directory.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "msatpg-dvo-{}-{tag}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn assert_reports_identical(a: &AtpgReport, b: &AtpgReport, context: &str) {
    assert_eq!(a.circuit, b.circuit, "{context}: circuit");
    assert_eq!(a.total_faults, b.total_faults, "{context}: total_faults");
    assert_eq!(a.detected, b.detected, "{context}: detected");
    assert_eq!(a.untestable, b.untestable, "{context}: untestable");
    assert_eq!(a.degraded, b.degraded, "{context}: degraded");
    assert_eq!(a.aborted, b.aborted, "{context}: aborted");
    assert_eq!(a.vectors, b.vectors, "{context}: vectors");
    assert_eq!(a.constrained, b.constrained, "{context}: constrained");
}

/// The Table-4 constrained setup shared by both tests: c432 with 15 inputs
/// driven through a flash converter admitting thermometer codes only.
fn constrained_c432() -> (Netlist, Vec<SignalId>, AllowedCodes) {
    let digital = benchmarks::c432();
    let analog = msatpg::analog::filters::fifth_order_chebyshev();
    let converter = ConverterBlock::Flash(FlashAdc::uniform(15, 4.0).unwrap());
    let mut mixed = MixedCircuit::new("c432-mixed", analog, converter, digital.clone());
    mixed.connect_randomly(1995).unwrap();
    let lines = mixed.constrained_inputs();
    (digital, lines, thermometer_codes(15))
}

/// Replays every vector of `report` through the PPSFP fault simulator and
/// returns the detected fault set (sorted).  Campaign vectors all satisfy
/// `Fc`, so this set must be exactly "every fault that is not untestable"
/// — independently of which cubes the variable order happened to pick.
fn ppsfp_replayed_coverage(
    digital: &Netlist,
    faults: &FaultList,
    report: &AtpgReport,
) -> Vec<msatpg::digital::fault::StuckAtFault> {
    let patterns: Vec<Vec<bool>> = report.vectors.iter().map(|v| v.concretize(false)).collect();
    let mut detected = FaultSimulator::new(digital)
        .run(faults, &patterns)
        .unwrap()
        .detected()
        .to_vec();
    detected.sort();
    detected
}

/// `MSATPG_DVO=never` vs `until-convergence` on the constrained c432
/// campaign: identical covered-fault count, identical untestable set, no
/// governed outcomes in either, identical PPSFP-replayed coverage sets,
/// every vector of both campaigns confirmed by fault simulation.
#[test]
fn dvo_modes_produce_equivalent_constrained_reports() {
    let (digital, lines, codes) = constrained_c432();
    let faults = FaultList::collapsed(&digital);
    let engine = |dvo: DvoMode| -> DigitalAtpg<'_> {
        DigitalAtpg::new(&digital)
            .with_constraints(&lines, &codes)
            .unwrap()
            .with_dvo(dvo)
    };

    let never = engine(DvoMode::Never).run(&faults).unwrap();
    let sifted = engine(DvoMode::UntilConvergence).run(&faults).unwrap();

    // Identical outcome taxonomy: same covered-fault count, same
    // untestable faults, nothing degraded or aborted (no governance armed).
    assert_eq!(sifted.detected, never.detected, "covered-fault count");
    assert_eq!(sifted.untestable, never.untestable, "untestable fault set");
    assert!(never.degraded.is_empty() && sifted.degraded.is_empty());
    assert!(never.aborted.is_empty() && sifted.aborted.is_empty());

    // Every vector of both campaigns detects its fault under both
    // concretizations of the don't-care bits.
    let sim = FaultSimulator::new(&digital);
    for (tag, report) in [("never", &never), ("until-convergence", &sifted)] {
        for vector in &report.vectors {
            for filler in [false, true] {
                assert!(
                    sim.detects(vector.fault, &vector.concretize(filler))
                        .unwrap(),
                    "{tag}: vector for {} fails fault simulation",
                    vector.fault
                );
            }
        }
    }

    // The PPSFP-replayed coverage sets agree exactly: the modes pick
    // different cubes but cover the same faults.
    assert_eq!(
        ppsfp_replayed_coverage(&digital, &faults, &sifted),
        ppsfp_replayed_coverage(&digital, &faults, &never),
        "PPSFP-replayed coverage diverges between DVO modes"
    );
}

/// Checkpoint/resume crossover: a sifted campaign interrupted by a step
/// quota resumes byte-identically under the same mode, and
/// resuming the same snapshot under `DvoMode::Never` still produces an
/// equivalent report — the journaled prefix replays verbatim and the
/// recomputed tail covers the same faults with different cubes.
#[test]
fn dvo_checkpoint_resume_crossover() {
    let (digital, lines, codes) = constrained_c432();
    let faults = FaultList::collapsed(&digital);
    let engine = |dvo: DvoMode| -> DigitalAtpg<'_> {
        DigitalAtpg::new(&digital)
            .with_constraints(&lines, &codes)
            .unwrap()
            .with_dvo(dvo)
    };

    let reference = engine(DvoMode::UntilConvergence).run(&faults).unwrap();

    let path = scratch("crossover");
    let interrupted = engine(DvoMode::UntilConvergence)
        .with_cancel_token(CancelToken::with_step_quota(25))
        .with_checkpoint(CheckpointPolicy::default(), &path)
        .run(&faults)
        .unwrap();
    let deadline_tail = interrupted
        .aborted
        .iter()
        .filter(|(_, r)| *r == AbortReason::Deadline)
        .count();
    assert!(deadline_tail > 0, "the quota must actually interrupt");
    let snapshot = load_checkpoint(&path, &digital, faults.faults()).unwrap();
    std::fs::remove_file(&path).ok();

    // Same mode: byte-identical to the uninterrupted campaign.
    let resumed = engine(DvoMode::UntilConvergence)
        .with_resume(snapshot.clone())
        .run(&faults)
        .unwrap();
    assert_reports_identical(&resumed, &reference, "same-mode resume");

    // Crossed mode: equivalent taxonomy, same replayed coverage.
    let crossed = engine(DvoMode::Never)
        .with_resume(snapshot)
        .run(&faults)
        .unwrap();
    assert_eq!(crossed.detected, reference.detected, "crossover: detected");
    assert_eq!(
        crossed.untestable, reference.untestable,
        "crossover: untestable"
    );
    assert!(crossed.aborted.is_empty(), "crossover: nothing aborted");
    assert_eq!(
        ppsfp_replayed_coverage(&digital, &faults, &crossed),
        ppsfp_replayed_coverage(&digital, &faults, &reference),
        "crossover: replayed coverage diverges"
    );
}
