//! Kill-and-resume smoke: the constrained c432 campaign is interrupted by
//! a step-quota cancel token, checkpointed to disk, resumed from the
//! snapshot, and the resumed report is compared **byte for byte** against
//! the uninterrupted one.  Exits non-zero on any divergence.
//!
//! Run with `cargo run --release --example checkpoint_resume`; the PPSFP
//! block width follows `MSATPG_WORD_WIDTH` (the CI matrix runs 1 and 8),
//! and the printed lines are the same at every width.

use std::time::Duration;

use msatpg::conversion::constraints::thermometer_codes;
use msatpg::conversion::FlashAdc;
use msatpg::core::digital_atpg::DigitalAtpg;
use msatpg::core::store::{load_checkpoint, save_report};
use msatpg::core::{CheckpointPolicy, ConverterBlock};
use msatpg::digital::benchmarks;
use msatpg::digital::fault::FaultList;
use msatpg::exec::CancelToken;
use msatpg::MixedCircuit;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let digital = benchmarks::c432();
    let faults = FaultList::collapsed(&digital);

    // The Table-4 constrained setup: 15 digital inputs driven through a
    // flash converter, admitting thermometer codes only.
    let analog = msatpg::analog::filters::fifth_order_chebyshev();
    let converter = ConverterBlock::Flash(FlashAdc::uniform(15, 4.0)?);
    let mut mixed = MixedCircuit::new("c432-mixed", analog, converter, digital.clone());
    mixed.connect_randomly(1995)?;
    let lines = mixed.constrained_inputs();
    let codes = thermometer_codes(15);

    let engine = || -> Result<DigitalAtpg<'_>, Box<dyn std::error::Error>> {
        Ok(DigitalAtpg::new(&digital).with_constraints(&lines, &codes)?)
    };

    let dir = std::env::temp_dir().join(format!("msatpg-resume-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;

    // The uninterrupted reference campaign.
    let mut reference = engine()?.run(&faults)?;
    reference.cpu = Duration::ZERO;
    let reference_path = dir.join("uninterrupted.report");
    save_report(&reference_path, &digital, &reference)?;
    println!(
        "uninterrupted: {}/{} detected, {} vectors",
        reference.detected,
        reference.total_faults,
        reference.vector_count()
    );

    // The "kill": a step quota cancels the campaign after 25 targeted
    // faults; the checkpoint journal snapshots every outcome, including
    // the aborted tail.
    let checkpoint_path = dir.join("campaign.ckpt");
    let interrupted = engine()?
        .with_cancel_token(CancelToken::with_step_quota(25))
        .with_checkpoint(CheckpointPolicy::default(), &checkpoint_path)
        .run(&faults)?;
    println!(
        "interrupted:   {} aborted of {} (step quota fired)",
        interrupted.aborted_count(),
        interrupted.total_faults
    );
    if interrupted.aborted_count() == 0 {
        return Err("the step quota never fired; nothing was interrupted".into());
    }

    // The resume: journaled outcomes replay, aborted faults re-attempt.
    let snapshot = load_checkpoint(&checkpoint_path, &digital, faults.faults())?;
    println!(
        "checkpoint:    {} journaled outcomes loaded",
        snapshot.outcomes.len()
    );
    let mut resumed = engine()?.with_resume(snapshot).run(&faults)?;
    resumed.cpu = Duration::ZERO;
    let resumed_path = dir.join("resumed.report");
    save_report(&resumed_path, &digital, &resumed)?;
    println!(
        "resumed:       {}/{} detected, {} vectors",
        resumed.detected,
        resumed.total_faults,
        resumed.vector_count()
    );

    let reference_bytes = std::fs::read(&reference_path)?;
    let resumed_bytes = std::fs::read(&resumed_path)?;
    std::fs::remove_dir_all(&dir).ok();
    if reference_bytes == resumed_bytes {
        println!("OK: resumed report is byte-identical to the uninterrupted one");
        Ok(())
    } else {
        Err("resumed report differs from the uninterrupted one".into())
    }
}
