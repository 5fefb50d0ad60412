//! Per-layer measurements of the traced run.  Each times calls into one
//! layer from outside, on the workload's own circuits.

use std::collections::HashSet;
use std::time::Instant;

use msatpg::analog::mna::Mna;
use msatpg::analog::params::measure_with_mna;
use msatpg::analog::sensitivity::normalized_sensitivity_with_mna;
use msatpg::core::{AnalogAtpg, ExecPolicy, WorkerPool};

use crate::checks::Verdict;
use crate::workloads::{Inputs, PassOutput, Workload};
use crate::Res;

/// Relative deviation of the unit probe (the threshold search probes
/// deviations of this order).
const PROBE_DEVIATION: f64 = 0.1;
/// Probes per (parameter, element) pair.
const PROBES_PER_PAIR: usize = 3;

pub struct AnalogLayer {
    pub sensitivity_s: f64,
    pub probe_us: f64,
    pub solves_per_probe: f64,
    pub factorizations_per_probe: f64,
    pub assemblies_per_probe: f64,
}

/// `msatpg-analog` unit costs on the workload's analog block: the masking
/// sensitivities over every (parameter, element) pair, and the
/// `set_value` + `measure_with_mna` + restore probe that the threshold
/// search repeats (mean over all pairs), each pair on a freshly stamped
/// engine.
pub fn analog(inputs: &Inputs) -> Res<AnalogLayer> {
    let filter = inputs.circuits[0].mixed().analog();
    let circuit = filter.circuit();
    let mut sensitivity_s = 0.0;
    let (mut probe_s, mut probes) = (0.0, 0usize);
    let (mut solves, mut factorizations, mut assemblies) = (0u64, 0u64, 0u64);
    for spec in filter.parameters() {
        for element in circuit.passive_elements() {
            let mna = Mna::new(circuit);
            measure_with_mna(&mna, spec)?;
            let start = Instant::now();
            normalized_sensitivity_with_mna(&mna, spec, element, 0.01)?;
            sensitivity_s += start.elapsed().as_secs_f64();
            let base = mna.value(element);
            for _ in 0..PROBES_PER_PAIR {
                let before = mna.solver_stats();
                let start = Instant::now();
                mna.set_value(element, base * (1.0 + PROBE_DEVIATION));
                let value = measure_with_mna(&mna, spec);
                mna.set_value(element, base);
                probe_s += start.elapsed().as_secs_f64();
                probes += 1;
                value?;
                let after = mna.solver_stats();
                solves += after.solves - before.solves;
                factorizations += after.factorizations - before.factorizations;
                assemblies += after.assemblies - before.assemblies;
            }
        }
    }
    let probes = probes as f64;
    Ok(AnalogLayer {
        sensitivity_s,
        probe_us: probe_s * 1e6 / probes,
        solves_per_probe: solves as f64 / probes,
        factorizations_per_probe: factorizations as f64 / probes,
        assemblies_per_probe: assemblies as f64 / probes,
    })
}

#[derive(Default)]
pub struct BddLayer {
    pub peak_live_nodes: usize,
    pub created_nodes: u64,
    pub gc_runs: u64,
    pub gc_reclaimed: u64,
    pub apply_hits: u64,
    pub apply_lookups: u64,
}

/// `msatpg-bdd` counters: re-runs each digital campaign of the reference
/// pass serially on an engine built as the stage builds it, and reads
/// `DigitalAtpg::manager().stats()` afterwards.  Each re-run must reproduce
/// the reference report.
pub fn bdd(inputs: &Inputs, reference: &PassOutput, verdict: &mut Verdict) -> Res<BddLayer> {
    let serial = WorkerPool::new(ExecPolicy::Serial);
    let dropping = inputs.workload != Workload::IscasNoDrop;
    let mut layer = BddLayer::default();
    for campaign in &reference.digital {
        let c = &inputs.circuits[campaign.circuit];
        let mut engine = if campaign.constrained {
            c.constrained_engine(dropping)?
        } else {
            c.unconstrained_engine()
        };
        let report = engine.run_on(&serial, &c.faults)?;
        if report.vectors != campaign.report.vectors
            || report.untestable != campaign.report.untestable
        {
            verdict.problems.push(format!(
                "{}: traced campaign differs from the reference",
                report.circuit
            ));
        }
        let stats = engine.manager().stats();
        layer.peak_live_nodes = layer.peak_live_nodes.max(stats.peak_live_nodes);
        layer.created_nodes += stats.created_nodes;
        layer.gc_runs += stats.gc_runs;
        layer.gc_reclaimed += stats.gc_reclaimed;
        layer.apply_hits += stats.apply_cache.hits;
        layer.apply_lookups += stats.apply_cache.lookups;
    }
    Ok(layer)
}

pub struct Derivations {
    pub derivations: usize,
    pub faults: usize,
    /// `try_generate` time of each derived fault, in microseconds.
    pub fault_us: Vec<f64>,
}

/// `core::digital_atpg` derivation cost: `try_generate` timed on exactly the
/// faults of the reference pass that reached a derivation (vectors,
/// untestable, degraded and aborted), in fault-list order, on a fresh
/// engine per campaign built as the stage builds it.
pub fn derivations(inputs: &Inputs, reference: &PassOutput) -> Res<Derivations> {
    let mut out = Derivations {
        derivations: 0,
        faults: 0,
        fault_us: Vec::new(),
    };
    for campaign in &reference.digital {
        let c = &inputs.circuits[campaign.circuit];
        let r = &campaign.report;
        let derived: HashSet<_> = r
            .vectors
            .iter()
            .map(|v| v.fault)
            .chain(r.untestable.iter().copied())
            .chain(r.degraded.iter().copied())
            .chain(r.aborted.iter().map(|(f, _)| *f))
            .collect();
        out.derivations +=
            r.vector_count() + r.untestable_count() + r.degraded_count() + r.aborted_count();
        out.faults += r.total_faults;
        let mut engine = if campaign.constrained {
            c.constrained_engine(true)?
        } else {
            c.unconstrained_engine()
        };
        for &fault in c.faults.faults().iter().filter(|f| derived.contains(f)) {
            let start = Instant::now();
            std::hint::black_box(engine.try_generate(fault)?);
            out.fault_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(out)
}

/// `msatpg-conversion` + `propagation`: the comparator propagation study
/// over the workload's circuits, and how many comparators it finds usable.
pub fn conversion_study(inputs: &Inputs) -> Res<(f64, usize)> {
    let serial = WorkerPool::new(ExecPolicy::Serial);
    let mut study_s = 0.0;
    let mut usable = 0;
    for c in &inputs.circuits {
        let start = Instant::now();
        let study = AnalogAtpg::new(c.mixed()).comparator_propagation_study_on(&serial)?;
        study_s += start.elapsed().as_secs_f64();
        usable += study.iter().filter(|&&(d, dbar)| d || dbar).count();
    }
    Ok((study_s, usable))
}
