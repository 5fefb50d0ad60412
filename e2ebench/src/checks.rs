//! Output checks run on every pass: re-simulation of the digital vectors,
//! equality with the serial reference pass, and the committed expected
//! values at the default seed.

use std::fmt::Write as _;
use std::time::Instant;

use msatpg::core::digital_atpg::AtpgReport;
use msatpg::core::{AnalogTestEntry, AnalogTestOutcome};
use msatpg::digital::FaultSimulator;

use crate::workloads::{Inputs, PassOutput, Workload};

/// Committed expected output of each workload at the default seed, as
/// rendered by [`render`].
pub fn expected(workload: Workload) -> &'static str {
    match workload {
        Workload::BoardWorstcase => include_str!("../expected/board_worstcase.txt"),
        Workload::IscasCampaign => include_str!("../expected/iscas_campaign.txt"),
        Workload::IscasNoDrop => include_str!("../expected/iscas_no_drop.txt"),
    }
}

/// The outcome of checking one pass.
#[derive(Default)]
pub struct Verdict {
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Faults the pass aborted (each counts as a failed operation).
    pub aborted: usize,
    /// Time spent in `FaultSimulator::run` re-simulating the vectors.
    pub verify_s: f64,
    /// Patterns those runs simulated.
    pub patterns: usize,
}

/// Re-simulates every vector with fault dropping off: each must detect its
/// own target fault, and together they must detect exactly `detected`
/// faults of the campaign's fault list.
pub fn resimulate(inputs: &Inputs, out: &PassOutput, verdict: &mut Verdict) {
    for campaign in &out.digital {
        let circuit = &inputs.circuits[campaign.circuit];
        let netlist = circuit.mixed().digital();
        let report = &campaign.report;
        verdict.aborted += report.aborted_count();
        let patterns: Vec<Vec<bool>> = report.vectors.iter().map(|v| v.concretize(false)).collect();
        let sim = FaultSimulator::new(netlist).with_fault_dropping(false);
        let start = Instant::now();
        let result = sim.run(&circuit.faults, &patterns);
        verdict.verify_s += start.elapsed().as_secs_f64();
        verdict.patterns += patterns.len();
        let label = label(inputs, campaign.circuit, campaign.constrained);
        match result {
            Ok(result) if result.detected().len() == report.detected => {}
            Ok(result) => verdict.problems.push(format!(
                "{label}: vectors detect {} faults, report claims {}",
                result.detected().len(),
                report.detected
            )),
            Err(e) => verdict
                .problems
                .push(format!("{label}: re-simulation failed: {e}")),
        }
        for (vector, pattern) in report.vectors.iter().zip(&patterns) {
            if !sim.detects(vector.fault, pattern).unwrap_or(false) {
                verdict.problems.push(format!(
                    "{label}: vector {} misses its target {}",
                    vector.to_pattern_string(),
                    vector.fault.describe(netlist)
                ));
            }
        }
    }
}

fn same_report(a: &AtpgReport, b: &AtpgReport) -> bool {
    // `cpu` is wall-clock time and excluded.
    a.circuit == b.circuit
        && a.total_faults == b.total_faults
        && a.detected == b.detected
        && a.untestable == b.untestable
        && a.degraded == b.degraded
        && a.aborted == b.aborted
        && a.vectors == b.vectors
        && a.constrained == b.constrained
}

/// Entry equality that takes the NaN deviation of an element without a
/// test as equal to itself.
fn same_analog(a: &[AnalogTestEntry], b: &[AnalogTestEntry]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.element == y.element
                && x.parameter == y.parameter
                && x.deviation.to_bits() == y.deviation.to_bits()
                && x.direction == y.direction
                && x.outcome == y.outcome
        })
}

/// Exact equality with the reference pass (serial, first of the run).
pub fn same_as_reference(out: &PassOutput, reference: &PassOutput, verdict: &mut Verdict) {
    let digital_same = out.digital.len() == reference.digital.len()
        && out.digital.iter().zip(&reference.digital).all(|(a, b)| {
            a.circuit == b.circuit
                && a.constrained == b.constrained
                && same_report(&a.report, &b.report)
        });
    let checks = [
        ("digital reports", digital_same),
        ("deviation rows", out.deviations == reference.deviations),
        (
            "analog entries",
            same_analog(&out.analog, &reference.analog),
        ),
        ("conversion entries", out.conversion == reference.conversion),
    ];
    for (what, same) in checks {
        if !same {
            verdict
                .problems
                .push(format!("{what} differ from the serial reference pass"));
        }
    }
}

fn label(inputs: &Inputs, circuit: usize, constrained: bool) -> String {
    let kind = if constrained {
        "constrained"
    } else {
        "unconstrained"
    };
    format!("{} {kind}", inputs.circuits[circuit].mixed().name())
}

/// Percent at the precision the paper's tables print (0.1 %).
fn percent(fraction: Option<f64>) -> String {
    fraction.map_or_else(|| "-".to_owned(), |d| format!("{:.1}", d * 100.0))
}

/// Renders what the expected values pin: per digital campaign its fault
/// count, coverage, vector count and untestable set; deviation rows, analog
/// entries and conversion entries at 0.1 % precision.
pub fn render(inputs: &Inputs, out: &PassOutput) -> String {
    let mut text = String::new();
    for c in &out.digital {
        let r = &c.report;
        let netlist = inputs.circuits[c.circuit].mixed().digital();
        let untestable: Vec<String> = r.untestable.iter().map(|f| f.describe(netlist)).collect();
        let _ = writeln!(
            text,
            "digital {}: faults {} detected {} coverage {:.6} vectors {} untestable [{}]",
            label(inputs, c.circuit, c.constrained),
            r.total_faults,
            r.detected,
            r.coverage(),
            r.vector_count(),
            untestable.join(", ")
        );
    }
    for row in &out.deviations {
        let _ = writeln!(
            text,
            "deviation {} {}: {}",
            row.parameter,
            row.element,
            percent(row.detectable_deviation)
        );
    }
    for e in &out.analog {
        let outcome = match &e.outcome {
            AnalogTestOutcome::Tested(v) => format!(
                "tested at comparator {} observed at output {}",
                v.comparator, v.observed_output
            ),
            AnalogTestOutcome::Failed(why) => format!("failed {why:?}"),
        };
        let deviation = (e.deviation.is_finite()).then_some(e.deviation);
        let _ = writeln!(
            text,
            "analog {} via {}: {} {:?} {}",
            e.element,
            e.parameter,
            percent(deviation),
            e.direction,
            outcome
        );
    }
    for (i, e) in &out.conversion {
        let comparator = e
            .comparator
            .map_or_else(|| "-".to_owned(), |k| k.to_string());
        let _ = writeln!(
            text,
            "conversion {} R{}: comparator {} deviation {}",
            inputs.circuits[*i].mixed().name(),
            e.resistor,
            comparator,
            percent(e.detectable_deviation)
        );
    }
    text
}

/// Compares the rendering with the committed expected values and names the
/// first differing line.
pub fn matches_expected(rendered: &str, expected: &str, verdict: &mut Verdict) {
    if rendered == expected {
        return;
    }
    let first = rendered
        .lines()
        .zip(expected.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| rendered.lines().count().min(expected.lines().count()));
    verdict.problems.push(format!(
        "output differs from the expected values at line {}: got `{}`, expected `{}`",
        first + 1,
        rendered.lines().nth(first).unwrap_or("<end>"),
        expected.lines().nth(first).unwrap_or("<end>")
    ));
}
