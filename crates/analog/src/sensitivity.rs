//! Sensitivity and worst-case element-deviation analysis (§2.1 of the paper).
//!
//! For every pair *(parameter T, element x)* the analysis computes the
//! smallest relative deviation of *x* that is guaranteed to push *T* out of
//! its tolerance box — the **element deviation** (E.D.) reported in
//! Example 1, Table 3 and Table 8 of the paper.  In worst-case mode, all
//! other (fault-free) elements are allowed to sit anywhere inside their own
//! tolerance, partially masking the fault, exactly as the paper's
//! "worst element tolerance" computation.
//!
//! ## Threshold search
//!
//! Each *(parameter, element)* row searches both deviation directions.
//! Each direction first brackets its threshold: deviations
//! `1 %, 1.6 %, 2.56 %, …` up to the search cap (−99.9 % downwards) are
//! probed until one leaves the box.  The row reports the larger of the two
//! directional thresholds, so a direction is refined only while its
//! bracket can still decide that maximum.  Refinement is a safeguarded
//! Illinois (modified regula falsi) iteration on `effect(d) − threshold`,
//! the crate's one root finder: `illinois` in this module, which the
//! cut-off search of [`crate::response`] shares, run to f64 resolution of
//! `ln f` instead of to a relative width.
//! It keeps a bracket `(a, b]` with `a` inside the box and `b` outside.  A
//! step takes the secant point of the bracket ends, halving the retained
//! end's value when the same end is kept twice in a row.  It bisects
//! instead when the secant point is not strictly inside the bracket or
//! when two steps in a row failed to halve the bracket.  It stops once
//! `b − a ≤ 10⁻¹⁰·b` ([`THRESHOLD_RELATIVE_TOLERANCE`], far below the
//! 0.1 % the tables print) and keeps `b`, a deviation on the detecting
//! side.  The row reports the larger `b` times `1 + 10⁻¹⁰`.  That
//! one-tolerance guard band keeps the verdict at the reported deviation
//! clear of round-off: the iteration can end with `b` within 10⁻¹⁶ of the
//! crossing, where a differently factored solve of the same circuit may
//! land on either side.

use msatpg_exec::{ExecPolicy, WorkerPool};

use crate::mna::Mna;
use crate::netlist::{Circuit, ElementId};
use crate::params::{measure_with_mna, ParameterSpec};
use crate::tolerance::{relative_deviation, Tolerance};
use crate::AnalogError;

/// Relative width at which the threshold refinement stops: the refined
/// bracket `(a, b]` satisfies `b − a ≤ 10⁻¹⁰·b`, with `a` inside the box
/// and `b` outside; the reported deviation is `b·(1 + 10⁻¹⁰)`.
pub const THRESHOLD_RELATIVE_TOLERANCE: f64 = 1e-10;

/// Relative gap below which [`DeviationReport::ranked_rows`] treats two
/// detectable deviations as the same threshold.
pub const RANKING_TIE_TOLERANCE: f64 = 1e-6;

/// Normalized sensitivity `S = (∂T/T) / (∂x/x)` of a parameter with respect
/// to an element value, estimated by central finite differences.
///
/// # Errors
///
/// Propagates measurement errors.
pub fn normalized_sensitivity(
    circuit: &Circuit,
    spec: &ParameterSpec,
    element: ElementId,
    step: f64,
) -> Result<f64, AnalogError> {
    let mna = Mna::new(circuit);
    normalized_sensitivity_with_mna(&mna, spec, element, step)
}

/// Like [`normalized_sensitivity`], but probes an existing MNA engine by
/// setting the element value up and down instead of cloning and re-stamping
/// the circuit twice.  The engine is restored to its current value on
/// return.
///
/// # Errors
///
/// Propagates measurement errors.
pub fn normalized_sensitivity_with_mna(
    mna: &Mna<'_>,
    spec: &ParameterSpec,
    element: ElementId,
    step: f64,
) -> Result<f64, AnalogError> {
    let nominal = measure_with_mna(mna, spec)?;
    if nominal == 0.0 {
        return Ok(0.0);
    }
    let base = mna.value(element);
    mna.set_value(element, base * (1.0 + step));
    let t_up = measure_with_mna(mna, spec);
    mna.set_value(element, base * (1.0 - step));
    let t_down = measure_with_mna(mna, spec);
    mna.set_value(element, base);
    Ok(((t_up? - t_down?) / nominal) / (2.0 * step))
}

/// One row of a [`DeviationReport`]: the detectable deviation of one element
/// through one parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviationRow {
    /// Parameter name.
    pub parameter: String,
    /// Element name.
    pub element: String,
    /// Element id in the analyzed circuit.
    pub element_id: ElementId,
    /// Smallest guaranteed-detectable relative deviation (fraction), or
    /// `None` when no deviation up to the search cap moves the parameter out
    /// of its tolerance box (the `0` / dashed entries of the paper's tables).
    pub detectable_deviation: Option<f64>,
}

/// Result of a [`WorstCaseAnalysis`] run: the full parameter × element
/// deviation matrix.
#[derive(Clone, Debug, Default)]
pub struct DeviationReport {
    rows: Vec<DeviationRow>,
    parameters: Vec<String>,
    elements: Vec<(ElementId, String)>,
}

impl DeviationReport {
    /// All rows (one per parameter × element pair).
    pub fn rows(&self) -> &[DeviationRow] {
        &self.rows
    }

    /// Parameter names, in analysis order.
    pub fn parameters(&self) -> &[String] {
        &self.parameters
    }

    /// Analyzed elements as `(id, name)` pairs.
    pub fn elements(&self) -> &[(ElementId, String)] {
        &self.elements
    }

    /// Looks up the detectable deviation for a `(parameter, element)` pair.
    pub fn deviation(&self, parameter: &str, element: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.parameter == parameter && r.element == element)
            .and_then(|r| r.detectable_deviation)
    }

    /// The rows whose parameter detects `element`, most sensitive first
    /// (smallest detectable deviation).  Deviations within
    /// [`RANKING_TIE_TOLERANCE`] of the smallest one of their group count as
    /// the same threshold and keep parameter order, so numerical noise
    /// never decides which parameter ranks first.
    pub fn ranked_rows(&self, element: &str) -> Vec<&DeviationRow> {
        let mut ranked: Vec<(usize, f64)> = self
            .rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.element == element)
            .filter_map(|(i, r)| r.detectable_deviation.map(|d| (i, d)))
            .collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        // Rows are stored in parameter order, so within a tied group the
        // row index is the parameter order.
        let mut rest = &mut ranked[..];
        while let Some(&(_, least)) = rest.first() {
            let tied = rest
                .iter()
                .take_while(|&&(_, d)| d - least <= RANKING_TIE_TOLERANCE * least.abs())
                .count()
                .max(1);
            let (group, tail) = rest.split_at_mut(tied);
            group.sort_by_key(|&(i, _)| i);
            rest = tail;
        }
        ranked.iter().map(|&(i, _)| &self.rows[i]).collect()
    }

    /// The element coverage: for each element, the minimum detectable
    /// deviation over all parameters (`None` if no parameter detects it).
    pub fn element_coverage(&self) -> Vec<(String, Option<f64>)> {
        self.elements
            .iter()
            .map(|(_, name)| {
                let best = self
                    .rows
                    .iter()
                    .filter(|r| &r.element == name)
                    .filter_map(|r| r.detectable_deviation)
                    .fold(f64::INFINITY, f64::min);
                (
                    name.clone(),
                    if best.is_finite() { Some(best) } else { None },
                )
            })
            .collect()
    }

    /// Renders the matrix as a plain-text table with deviations in percent
    /// (the layout of Equation 1 / Table 3 in the paper).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<8}", ""));
        for (_, e) in &self.elements {
            out.push_str(&format!("{e:>9}"));
        }
        out.push('\n');
        for p in &self.parameters {
            out.push_str(&format!("{p:<8}"));
            for (_, e) in &self.elements {
                let cell = match self.deviation(p, e) {
                    Some(d) => format!("{:.1}", d * 100.0),
                    None => "-".to_owned(),
                };
                out.push_str(&format!("{cell:>9}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Worst-case element-deviation analysis.
///
/// # Example
///
/// ```
/// use msatpg_analog::filters;
/// use msatpg_analog::sensitivity::WorstCaseAnalysis;
///
/// let filter = filters::second_order_band_pass();
/// let report = WorstCaseAnalysis::new(filter.circuit(), filter.parameters())
///     .with_parameter_tolerance(0.05)
///     .run()
///     .unwrap();
/// // The center-frequency gain A1 of the Tow-Thomas band-pass depends only
/// // on Rd and Rg.
/// assert!(report.deviation("A1", "Rd").is_some());
/// assert!(report.deviation("A1", "R1").is_none());
/// ```
pub struct WorstCaseAnalysis<'a> {
    circuit: &'a Circuit,
    parameters: &'a [ParameterSpec],
    parameter_tolerance: Tolerance,
    element_tolerance: Tolerance,
    worst_case: bool,
    max_deviation: f64,
    elements: Option<Vec<ElementId>>,
    policy: ExecPolicy,
}

impl<'a> WorstCaseAnalysis<'a> {
    /// Creates an analysis of `circuit` over the given parameter set with the
    /// paper's defaults (±5 % parameter and element tolerances, worst-case
    /// masking enabled, deviations searched up to 500 %).
    pub fn new(circuit: &'a Circuit, parameters: &'a [ParameterSpec]) -> Self {
        WorstCaseAnalysis {
            circuit,
            parameters,
            parameter_tolerance: Tolerance::default(),
            element_tolerance: Tolerance::default(),
            worst_case: true,
            max_deviation: 5.0,
            elements: None,
            policy: ExecPolicy::Serial,
        }
    }

    /// Sets the execution policy: deviation rows are independent, so they
    /// are distributed over the worker pool.  An MNA engine's answers depend
    /// only on the element values it currently holds, so every row is a
    /// pure function of the inputs whichever worker's engine probes it —
    /// `Threads(n)` output is byte-identical to `Serial` for every `n`
    /// (asserted by the determinism suite).
    pub fn with_policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the parameter tolerance box (fraction, e.g. `0.05`).
    pub fn with_parameter_tolerance(mut self, fraction: f64) -> Self {
        self.parameter_tolerance = Tolerance::from_fraction(fraction);
        self
    }

    /// Sets the fault-free element tolerance used for worst-case masking.
    pub fn with_element_tolerance(mut self, fraction: f64) -> Self {
        self.element_tolerance = Tolerance::from_fraction(fraction);
        self
    }

    /// Enables or disables worst-case masking by fault-free elements
    /// (disabled = "nominal" mode, all other elements at nominal value).
    pub fn with_worst_case(mut self, enabled: bool) -> Self {
        self.worst_case = enabled;
        self
    }

    /// Sets the largest relative deviation searched (fraction).
    pub fn with_max_deviation(mut self, fraction: f64) -> Self {
        self.max_deviation = fraction;
        self
    }

    /// Restricts the analysis to a subset of elements (default: all passive
    /// elements).
    pub fn with_elements(mut self, elements: Vec<ElementId>) -> Self {
        self.elements = Some(elements);
        self
    }

    /// Runs the analysis.
    ///
    /// The parameters' nominal values are measured first, on one engine on
    /// the calling thread.  Then every *(parameter, element)* pair gets its
    /// masking sensitivity (worst-case mode only) and, in a second pass, its
    /// row's threshold search (see the [module docs](self)).  Both passes run on the worker pool under the
    /// configured [`ExecPolicy`], one pair per work unit, with one MNA
    /// engine per worker.  That engine serves every pair the worker claims,
    /// so its cached nominal factorizations are shared by all rows and
    /// parameters.  An engine's answers depend only on the element values it
    /// currently holds, so the report does not depend on the policy or on
    /// the scheduling order.  Results merge back in `(parameter, element)`
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates measurement errors (singular matrices, unknown nodes,
    /// missing response features): the first failing nominal measurement,
    /// else the first failing sensitivity, else the first failing row, in
    /// `(parameter, element)` order.
    pub fn run(&self) -> Result<DeviationReport, AnalogError> {
        self.run_on(&WorkerPool::new(self.policy))
    }

    /// Like [`WorstCaseAnalysis::run`], but rides a caller-provided
    /// [`WorkerPool`] so a larger flow (the mixed-signal ATPG) charges the
    /// deviation rows to the same pool as its other stages.
    ///
    /// # Errors
    ///
    /// Same conditions as [`WorstCaseAnalysis::run`].
    pub fn run_on(&self, pool: &WorkerPool) -> Result<DeviationReport, AnalogError> {
        let elements = match &self.elements {
            Some(e) => e.clone(),
            None => self.circuit.passive_elements(),
        };
        let element_names: Vec<(ElementId, String)> = elements
            .iter()
            .map(|&id| (id, self.circuit.element(id).name.clone()))
            .collect();
        // One engine for every nominal, so a shared sweep grid is factored
        // once; it is dropped before the workers build theirs.
        let nominals = {
            let mna = Mna::new(self.circuit);
            self.parameters
                .iter()
                .map(|spec| measure_with_mna(&mna, spec))
                .collect::<Result<Vec<f64>, AnalogError>>()?
        };
        let pairs: Vec<(usize, usize)> = (0..self.parameters.len())
            .flat_map(|p| (0..elements.len()).map(move |e| (p, e)))
            .collect();
        // First-order masking margins contributed by fault-free elements:
        // Σ_{j≠faulty} |S_j| · tol_element.  The sensitivities depend only
        // on (parameter, element), so compute each once and derive every
        // row's margin from the parameter's shared total.
        let sensitivities = if self.worst_case {
            self.per_pair(pool, &pairs, |mna, p, e| {
                if nominals[p] == 0.0 {
                    return Ok(0.0);
                }
                normalized_sensitivity_with_mna(mna, &self.parameters[p], elements[e], 0.01)
            })?
        } else {
            vec![0.0; pairs.len()]
        };
        let sensitivity = |p: usize, e: usize| sensitivities[p * elements.len() + e].abs();
        let totals: Vec<f64> = (0..self.parameters.len())
            .map(|p| (0..elements.len()).map(|e| sensitivity(p, e)).sum())
            .collect();
        let rows = self.per_pair(pool, &pairs, |mna, p, e| {
            let spec = &self.parameters[p];
            let mask = (totals[p] - sensitivity(p, e)) * self.element_tolerance.fraction();
            let detectable =
                self.minimum_detectable_deviation(mna, spec, elements[e], nominals[p], mask)?;
            Ok(DeviationRow {
                parameter: spec.name.clone(),
                element: element_names[e].1.clone(),
                element_id: elements[e],
                detectable_deviation: detectable,
            })
        })?;
        Ok(DeviationReport {
            rows,
            parameters: self.parameters.iter().map(|p| p.name.clone()).collect(),
            elements: element_names,
        })
    }

    /// Evaluates `f(engine, parameter, element)` for every pair on the pool,
    /// one pair per work unit and one MNA engine per worker, and returns the
    /// results in pair order (or the first error in that order).
    fn per_pair<R: Send>(
        &self,
        pool: &WorkerPool,
        pairs: &[(usize, usize)],
        f: impl Fn(&Mna<'_>, usize, usize) -> Result<R, AnalogError> + Sync,
    ) -> Result<Vec<R>, AnalogError> {
        let chunks = pool.run_chunks(
            pairs,
            1,
            || Mna::new(self.circuit),
            |mna, _, _, chunk| {
                chunk
                    .iter()
                    .map(|&(p, e)| f(mna, p, e))
                    .collect::<Result<Vec<R>, AnalogError>>()
            },
        );
        let mut out = Vec::with_capacity(pairs.len());
        for chunk in chunks {
            out.extend(chunk?);
        }
        Ok(out)
    }

    /// Finds the smallest deviation (searched in both directions) whose
    /// effect on the parameter exceeds `tolerance + mask`.  Returns the
    /// *larger* of the two directional thresholds so that any deviation of
    /// that magnitude is detectable regardless of sign; `None` when either
    /// direction stays inside the box up to the cap.  Only the brackets
    /// that can decide the maximum are refined.
    fn minimum_detectable_deviation(
        &self,
        mna: &Mna<'_>,
        spec: &ParameterSpec,
        element: ElementId,
        nominal: f64,
        mask: f64,
    ) -> Result<Option<f64>, AnalogError> {
        let threshold = self.parameter_tolerance.fraction() + mask;
        let base = mna.value(element);
        // How far the parameter lands outside the box (> 0: detected) under
        // a signed relative deviation of the element.
        let excess = |deviation: f64| -> Result<f64, AnalogError> {
            mna.set_value(element, base * (1.0 + deviation));
            let value = measure_with_mna(mna, spec);
            mna.set_value(element, base);
            Ok(relative_deviation(value?, nominal).abs() - threshold)
        };
        let Some(up) = self.bracket(&excess, 1.0, threshold)? else {
            return Ok(None);
        };
        let Some(down) = self.bracket(&excess, -1.0, threshold)? else {
            return Ok(None);
        };
        let (first, second) = if down.hi > up.hi {
            (down, up)
        } else {
            (up, down)
        };
        let mut t = refine(&excess, first)?;
        // The second threshold lies in (lo, hi]: only a bracket reaching
        // past `t` can raise the maximum.
        if second.hi > t {
            t = t.max(refine(&excess, second)?);
        }
        // One tolerance of guard band (see the module docs).
        Ok(Some(t * (1.0 + THRESHOLD_RELATIVE_TOLERANCE)))
    }

    /// Exponential bracketing of one direction's threshold: probes
    /// deviations `1 %, 1.6 %, 2.56 %, …` up to the search cap and returns
    /// the first step that leaves the box, or `None` if none does.
    fn bracket(
        &self,
        excess: &impl Fn(f64) -> Result<f64, AnalogError>,
        sign: f64,
        threshold: f64,
    ) -> Result<Option<Bracket>, AnalogError> {
        // The undeviated element sits exactly on the nominal value.
        let (mut lo, mut excess_lo) = (0.0f64, -threshold);
        let mut hi = 0.01f64;
        while hi <= self.max_deviation {
            // Negative deviations cannot exceed -100 % (element value would
            // go non-positive); clamp the search there.
            let last = sign < 0.0 && hi >= 0.999;
            if last {
                hi = 0.999;
            }
            let excess_hi = excess(sign * hi)?;
            if excess_hi > 0.0 {
                return Ok(Some(Bracket {
                    sign,
                    lo,
                    excess_lo,
                    hi,
                    excess_hi,
                }));
            }
            if last {
                break;
            }
            (lo, excess_lo) = (hi, excess_hi);
            hi *= 1.6;
        }
        Ok(None)
    }
}

/// One direction's threshold bracket `(lo, hi]` (deviation magnitudes):
/// `lo` stays inside the box, `hi` leaves it; `excess_*` are the measured
/// excesses over the box at the two ends.
#[derive(Clone, Copy, Debug)]
struct Bracket {
    sign: f64,
    lo: f64,
    excess_lo: f64,
    hi: f64,
    excess_hi: f64,
}

/// Refines a bracket down to [`THRESHOLD_RELATIVE_TOLERANCE`] with
/// [`illinois`] and returns the detecting end `b`.
fn refine(
    excess: &impl Fn(f64) -> Result<f64, AnalogError>,
    bracket: Bracket,
) -> Result<f64, AnalogError> {
    let Bracket {
        sign,
        lo,
        excess_lo,
        hi,
        excess_hi,
    } = bracket;
    illinois(
        |c| excess(sign * c),
        (lo, excess_lo),
        (hi, excess_hi),
        Until::Width(THRESHOLD_RELATIVE_TOLERANCE),
    )
}

/// When [`illinois`] stops, and what it returns.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Until {
    /// Once the bracket is no wider than this fraction of `b`; returns `b`.
    /// A secant point that is not strictly inside the bracket is replaced
    /// by the midpoint.
    Width(f64),
    /// At f64 resolution: once the secant point is not strictly inside the
    /// bracket, it returns the end that point rounded onto.
    Resolution,
}

/// Safeguarded Illinois (modified regula falsi) iteration for a root of `h`
/// in the bracket `a < b`, given `fa = h(a) ≤ 0` and `fb = h(b) ≥ 0`, so
/// the ends cost no evaluation.  Returns the root as [`Until`] says.
///
/// A step takes the secant point of the bracket ends, halving the retained
/// end's value when the same end is kept twice in a row.  It bisects
/// instead when two steps in a row failed to halve the bracket, and — with
/// [`Until::Width`] — when the secant point is not strictly inside the
/// bracket.  A point with `h > 0` replaces `b`, any other replaces `a`.
pub(crate) fn illinois(
    mut h: impl FnMut(f64) -> Result<f64, AnalogError>,
    (mut a, mut fa): (f64, f64),
    (mut b, mut fb): (f64, f64),
    until: Until,
) -> Result<f64, AnalogError> {
    // Which end the previous step replaced (+1: `b`, −1: `a`, 0: none).
    let mut replaced = 0i8;
    // Steps since the bracket last halved, and its width then.
    let (mut stalled, mut halved_width) = (0u32, b - a);
    loop {
        let secant = b - fb * (b - a) / (fb - fa);
        let inside = secant > a && secant < b;
        let c = match until {
            Until::Width(tolerance) if b - a <= tolerance * b => break,
            Until::Resolution if !inside => return Ok(if secant >= b { b } else { a }),
            _ if stalled < 2 && inside => secant,
            _ => 0.5 * (a + b),
        };
        let fc = h(c)?;
        if fc > 0.0 {
            (b, fb) = (c, fc);
            if replaced == 1 {
                fa *= 0.5;
            }
            replaced = 1;
        } else {
            (a, fa) = (c, fc);
            if replaced == -1 {
                fb *= 0.5;
            }
            replaced = -1;
        }
        if b - a <= 0.5 * halved_width {
            (stalled, halved_width) = (0, b - a);
        } else {
            stalled += 1;
        }
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;
    use crate::params::{ParameterKind, ParameterSpec};

    /// A resistive divider: Vout = Vin · R2/(R1+R2); DC gain = 0.5 nominal.
    fn divider() -> Circuit {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.voltage_source("Vin", vin, Circuit::GROUND, 0.0, 1.0);
        c.resistor("R1", vin, vout, 10.0e3);
        c.resistor("R2", vout, Circuit::GROUND, 10.0e3);
        c
    }

    fn dc_spec() -> ParameterSpec {
        ParameterSpec::new("Adc", ParameterKind::DcGain, "Vin", "vout")
    }

    #[test]
    fn normalized_sensitivity_of_divider() {
        let c = divider();
        let spec = dc_spec();
        let r1 = c.find_element("R1").unwrap();
        let r2 = c.find_element("R2").unwrap();
        // d(R2/(R1+R2))/dR1 · R1/T = -R1/(R1+R2) = -0.5 at R1 = R2.
        let s1 = normalized_sensitivity(&c, &spec, r1, 0.001).unwrap();
        let s2 = normalized_sensitivity(&c, &spec, r2, 0.001).unwrap();
        assert!((s1 + 0.5).abs() < 1e-3, "S(R1) = {s1}");
        assert!((s2 - 0.5).abs() < 1e-3, "S(R2) = {s2}");
    }

    #[test]
    fn nominal_mode_threshold_matches_analytic_value() {
        // In nominal mode (no masking), a 5 % box on the gain and sensitivity
        // 0.5 means the detectable deviation is about 10 % (slightly more in
        // the + direction because the function saturates).
        let c = divider();
        let specs = vec![dc_spec()];
        let report = WorstCaseAnalysis::new(&c, &specs)
            .with_worst_case(false)
            .run()
            .unwrap();
        let d = report.deviation("Adc", "R2").expect("detectable");
        assert!(d > 0.08 && d < 0.15, "detectable deviation {d}");
    }

    #[test]
    fn worst_case_mode_requires_larger_deviation_than_nominal() {
        let c = divider();
        let specs = vec![dc_spec()];
        let nominal = WorstCaseAnalysis::new(&c, &specs)
            .with_worst_case(false)
            .run()
            .unwrap();
        let worst = WorstCaseAnalysis::new(&c, &specs)
            .with_worst_case(true)
            .run()
            .unwrap();
        let dn = nominal.deviation("Adc", "R1").unwrap();
        let dw = worst.deviation("Adc", "R1").unwrap();
        assert!(
            dw > dn,
            "worst-case threshold {dw} must exceed nominal threshold {dn}"
        );
    }

    #[test]
    fn independent_element_is_not_detectable() {
        // Add a resistor that does not influence the divider output at DC
        // (dangling branch to a capacitor).
        let mut c = divider();
        let vout = c.find_node("vout").unwrap();
        let extra = c.node("extra");
        c.resistor("R3", vout, extra, 1.0e3);
        c.capacitor("C1", extra, Circuit::GROUND, 1.0e-9);
        let specs = vec![dc_spec()];
        let report = WorstCaseAnalysis::new(&c, &specs).run().unwrap();
        assert_eq!(report.deviation("Adc", "R3"), None);
        let coverage = report.element_coverage();
        let r3 = coverage.iter().find(|(n, _)| n == "R3").unwrap();
        assert_eq!(r3.1, None);
        let r1 = coverage.iter().find(|(n, _)| n == "R1").unwrap();
        assert!(r1.1.is_some());
    }

    #[test]
    fn parallel_rows_are_bit_identical_to_serial() {
        let c = divider();
        let specs = vec![dc_spec()];
        let reference = WorstCaseAnalysis::new(&c, &specs)
            .with_worst_case(true)
            .run()
            .unwrap();
        for threads in [1usize, 2, 8] {
            let parallel = WorstCaseAnalysis::new(&c, &specs)
                .with_worst_case(true)
                .with_policy(ExecPolicy::Threads(threads))
                .run()
                .unwrap();
            // DeviationRow derives PartialEq over exact f64 values: this is
            // bit-identity, not tolerance equality.
            assert_eq!(parallel.rows(), reference.rows(), "{threads} threads");
            assert_eq!(parallel.parameters(), reference.parameters());
            assert_eq!(parallel.elements(), reference.elements());
        }
    }

    #[test]
    fn ranking_breaks_near_ties_by_parameter_order() {
        let element = ElementId(0);
        let row = |parameter: &str, d: Option<f64>| DeviationRow {
            parameter: parameter.to_owned(),
            element: "R1".to_owned(),
            element_id: element,
            detectable_deviation: d,
        };
        let report = DeviationReport {
            rows: vec![
                row("A", Some(0.2)),
                row("B", Some(0.1 + 1e-15)),
                row("C", None),
                row("D", Some(0.1)),
                row("E", Some(0.1 * (1.0 + 1e-3))),
                row("F", Some(0.1 * (1.0 + 5e-7))),
            ],
            parameters: ["A", "B", "C", "D", "E", "F"].map(String::from).to_vec(),
            elements: vec![(element, "R1".to_owned())],
        };
        let ranked: Vec<&str> = report
            .ranked_rows("R1")
            .iter()
            .map(|r| r.parameter.as_str())
            .collect();
        assert_eq!(ranked, ["B", "D", "F", "E", "A"]);
        assert!(report.ranked_rows("R2").is_empty());
    }

    #[test]
    fn report_table_renders() {
        let c = divider();
        let specs = vec![dc_spec()];
        let report = WorstCaseAnalysis::new(&c, &specs)
            .with_worst_case(false)
            .run()
            .unwrap();
        let table = report.to_table();
        assert!(table.contains("Adc"));
        assert!(table.contains("R1"));
        assert_eq!(report.parameters(), &["Adc".to_owned()]);
        assert_eq!(report.elements().len(), 2);
        assert_eq!(report.rows().len(), 2);
    }
}
