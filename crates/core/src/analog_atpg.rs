//! End-to-end test generation for analog faults in a mixed circuit:
//! activation through the conversion block, then propagation through the
//! digital block (§2.3 of the paper).

use msatpg_analog::fault::AnalogFault;
use msatpg_analog::mna::Mna;
use msatpg_analog::params::ParameterSpec;
use msatpg_analog::signal::SineStimulus;
use msatpg_analog::ElementId;
use msatpg_digital::fault_sim::{FaultCones, ObsMemo, PpsfpScratch};
use msatpg_digital::logic::Logic;
use msatpg_digital::netlist::SignalId;
use msatpg_digital::prng::SplitMix64;
use msatpg_digital::sim::{CompositeSimulator, Simulator};
use msatpg_exec::WorkerPool;

use crate::activation::{DeviationSign, StimulusTable};
use crate::digital_atpg::DigitalAtpg;
use crate::mixed_circuit::MixedCircuit;
use crate::CoreError;

/// Seed of the random external inputs of the comparator study's simulation
/// block.  Any seed gives the same study: a line the block leaves open is
/// decided by the OBDD query.
const STUDY_SEED: u64 = 0x5747_D1E5;

/// How [`AnalogAtpg::comparator_propagation_study_with_paths`] decided each
/// comparator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StudyPaths {
    /// Lines shown usable by a simulated pattern that propagates a flip to
    /// a primary output.
    pub witnessed: usize,
    /// Lines no simulated pattern propagated, decided by the OBDD query.
    pub proved: usize,
}

/// One element-test request for [`AnalogAtpg::test_elements`]: the
/// element, the injected deviation and the parameter ranking to try (most
/// sensitive first).
#[derive(Clone, Debug)]
pub struct ElementTestRequest {
    /// The analog element under test.
    pub element: ElementId,
    /// Signed relative deviation to inject (fraction).
    pub deviation: f64,
    /// Parameters to try, in ranking order.
    pub ranking: Vec<ParameterSpec>,
}

/// A complete test for an analog fault: the stimulus, the digital side
/// conditions and where the effect is observed.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalogTestVector {
    /// Sine stimulus applied at the analog primary input.
    pub stimulus: SineStimulus,
    /// Converter output (0-based) that carries the composite value.
    pub comparator: usize,
    /// The composite value on that line (`D` or `D̄`).
    pub composite: Logic,
    /// Values of the other constrained digital inputs under this stimulus
    /// (converter output order, the flipped line included with its
    /// fault-free value).
    pub constrained_code: Vec<bool>,
    /// Required values of the external digital inputs (`None` =
    /// don't-care).
    pub external_assignment: Vec<(SignalId, Option<bool>)>,
    /// Primary output (index) at which the effect is observed.
    pub observed_output: usize,
}

/// Why an analog fault could not be tested through the mixed circuit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalogTestFailure {
    /// No stimulus flips any conversion-block output for this deviation.
    ActivationFailed,
    /// A comparator flips but the effect cannot reach a primary output under
    /// the constraints.
    PropagationFailed,
}

/// The outcome of testing one analog element deviation.
#[derive(Clone, Debug, PartialEq)]
pub enum AnalogTestOutcome {
    /// A full test exists.
    Tested(AnalogTestVector),
    /// The deviation cannot be tested through the mixed circuit.
    Failed(AnalogTestFailure),
}

impl AnalogTestOutcome {
    /// Returns `true` when a test was found.
    pub fn is_tested(&self) -> bool {
        matches!(self, AnalogTestOutcome::Tested(_))
    }
}

/// One row of the analog test plan: an element, the parameter through which
/// it is tested and the result.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalogTestEntry {
    /// Name of the analog element.
    pub element: String,
    /// Name of the measured parameter.
    pub parameter: String,
    /// Relative deviation injected for the check (fraction).
    pub deviation: f64,
    /// Direction of the deviation.
    pub direction: DeviationSign,
    /// The outcome.
    pub outcome: AnalogTestOutcome,
}

/// The analog-fault test generator for one mixed circuit.
pub struct AnalogAtpg<'a> {
    circuit: &'a MixedCircuit,
    tolerance: f64,
}

impl<'a> AnalogAtpg<'a> {
    /// Creates the generator with the paper's ±5 % parameter tolerance.
    pub fn new(circuit: &'a MixedCircuit) -> Self {
        AnalogAtpg {
            circuit,
            tolerance: 0.05,
        }
    }

    /// Sets the parameter tolerance (fraction).
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// The Table-1 stimulus table of `parameters` at this generator's
    /// tolerance.
    fn stimulus_table<'p>(
        &self,
        parameters: impl IntoIterator<Item = &'p ParameterSpec>,
    ) -> StimulusTable {
        StimulusTable::measure(self.circuit.analog(), parameters, self.tolerance)
    }

    /// Attempts to generate a test for a deviation of `deviation` (signed
    /// fraction) on `element`, observed through `parameter`.
    ///
    /// The procedure follows the paper: choose a stimulus per Table 1 for
    /// each conversion-block output in turn, check that the output actually
    /// differs between the fault-free and the faulty circuit, then search for
    /// an external-input assignment that propagates the composite value to a
    /// primary output (see [`AnalogAtpg::propagate`]; `engine` is filled by
    /// the first attempt that activates a comparator and reused by every
    /// later one).
    ///
    /// Every (comparator, direction) attempt plans its stimulus from the
    /// parameter's entry in `table` and reads the fault-free output
    /// amplitude from it; the faulty circuit is solved once, at the entry's
    /// frequency, by the first attempt that has a plan.  "No test exists" is
    /// reported through [`AnalogTestOutcome::Failed`], not as an error.
    fn test_deviation_with(
        &self,
        engine: &mut Option<DigitalAtpg<'a>>,
        table: &StimulusTable,
        element: ElementId,
        deviation: f64,
        parameter: &ParameterSpec,
    ) -> Result<AnalogTestOutcome, CoreError> {
        let Some(entry) = table.entry(parameter) else {
            return Err(CoreError::ActivationImpossible {
                reason: format!(
                    "parameter '{}' is not in the stimulus table",
                    parameter.name
                ),
            });
        };
        // A parameter whose output node or measurement frequency cannot be
        // found cannot be activated in either direction at any comparator.
        let Ok(entry) = entry else {
            return Ok(AnalogTestOutcome::Failed(
                AnalogTestFailure::ActivationFailed,
            ));
        };
        // The sign of the element deviation does not determine the sign of
        // the parameter deviation (it depends on the sensitivity), so both
        // tolerance bounds are tried, exactly as the paper tests the upper
        // and the lower bound of every parameter.
        let preferred = if deviation >= 0.0 {
            DeviationSign::Above
        } else {
            DeviationSign::Below
        };
        let other = match preferred {
            DeviationSign::Above => DeviationSign::Below,
            DeviationSign::Below => DeviationSign::Above,
        };
        let mut faulty_gain = None;
        let mut any_activation = false;

        for (converter_output, line) in self.circuit.connections() {
            let Some(threshold) = self.circuit.converter().threshold(converter_output) else {
                continue;
            };
            for direction in [preferred, other] {
                // Table-1 stimulus selection for this comparator's reference.
                let Ok(plan) = entry.plan(direction, threshold) else {
                    continue;
                };
                // Numeric activation check: does this comparator really see
                // different values in the fault-free and the faulty circuit?
                let amp_good = plan.stimulus.amplitude * entry.output_gain.clone()?;
                let gain_faulty = match faulty_gain {
                    Some(gain) => gain,
                    None => *faulty_gain.insert(self.faulty_gain(
                        element,
                        deviation,
                        plan.stimulus.frequency_hz,
                    )?),
                };
                let amp_faulty = plan.stimulus.amplitude * gain_faulty;
                let code_good = self.circuit.converter().convert(amp_good);
                let code_faulty = self.circuit.converter().convert(amp_faulty);
                if code_good[converter_output] == code_faulty[converter_output] {
                    continue;
                }
                any_activation = true;
                let composite =
                    Logic::from_pair(code_good[converter_output], code_faulty[converter_output]);
                // Fix the other constrained lines to their fault-free values.
                let fixed: Vec<(SignalId, bool)> = self
                    .circuit
                    .connections()
                    .into_iter()
                    .filter(|&(other_output, _)| other_output != converter_output)
                    .map(|(other_output, other_line)| (other_line, code_good[other_output]))
                    .collect();
                if let Some((external_assignment, observed_output)) =
                    self.propagate(engine, line, composite, &fixed)?
                {
                    return Ok(AnalogTestOutcome::Tested(AnalogTestVector {
                        stimulus: plan.stimulus,
                        comparator: converter_output,
                        composite,
                        constrained_code: code_good,
                        external_assignment,
                        observed_output,
                    }));
                }
            }
        }
        Ok(AnalogTestOutcome::Failed(if any_activation {
            AnalogTestFailure::PropagationFailed
        } else {
            AnalogTestFailure::ActivationFailed
        }))
    }

    /// Gain of the filter's input-to-output path at `freq_hz` with
    /// `element` deviated by `deviation`, solved on a fresh engine of the
    /// faulty circuit.
    fn faulty_gain(
        &self,
        element: ElementId,
        deviation: f64,
        freq_hz: f64,
    ) -> Result<f64, CoreError> {
        let filter = self.circuit.analog();
        let faulty_circuit = AnalogFault::deviation(element, deviation).apply(filter.circuit());
        Mna::new(&faulty_circuit)
            .gain(filter.input_source(), filter.output_node(), freq_hz)
            .map_err(|e| CoreError::Analog(e.to_string()))
    }

    /// Propagates `composite` on `line` through the digital block with every
    /// `fixed` line at its value: the external assignment (the primary
    /// inputs neither fixed nor `line`, in primary-input order) and the
    /// index of the output that observes the effect.
    ///
    /// The OBDD query is [`DigitalAtpg::try_propagate`] on `engine`, an
    /// unconstrained generator of the digital block built on first need.
    /// The five-valued simulator then checks the answer independently: with
    /// don't-care externals at `0` and `composite` forced on `line`, the
    /// output must carry a fault effect.
    fn propagate(
        &self,
        engine: &mut Option<DigitalAtpg<'a>>,
        line: SignalId,
        composite: Logic,
        fixed: &[(SignalId, bool)],
    ) -> Result<Option<(Vec<(SignalId, Option<bool>)>, usize)>, CoreError> {
        let netlist = self.circuit.digital();
        let found = engine
            .get_or_insert_with(|| DigitalAtpg::new(netlist))
            .try_propagate(line, fixed)
            .map_err(|e| CoreError::Digital(e.to_string()))?;
        let Some((assignment, po_index)) = found else {
            return Ok(None);
        };
        let mut inputs = Vec::with_capacity(assignment.len());
        let mut external_assignment = Vec::new();
        for (&pi, value) in netlist.primary_inputs().iter().zip(assignment) {
            inputs.push(match fixed.iter().find(|&&(signal, _)| signal == pi) {
                Some(&(_, fixed_value)) => Logic::from(fixed_value),
                None if pi == line => Logic::X,
                None => {
                    external_assignment.push((pi, value));
                    Logic::from(value.unwrap_or(false))
                }
            });
        }
        let mut sim = CompositeSimulator::new(netlist);
        sim.force(line, composite);
        let observed = sim
            .run_outputs(&inputs)
            .map_err(|e| CoreError::Digital(e.to_string()))?[po_index];
        if !observed.is_fault_effect() {
            return Err(CoreError::Propagation {
                reason: format!(
                    "BDD search claimed propagation to output {po_index} but simulation observes {observed}"
                ),
            });
        }
        Ok(Some((external_assignment, po_index)))
    }

    /// Tests an element deviation through every parameter of the analog
    /// block (most-sensitive first according to `ranking`), returning the
    /// first parameter that yields a test, or the last failure (see
    /// [`AnalogAtpg::test_deviation_with`]).
    fn test_element_with(
        &self,
        engine: &mut Option<DigitalAtpg<'a>>,
        table: &StimulusTable,
        element: ElementId,
        deviation: f64,
        ranking: &[ParameterSpec],
    ) -> Result<AnalogTestEntry, CoreError> {
        let element_name = self
            .circuit
            .analog()
            .circuit()
            .element(element)
            .name
            .clone();
        let direction = if deviation >= 0.0 {
            DeviationSign::Above
        } else {
            DeviationSign::Below
        };
        let mut last_failure = AnalogTestOutcome::Failed(AnalogTestFailure::ActivationFailed);
        for parameter in ranking {
            let outcome = self.test_deviation_with(engine, table, element, deviation, parameter)?;
            if outcome.is_tested() {
                return Ok(AnalogTestEntry {
                    element: element_name,
                    parameter: parameter.name.clone(),
                    deviation: deviation.abs(),
                    direction,
                    outcome,
                });
            }
            last_failure = outcome;
        }
        Ok(AnalogTestEntry {
            element: element_name,
            parameter: ranking
                .last()
                .map(|p| p.name.clone())
                .unwrap_or_else(|| "-".to_owned()),
            deviation: deviation.abs(),
            direction,
            outcome: last_failure,
        })
    }

    /// Tests a batch of element deviations, in request order, on the
    /// calling thread: for each request, the first parameter of its ranking
    /// that yields a test, or the last failure.
    ///
    /// Table 1 is measured once per batch: one entry per distinct ranked
    /// parameter (measurement frequency, nominal and boundary gains,
    /// fault-free output gain), from which every stimulus and fault-free
    /// amplitude is planned.  Per (element, parameter), the faulty circuit
    /// is solved once, at the parameter's frequency; the OBDD engine of the
    /// digital block is built once, on the first activated comparator.
    ///
    /// # Errors
    ///
    /// Propagates the first simulator error in request order.
    pub fn test_elements(
        &self,
        requests: &[ElementTestRequest],
    ) -> Result<Vec<AnalogTestEntry>, CoreError> {
        let table = self.stimulus_table(requests.iter().flat_map(|r| &r.ranking));
        let mut engine = None;
        requests
            .iter()
            .map(|request| {
                self.test_element_with(
                    &mut engine,
                    &table,
                    request.element,
                    request.deviation,
                    &request.ranking,
                )
            })
            .collect()
    }

    /// The Table-5 study: for each conversion-block output, can a composite
    /// value on that line (other lines held at the adjacent thermometer
    /// code) be propagated to a primary output?  Returns, for each output,
    /// `(propagates_d, propagates_dbar)` — `D` corresponds to an amplitude
    /// deviation below the reference (`deviation less than x%` in the
    /// paper), `D̄` to one above it.
    ///
    /// The two columns are equal by construction, since
    /// `∂g(¬D)/∂D = ∂g(D)/∂D`; each comparator is asked once.
    ///
    /// Each comparator is first asked by simulation, with the stem-region
    /// PPSFP kernel of the fault simulator: one 64-pattern block with
    /// random external inputs, the other lines at the thermometer code, and
    /// the observability word of the comparator's line.  A set bit is a
    /// pattern under which flipping the line changes a primary output, that
    /// is, an external assignment under which an output depends on the
    /// line — exactly when the OBDD query finds a propagating assignment.
    /// Only a line the block leaves unobserved goes to the OBDD query
    /// ([`DigitalAtpg::try_propagate`] on one generator of the digital
    /// block, made on first need, which builds only the signal functions
    /// the queries read), which proves it usable or not.  The cones of the
    /// lines are compiled once per study.
    ///
    /// # Errors
    ///
    /// [`CoreError::Propagation`] if the five-valued simulation does not
    /// confirm an OBDD answer.
    pub fn comparator_propagation_study(&self) -> Result<Vec<(bool, bool)>, CoreError> {
        self.comparator_propagation_study_with_paths()
            .map(|(study, _)| study)
    }

    /// [`AnalogAtpg::comparator_propagation_study`], together with how many
    /// lines a simulation witness decided and how many the OBDD query did.
    ///
    /// # Errors
    ///
    /// As [`AnalogAtpg::comparator_propagation_study`].
    pub fn comparator_propagation_study_with_paths(
        &self,
    ) -> Result<(Vec<(bool, bool)>, StudyPaths), CoreError> {
        let netlist = self.circuit.digital();
        let lines: Vec<SignalId> = self
            .circuit
            .connections()
            .iter()
            .map(|&(_, line)| line)
            .collect();
        let cones = FaultCones::build(netlist, lines.iter().copied());
        let mut scratch: PpsfpScratch = PpsfpScratch::new(netlist);
        let mut memo = ObsMemo::new(&cones);
        let simulator = Simulator::new(netlist);
        let mut rng = SplitMix64::new(STUDY_SEED);
        // The comparator driving each primary input, if any.
        let driven_by: Vec<Option<usize>> = netlist
            .primary_inputs()
            .iter()
            .map(|&pi| lines.iter().position(|&l| l == pi))
            .collect();
        let mut good = vec![[0u64; 1]; netlist.signal_count()];
        let mut engine = None;
        let mut paths = StudyPaths::default();
        let study = (0..lines.len())
            .map(|idx| {
                // Fault-free code: thermometer with `idx + 1` ones (the input
                // amplitude sits just above this comparator's reference), so
                // lines below the flipped comparator are 1, above are 0.
                // The flipped line itself is free: its observability word
                // does not depend on its own value.
                for (&pi, &comparator) in netlist.primary_inputs().iter().zip(&driven_by) {
                    good[pi.index()] = match comparator {
                        Some(j) if j < idx => [u64::MAX],
                        Some(_) => [0],
                        None => [rng.next_u64()],
                    };
                }
                simulator.settle_blocks(&mut good);
                memo.clear();
                let [observed] = scratch.observability_block(
                    netlist,
                    &cones,
                    &mut memo,
                    lines[idx],
                    &good,
                    [u64::MAX],
                );
                if observed != 0 {
                    paths.witnessed += 1;
                    return Ok((true, true));
                }
                paths.proved += 1;
                let fixed: Vec<(SignalId, bool)> = lines
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != idx)
                    .map(|(j, &other_line)| (other_line, j < idx))
                    .collect();
                let propagates = self
                    .propagate(&mut engine, lines[idx], Logic::D, &fixed)?
                    .is_some();
                Ok((propagates, propagates))
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        Ok((study, paths))
    }

    /// [`AnalogAtpg::comparator_propagation_study`] with a pool argument
    /// kept for callers that thread one pool through every stage.  The
    /// study runs on the calling thread: one simulation block per
    /// comparator and at most one OBDD engine leave no work worth spreading.
    ///
    /// # Errors
    ///
    /// As [`AnalogAtpg::comparator_propagation_study`].
    pub fn comparator_propagation_study_on(
        &self,
        _pool: &WorkerPool,
    ) -> Result<Vec<(bool, bool)>, CoreError> {
        self.comparator_propagation_study()
    }
}

/// The per-attempt path the stimulus table replaced, kept as an oracle:
/// every (comparator, direction) attempt selects its stimulus from fresh
/// measurements and solves the fault-free and the faulty circuit afresh.
#[cfg(test)]
mod oracle {
    use msatpg_analog::fault::AnalogFault;
    use msatpg_analog::mna::Mna;
    use msatpg_analog::netlist::{Circuit, NodeId};
    use msatpg_analog::params::{ParameterKind, ParameterSpec};
    use msatpg_analog::response::ResponseAnalyzer;
    use msatpg_analog::signal::SineStimulus;
    use msatpg_analog::{AnalogError, ElementId, FilterCircuit};
    use msatpg_digital::logic::Logic;
    use msatpg_digital::netlist::SignalId;

    use super::{
        AnalogAtpg, AnalogTestEntry, AnalogTestFailure, AnalogTestOutcome, AnalogTestVector,
    };
    use crate::activation::{DeviationSign, StimulusPlan};
    use crate::digital_atpg::DigitalAtpg;
    use crate::CoreError;

    pub(super) fn measurement_frequency(
        filter: &FilterCircuit,
        parameter: &ParameterSpec,
    ) -> Result<f64, CoreError> {
        let output = parameter
            .output_node(filter.circuit())
            .map_err(|e| CoreError::Analog(e.to_string()))?;
        let analyzer = ResponseAnalyzer::new(filter.circuit(), &parameter.source, output)
            .with_sweep(parameter.sweep);
        let freq = match parameter.kind {
            ParameterKind::DcGain => 0.0,
            ParameterKind::AcGain { freq_hz } => freq_hz,
            ParameterKind::MaxGain | ParameterKind::CenterFrequency => analyzer
                .center_frequency()
                .map_err(|e| CoreError::Analog(e.to_string()))?,
            ParameterKind::LowCutoff => analyzer
                .low_cutoff()
                .map_err(|e| CoreError::Analog(e.to_string()))?,
            ParameterKind::HighCutoff => analyzer
                .high_cutoff()
                .map_err(|e| CoreError::Analog(e.to_string()))?,
        };
        Ok(freq)
    }

    pub(super) fn select_stimulus(
        filter: &FilterCircuit,
        parameter: &ParameterSpec,
        direction: DeviationSign,
        tolerance: f64,
        v_ref: f64,
    ) -> Result<StimulusPlan, CoreError> {
        let output = parameter
            .output_node(filter.circuit())
            .map_err(|e| CoreError::Analog(e.to_string()))?;
        let analyzer = ResponseAnalyzer::new(filter.circuit(), &parameter.source, output)
            .with_sweep(parameter.sweep);
        let freq = measurement_frequency(filter, parameter)?;
        let gain_nominal = analyzer
            .gain_at(freq)
            .map_err(|e| CoreError::Analog(e.to_string()))?;
        // Gain when the parameter sits exactly at the tolerance boundary.
        let gain_boundary = match parameter.kind {
            ParameterKind::DcGain | ParameterKind::AcGain { .. } | ParameterKind::MaxGain => {
                match direction {
                    DeviationSign::Above => gain_nominal * (1.0 + tolerance),
                    DeviationSign::Below => gain_nominal * (1.0 - tolerance),
                }
            }
            ParameterKind::CenterFrequency
            | ParameterKind::LowCutoff
            | ParameterKind::HighCutoff => {
                let scale = match direction {
                    DeviationSign::Above => 1.0 / (1.0 + tolerance),
                    DeviationSign::Below => 1.0 / (1.0 - tolerance),
                };
                analyzer
                    .gain_at(freq * scale)
                    .map_err(|e| CoreError::Analog(e.to_string()))?
            }
        };
        if gain_nominal <= 0.0 || gain_boundary <= 0.0 {
            return Err(CoreError::ActivationImpossible {
                reason: format!(
                    "gain is zero at {freq:.1} Hz for parameter '{}'",
                    parameter.name
                ),
            });
        }
        if (gain_nominal - gain_boundary).abs() / gain_nominal < 1e-9 {
            return Err(CoreError::ActivationImpossible {
                reason: format!(
                    "parameter '{}' does not change the output amplitude at {freq:.1} Hz",
                    parameter.name
                ),
            });
        }
        let amplitude = v_ref / (gain_nominal * gain_boundary).sqrt();
        let fault_free_value = gain_nominal > gain_boundary;
        Ok(StimulusPlan {
            stimulus: SineStimulus::new(amplitude, freq),
            fault_free_value,
            faulty_value: !fault_free_value,
        })
    }

    fn output_amplitude(
        circuit: &Circuit,
        source: &str,
        output: NodeId,
        stimulus: &SineStimulus,
    ) -> Result<f64, AnalogError> {
        let mna = Mna::new(circuit);
        let gain = mna.gain(source, output, stimulus.frequency_hz)?;
        Ok(stimulus.amplitude * gain)
    }

    fn test_deviation<'a>(
        atpg: &AnalogAtpg<'a>,
        engine: &mut Option<DigitalAtpg<'a>>,
        element: ElementId,
        deviation: f64,
        parameter: &ParameterSpec,
    ) -> Result<AnalogTestOutcome, CoreError> {
        let preferred = if deviation >= 0.0 {
            DeviationSign::Above
        } else {
            DeviationSign::Below
        };
        let other = match preferred {
            DeviationSign::Above => DeviationSign::Below,
            DeviationSign::Below => DeviationSign::Above,
        };
        let filter = atpg.circuit.analog();
        let fault = AnalogFault::deviation(element, deviation);
        let faulty_circuit = fault.apply(filter.circuit());
        let output_node = filter.output_node();
        let mut any_activation = false;

        for (converter_output, line) in atpg.circuit.connections() {
            let Some(threshold) = atpg.circuit.converter().threshold(converter_output) else {
                continue;
            };
            for direction in [preferred, other] {
                let plan = match select_stimulus(
                    filter,
                    parameter,
                    direction,
                    atpg.tolerance,
                    threshold,
                ) {
                    Ok(plan) => plan,
                    Err(_) => continue,
                };
                let amp_good = output_amplitude(
                    filter.circuit(),
                    filter.input_source(),
                    output_node,
                    &plan.stimulus,
                )
                .map_err(|e| CoreError::Analog(e.to_string()))?;
                let amp_faulty = output_amplitude(
                    &faulty_circuit,
                    filter.input_source(),
                    output_node,
                    &plan.stimulus,
                )
                .map_err(|e| CoreError::Analog(e.to_string()))?;
                let code_good = atpg.circuit.converter().convert(amp_good);
                let code_faulty = atpg.circuit.converter().convert(amp_faulty);
                if code_good[converter_output] == code_faulty[converter_output] {
                    continue;
                }
                any_activation = true;
                let composite =
                    Logic::from_pair(code_good[converter_output], code_faulty[converter_output]);
                let fixed: Vec<(SignalId, bool)> = atpg
                    .circuit
                    .connections()
                    .into_iter()
                    .filter(|&(other_output, _)| other_output != converter_output)
                    .map(|(other_output, other_line)| (other_line, code_good[other_output]))
                    .collect();
                if let Some((external_assignment, observed_output)) =
                    atpg.propagate(engine, line, composite, &fixed)?
                {
                    return Ok(AnalogTestOutcome::Tested(AnalogTestVector {
                        stimulus: plan.stimulus,
                        comparator: converter_output,
                        composite,
                        constrained_code: code_good,
                        external_assignment,
                        observed_output,
                    }));
                }
            }
        }
        Ok(AnalogTestOutcome::Failed(if any_activation {
            AnalogTestFailure::PropagationFailed
        } else {
            AnalogTestFailure::ActivationFailed
        }))
    }

    pub(super) fn test_element(
        atpg: &AnalogAtpg<'_>,
        element: ElementId,
        deviation: f64,
        ranking: &[ParameterSpec],
    ) -> Result<AnalogTestEntry, CoreError> {
        let mut engine = None;
        let element_name = atpg
            .circuit
            .analog()
            .circuit()
            .element(element)
            .name
            .clone();
        let direction = if deviation >= 0.0 {
            DeviationSign::Above
        } else {
            DeviationSign::Below
        };
        let mut last_failure = AnalogTestOutcome::Failed(AnalogTestFailure::ActivationFailed);
        for parameter in ranking {
            let outcome = test_deviation(atpg, &mut engine, element, deviation, parameter)?;
            if outcome.is_tested() {
                return Ok(AnalogTestEntry {
                    element: element_name,
                    parameter: parameter.name.clone(),
                    deviation: deviation.abs(),
                    direction,
                    outcome,
                });
            }
            last_failure = outcome;
        }
        Ok(AnalogTestEntry {
            element: element_name,
            parameter: ranking
                .last()
                .map(|p| p.name.clone())
                .unwrap_or_else(|| "-".to_owned()),
            deviation: deviation.abs(),
            direction,
            outcome: last_failure,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msatpg_analog::coverage::CoverageGraph;
    use msatpg_analog::filters;
    use msatpg_analog::sensitivity::WorstCaseAnalysis;
    use msatpg_conversion::{FlashAdc, SarAdc};
    use msatpg_digital::{benchmarks, circuits};

    use crate::activation::{StimulusPlan, StimulusTable};
    use crate::mixed_circuit::ConverterBlock;

    /// The Figure-4 mixed circuit: band-pass filter, 2-comparator conversion
    /// block, Figure-3 digital circuit.
    fn figure4() -> MixedCircuit {
        let analog = filters::second_order_band_pass();
        // Thresholds inside the reachable output range of the filter
        // (center gain ≈ 3.2, so a 1 V input can reach ≈ 3.2 V).
        let adc = FlashAdc::uniform(2, 3.0).unwrap();
        let digital = circuits::figure3_circuit();
        let mut mixed = MixedCircuit::new("figure4", analog, ConverterBlock::Flash(adc), digital);
        mixed.connect_in_order(&["l0", "l2"]).unwrap();
        mixed
    }

    /// The entry of one element deviation tested through `ranking`.
    fn test_element(
        mixed: &MixedCircuit,
        element: &str,
        deviation: f64,
        ranking: Vec<ParameterSpec>,
    ) -> AnalogTestEntry {
        let request = ElementTestRequest {
            element: mixed.analog().circuit().find_element(element).unwrap(),
            deviation,
            ranking,
        };
        let mut entries = AnalogAtpg::new(mixed)
            .test_elements(&[request])
            .expect("simulation succeeds");
        assert_eq!(entries.len(), 1);
        entries.remove(0)
    }

    #[test]
    fn rd_deviation_is_testable_through_the_mixed_circuit() {
        // The paper's walk-through: a deviation on Rd changes the
        // center-frequency gain A1; a sine at the center frequency with a
        // suitable amplitude flips a comparator, and setting l1 (or l1 and
        // l4) propagates the effect to the outputs.
        let mixed = figure4();
        let a1 = mixed.analog().parameters()[0].clone(); // A1 = MaxGain
        let entry = test_element(&mixed, "Rd", -0.15, vec![a1]);
        match entry.outcome {
            AnalogTestOutcome::Tested(vector) => {
                assert!(vector.stimulus.amplitude > 0.0);
                assert!(vector.composite.is_fault_effect());
                assert!(vector.constrained_code.len() == 2);
                assert!(vector.observed_output < 2);
            }
            other => panic!("expected a test, got {other:?}"),
        }
    }

    #[test]
    fn tiny_deviation_cannot_be_activated() {
        // A deviation far below the detectable threshold does not flip any
        // comparator: activation fails.
        let mixed = figure4();
        let a1 = mixed.analog().parameters()[0].clone();
        let outcome = test_element(&mixed, "Rd", 0.001, vec![a1]).outcome;
        assert_eq!(
            outcome,
            AnalogTestOutcome::Failed(AnalogTestFailure::ActivationFailed)
        );
        assert!(!outcome.is_tested());
    }

    #[test]
    fn test_element_tries_parameters_in_order() {
        let mixed = figure4();
        let params = mixed.analog().parameters().to_vec();
        let entry = test_element(&mixed, "Rg", -0.2, params);
        assert_eq!(entry.element, "Rg");
        assert!(entry.deviation > 0.19);
        assert_eq!(entry.direction, DeviationSign::Below);
        assert!(entry.outcome.is_tested(), "Rg deviation of 20% is testable");
    }

    #[test]
    fn dbar_composite_is_supported() {
        // ∂g(¬D)/∂D = ∂g(D)/∂D: a D̄ on l2 (l0 = 1) propagates exactly as a
        // D does, to Vo1 with l1 = 0 and l4 open, and the five-valued
        // simulation confirms both polarities.
        let mixed = figure4();
        let atpg = AnalogAtpg::new(&mixed);
        let [l0, l1, l2, l4] =
            ["l0", "l1", "l2", "l4"].map(|name| mixed.digital().find_signal(name).unwrap());
        let mut engine = None;
        let d = atpg
            .propagate(&mut engine, l2, Logic::D, &[(l0, true)])
            .unwrap()
            .expect("D propagates");
        let dbar = atpg
            .propagate(&mut engine, l2, Logic::Dbar, &[(l0, true)])
            .unwrap()
            .expect("D' propagates the same way");
        assert_eq!(d, (vec![(l1, Some(false)), (l4, None)], 0));
        assert_eq!(dbar, d);
    }

    #[test]
    fn simulation_disagreement_is_a_propagation_error() {
        // The OBDD query ignores the composite value, the simulation does
        // not: a plain 1 on l2 reaches no output as a fault effect, so the
        // cross-check refuses the OBDD answer.
        let mixed = figure4();
        let atpg = AnalogAtpg::new(&mixed);
        let [l0, l2] = ["l0", "l2"].map(|name| mixed.digital().find_signal(name).unwrap());
        let err = atpg
            .propagate(&mut None, l2, Logic::One, &[(l0, true)])
            .unwrap_err();
        assert!(matches!(err, CoreError::Propagation { .. }), "{err}");
    }

    #[test]
    fn comparator_propagation_study_covers_all_connections() {
        let mixed = figure4();
        let atpg = AnalogAtpg::new(&mixed);
        let study = atpg.comparator_propagation_study().unwrap();
        assert_eq!(study.len(), 2);
        // In the Figure-3 circuit every constrained line reaches an output
        // for at least one polarity.
        assert!(study.iter().any(|&(d, dbar)| d || dbar));
    }

    /// The Figure-8 validation board: state-variable filter, AD7820-class
    /// SAR converter with its 4 low-order lines on a 4-bit adder.
    fn figure8_board() -> MixedCircuit {
        let mut mixed = MixedCircuit::new(
            "figure8-board",
            filters::state_variable_filter(),
            ConverterBlock::Binary {
                adc: SarAdc::ad7820(),
                lines: 4,
            },
            circuits::adder4(),
        );
        mixed.connect_in_order(&["a0", "a1", "a2", "a3"]).unwrap();
        mixed
    }

    /// An Example-3 circuit: fifth-order Chebyshev filter, 15-comparator
    /// flash converter, c432 stand-in wired at seed 1995.
    fn example3_c432() -> MixedCircuit {
        let mut mixed = MixedCircuit::new(
            "example3-c432",
            filters::fifth_order_chebyshev(),
            ConverterBlock::Flash(FlashAdc::uniform(15, 4.0).unwrap()),
            benchmarks::by_name("c432").unwrap(),
        );
        mixed.connect_randomly(1995).unwrap();
        mixed
    }

    /// Every element of `mixed` with a deviation of both signs and the
    /// nominal deviation report's parameter ranking, at the size the flow
    /// injects (20 % beyond the detectable threshold) or 50 % when nothing
    /// detects the element.
    fn requests(mixed: &MixedCircuit) -> Vec<ElementTestRequest> {
        let analog = mixed.analog();
        let report = WorstCaseAnalysis::new(analog.circuit(), analog.parameters())
            .run()
            .unwrap();
        let graph = CoverageGraph::from_report(&report);
        let mut requests = Vec::new();
        for (element, name) in report.elements() {
            let ranking: Vec<ParameterSpec> = report
                .ranked_rows(name)
                .into_iter()
                .filter_map(|row| {
                    analog
                        .parameters()
                        .iter()
                        .find(|p| p.name == row.parameter)
                        .cloned()
                })
                .collect();
            let size = graph
                .best_deviation(name)
                .map_or(0.5, |best| (best * 1.2).min(0.95));
            for deviation in [-size, size] {
                requests.push(ElementTestRequest {
                    element: *element,
                    deviation,
                    ranking: ranking.clone(),
                });
            }
        }
        requests
    }

    fn assert_same_plan(table: &StimulusPlan, oracle: &StimulusPlan, what: &str) {
        assert_eq!(table, oracle, "{what}");
        assert_eq!(
            table.stimulus.amplitude.to_bits(),
            oracle.stimulus.amplitude.to_bits(),
            "{what}: amplitude bits"
        );
        assert_eq!(
            table.stimulus.frequency_hz.to_bits(),
            oracle.stimulus.frequency_hz.to_bits(),
            "{what}: frequency bits"
        );
    }

    /// The batch path (one stimulus table for every request) against the
    /// per-attempt oracle on every request of [`requests`]: equal entries,
    /// stimulus and deviation bits included.
    fn assert_table_matches_the_oracle(mixed: &MixedCircuit) {
        let atpg = AnalogAtpg::new(mixed);
        let requests = requests(mixed);
        let tested = atpg.test_elements(&requests).unwrap();
        assert_eq!(tested.len(), requests.len());
        let mut tested_count = 0;
        for (request, entry) in requests.iter().zip(&tested) {
            let oracle =
                oracle::test_element(&atpg, request.element, request.deviation, &request.ranking)
                    .unwrap();
            let what = format!(
                "{}: {} by {}",
                mixed.name(),
                entry.element,
                request.deviation
            );
            assert_eq!(entry, &oracle, "{what}");
            assert_eq!(entry.deviation.to_bits(), oracle.deviation.to_bits());
            if let (AnalogTestOutcome::Tested(table), AnalogTestOutcome::Tested(oracle)) =
                (&entry.outcome, &oracle.outcome)
            {
                tested_count += 1;
                assert_eq!(
                    table.stimulus.amplitude.to_bits(),
                    oracle.stimulus.amplitude.to_bits(),
                    "{what}: amplitude bits"
                );
                assert_eq!(
                    table.stimulus.frequency_hz.to_bits(),
                    oracle.stimulus.frequency_hz.to_bits(),
                    "{what}: frequency bits"
                );
            }
        }
        assert!(
            tested_count > 0,
            "{}: some deviation is tested",
            mixed.name()
        );
    }

    #[test]
    fn stimulus_table_matches_the_per_attempt_oracle_on_figure4() {
        assert_table_matches_the_oracle(&figure4());
    }

    #[test]
    fn stimulus_table_matches_the_per_attempt_oracle_on_the_figure8_board() {
        assert_table_matches_the_oracle(&figure8_board());
    }

    #[test]
    fn stimulus_table_matches_the_per_attempt_oracle_on_example3_c432() {
        assert_table_matches_the_oracle(&example3_c432());
    }

    #[test]
    fn table_plans_match_the_oracle_stimulus_selection() {
        for mixed in [figure4(), figure8_board(), example3_c432()] {
            let filter = mixed.analog();
            let tolerance = 0.05;
            let table = StimulusTable::measure(filter, filter.parameters(), tolerance);
            let thresholds: Vec<f64> = (0..mixed.converter().output_count())
                .filter_map(|i| mixed.converter().threshold(i))
                .collect();
            assert!(!thresholds.is_empty());
            for parameter in filter.parameters() {
                let entry = table.entry(parameter).unwrap();
                for direction in [DeviationSign::Above, DeviationSign::Below] {
                    for &v_ref in &thresholds {
                        let what = format!(
                            "{}: {} {direction} at {v_ref} V",
                            mixed.name(),
                            parameter.name
                        );
                        let planned = entry.as_ref().map_err(CoreError::clone).and_then(|entry| {
                            entry.plan(direction, v_ref).map_err(CoreError::clone)
                        });
                        let oracle =
                            oracle::select_stimulus(filter, parameter, direction, tolerance, v_ref);
                        match (&planned, &oracle) {
                            (Ok(planned), Ok(oracle)) => assert_same_plan(planned, oracle, &what),
                            _ => assert_eq!(planned, oracle, "{what}"),
                        }
                    }
                }
                assert_eq!(
                    entry.as_ref().map(|entry| entry.frequency.to_bits()).ok(),
                    oracle::measurement_frequency(filter, parameter)
                        .ok()
                        .map(f64::to_bits),
                    "{}: {} frequency",
                    mixed.name(),
                    parameter.name
                );
            }
        }
    }
}
