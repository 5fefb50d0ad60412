//! Analog fault activation: choosing the sine stimulus `(A, f)` that makes a
//! conversion-block comparator behave differently in the fault-free and in
//! the faulty circuit (Table 1 and §2.3 of the paper).
//!
//! Activation is the analog half of the mixed fault story: the composite
//! `D`/`D̄` value a [`StimulusPlan`] places on a conversion-block output is
//! what the symbolic half — the complement-edged OBDD engine behind
//! [`DigitalAtpg::try_propagate`](crate::DigitalAtpg::try_propagate) — then
//! pushes through the digital block.  The
//! Table-1 rows map one-to-one onto those composite values: a fault-free
//! `1` that turns into a faulty `0` is a `D`, the opposite flip a `D̄`
//! (with complement edges, literally the same BDD node behind a negated
//! edge).

use std::fmt;

use msatpg_analog::mna::Mna;
use msatpg_analog::params::{ParameterKind, ParameterSpec};
use msatpg_analog::response::ResponseAnalyzer;
use msatpg_analog::signal::SineStimulus;
use msatpg_analog::{AnalogError, FilterCircuit};

use crate::CoreError;

/// Direction of the parameter deviation being tested (the paper tests the
/// upper and the lower bound of the tolerance box separately).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviationSign {
    /// The parameter exceeds `(1 + x) · nominal`.
    Above,
    /// The parameter falls below `(1 − x) · nominal`.
    Below,
}

impl fmt::Display for DeviationSign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviationSign::Above => write!(f, "> +x%"),
            DeviationSign::Below => write!(f, "< -x%"),
        }
    }
}

/// One symbolic row of Table 1: how to choose the stimulus for a parameter
/// class and deviation direction, and what the comparator does in the
/// fault-free and in the faulty circuit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table1Row {
    /// Parameter class (`ADC`, `AAC`, `flcf`, `fhcf`).
    pub parameter: &'static str,
    /// Tested condition (deviation direction).
    pub condition: &'static str,
    /// Symbolic amplitude of the input signal.
    pub amplitude: &'static str,
    /// Symbolic frequency of the input signal.
    pub frequency: &'static str,
    /// Comparator output in the fault-free circuit.
    pub fault_free: u8,
    /// Comparator output in the faulty circuit.
    pub faulty: u8,
    /// The composite value that appears on the digital line (`"D"` or
    /// `"D'"`).
    pub composite: &'static str,
}

/// The eight rows of Table 1 of the paper (upper and lower bound for the DC
/// gain, AC gain, low cut-off and high cut-off parameters).
pub fn table1() -> Vec<Table1Row> {
    vec![
        Table1Row {
            parameter: "ADC",
            condition: "ADC > (1+x)·ADCn",
            amplitude: "Vref / ((1+x)·ADCn)",
            frequency: "0",
            fault_free: 0,
            faulty: 1,
            composite: "D'",
        },
        Table1Row {
            parameter: "ADC",
            condition: "ADC < (1-x)·ADCn",
            amplitude: "Vref / ((1-x)·ADCn)",
            frequency: "0",
            fault_free: 1,
            faulty: 0,
            composite: "D",
        },
        Table1Row {
            parameter: "AAC",
            condition: "AAC > (1+x)·AACn",
            amplitude: "Vref / ((1+x)·Af)",
            frequency: "f > 0",
            fault_free: 0,
            faulty: 1,
            composite: "D'",
        },
        Table1Row {
            parameter: "AAC",
            condition: "AAC < (1-x)·AACn",
            amplitude: "Vref / ((1-x)·Af)",
            frequency: "f > 0",
            fault_free: 1,
            faulty: 0,
            composite: "D",
        },
        Table1Row {
            parameter: "flcf",
            condition: "flcf > (1+x)·flcfn",
            amplitude: "Vref / ((1-y)·A(flcfn))",
            frequency: "flcfn",
            fault_free: 1,
            faulty: 0,
            composite: "D",
        },
        Table1Row {
            parameter: "flcf",
            condition: "flcf < (1-x)·flcfn",
            amplitude: "Vref / ((1+y)·A(flcfn))",
            frequency: "flcfn",
            fault_free: 0,
            faulty: 1,
            composite: "D'",
        },
        Table1Row {
            parameter: "fhcf",
            condition: "fhcf > (1+x)·fhcfn",
            amplitude: "Vref / ((1+y)·A(fhcfn))",
            frequency: "fhcfn",
            fault_free: 0,
            faulty: 1,
            composite: "D'",
        },
        Table1Row {
            parameter: "fhcf",
            condition: "fhcf < (1-x)·fhcfn",
            amplitude: "Vref / ((1-y)·A(fhcfn))",
            frequency: "fhcfn",
            fault_free: 1,
            faulty: 0,
            composite: "D",
        },
    ]
}

/// A concrete activation plan: the stimulus to apply and the comparator
/// behaviour it produces.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StimulusPlan {
    /// The sine stimulus applied at the analog primary input.
    pub stimulus: SineStimulus,
    /// Comparator output in the fault-free circuit under this stimulus.
    pub fault_free_value: bool,
    /// Comparator output when the parameter sits outside its tolerance box
    /// in the tested direction.
    pub faulty_value: bool,
}

/// One parameter's row of Table 1, measured: the frequency and the gains
/// every [`StimulusPlan`] for the parameter is computed from.
///
/// The stimulus depends on the parameter, the tolerance, the deviation
/// direction and the comparator threshold only — never on the faulty
/// element — so the flow measures each parameter once, and a plan for any
/// `(direction, threshold)` is arithmetic on these values.
#[derive(Debug)]
pub(crate) struct Table1Entry {
    /// The measurement frequency `f`: DC for DC gains, the specified
    /// frequency for AC gains, the nominal peak/cut-off frequency for
    /// frequency-type parameters.
    pub(crate) frequency: f64,
    /// The nominal gain at `f` and the gain with the parameter at its
    /// tolerance boundary, per direction (`[Above, Below]`), or why that
    /// direction cannot be activated.
    gains: [Result<(f64, f64), CoreError>; 2],
    /// Gain of the filter's input-to-output path at `f`: the fault-free
    /// output amplitude of a plan is its stimulus amplitude times this.
    pub(crate) output_gain: Result<f64, CoreError>,
}

impl Table1Entry {
    /// Measures the entry of `parameter` at tolerance `tolerance`
    /// (fraction) on fresh engines of the nominal filter: one for the
    /// frequency search, one for the nominal and boundary gains, one for
    /// the output gain.
    ///
    /// # Errors
    ///
    /// Returns an error if the parameter's output node or its measurement
    /// frequency cannot be found; a gain that cannot be measured only makes
    /// its direction (or, for the output gain, its use) fail.
    pub(crate) fn measure(
        filter: &FilterCircuit,
        parameter: &ParameterSpec,
        tolerance: f64,
    ) -> Result<Self, CoreError> {
        let output = parameter
            .output_node(filter.circuit())
            .map_err(analog_error)?;
        let analyzer = || {
            ResponseAnalyzer::new(filter.circuit(), &parameter.source, output)
                .with_sweep(parameter.sweep)
        };
        let freq = match parameter.kind {
            ParameterKind::DcGain => 0.0,
            ParameterKind::AcGain { freq_hz } => freq_hz,
            ParameterKind::MaxGain | ParameterKind::CenterFrequency => {
                analyzer().center_frequency().map_err(analog_error)?
            }
            ParameterKind::LowCutoff => analyzer().low_cutoff().map_err(analog_error)?,
            ParameterKind::HighCutoff => analyzer().high_cutoff().map_err(analog_error)?,
        };
        let analyzer = analyzer();
        let gain_nominal = analyzer.gain_at(freq).map_err(analog_error);
        let gains = [DeviationSign::Above, DeviationSign::Below].map(|direction| {
            let gain_nominal = gain_nominal.clone()?;
            // Gain when the parameter sits exactly at the tolerance boundary.
            let gain_boundary = match parameter.kind {
                ParameterKind::DcGain | ParameterKind::AcGain { .. } | ParameterKind::MaxGain => {
                    match direction {
                        DeviationSign::Above => gain_nominal * (1.0 + tolerance),
                        DeviationSign::Below => gain_nominal * (1.0 - tolerance),
                    }
                }
                // Frequency parameters: shifting a corner frequency by x%
                // changes the gain at the nominal corner like evaluating the
                // nominal response at a frequency scaled by 1/(1±x) (the
                // paper's y% gain deviation caused by an x% frequency
                // deviation).
                ParameterKind::CenterFrequency
                | ParameterKind::LowCutoff
                | ParameterKind::HighCutoff => {
                    let scale = match direction {
                        DeviationSign::Above => 1.0 / (1.0 + tolerance),
                        DeviationSign::Below => 1.0 / (1.0 - tolerance),
                    };
                    analyzer.gain_at(freq * scale).map_err(analog_error)?
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
            Ok((gain_nominal, gain_boundary))
        });
        let output_gain = Mna::new(filter.circuit())
            .gain(filter.input_source(), filter.output_node(), freq)
            .map_err(analog_error);
        Ok(Table1Entry {
            frequency: freq,
            gains,
            output_gain,
        })
    }

    /// The stimulus that activates a deviation in `direction`, observed at
    /// a comparator with threshold `v_ref`.
    ///
    /// The amplitude is placed so that the filter's output amplitude
    /// straddles `v_ref`: it stays on one side while the parameter is inside
    /// its tolerance box and crosses to the other side when the parameter
    /// leaves the box.
    ///
    /// # Errors
    ///
    /// Returns why the direction cannot be activated (a gain that could not
    /// be measured, or is zero or unchanged at the entry's frequency).
    pub(crate) fn plan(
        &self,
        direction: DeviationSign,
        v_ref: f64,
    ) -> Result<StimulusPlan, &CoreError> {
        let index = match direction {
            DeviationSign::Above => 0,
            DeviationSign::Below => 1,
        };
        let (gain_nominal, gain_boundary) = *self.gains[index].as_ref()?;
        // Amplitude such that the output amplitude is the geometric mean of
        // the nominal and boundary levels — above Vref on one side, below on
        // the other.
        let amplitude = v_ref / (gain_nominal * gain_boundary).sqrt();
        let fault_free_value = gain_nominal > gain_boundary;
        Ok(StimulusPlan {
            stimulus: SineStimulus::new(amplitude, self.frequency),
            fault_free_value,
            faulty_value: !fault_free_value,
        })
    }
}

/// Table 1 measured for one filter and tolerance: one [`Table1Entry`] per
/// distinct parameter, shared read-only by every element test of a batch.
#[derive(Debug)]
pub(crate) struct StimulusTable {
    entries: Vec<(ParameterSpec, Result<Table1Entry, CoreError>)>,
}

impl StimulusTable {
    /// Measures the entry of every distinct parameter in `parameters`.
    pub(crate) fn measure<'p>(
        filter: &FilterCircuit,
        parameters: impl IntoIterator<Item = &'p ParameterSpec>,
        tolerance: f64,
    ) -> Self {
        let mut entries: Vec<(ParameterSpec, Result<Table1Entry, CoreError>)> = Vec::new();
        for parameter in parameters {
            if entries.iter().all(|(measured, _)| measured != parameter) {
                let entry = Table1Entry::measure(filter, parameter, tolerance);
                entries.push((parameter.clone(), entry));
            }
        }
        StimulusTable { entries }
    }

    /// The entry of `parameter`, or `None` if the table was not measured
    /// for it.
    pub(crate) fn entry(
        &self,
        parameter: &ParameterSpec,
    ) -> Option<&Result<Table1Entry, CoreError>> {
        self.entries
            .iter()
            .find(|(measured, _)| measured == parameter)
            .map(|(_, entry)| entry)
    }
}

fn analog_error(e: AnalogError) -> CoreError {
    CoreError::Analog(e.to_string())
}

/// Selects the measurement frequency implied by a parameter kind: DC for DC
/// gains, the specified frequency for AC gains, and the nominal
/// peak/cut-off frequency for frequency-type parameters.  It is the
/// frequency of the parameter's Table-1 entry, which does not depend on the
/// tolerance.
///
/// # Errors
///
/// Propagates measurement errors (e.g. a cut-off that does not exist).
pub fn measurement_frequency(
    filter: &FilterCircuit,
    parameter: &ParameterSpec,
) -> Result<f64, CoreError> {
    Ok(Table1Entry::measure(filter, parameter, 0.0)?.frequency)
}

/// Chooses the stimulus `(A, f)` that activates a deviation of `parameter`
/// beyond the tolerance `x` (fraction) in the given direction, observed at a
/// comparator with threshold `v_ref` — the computational form of Table 1.
///
/// The amplitude is placed so that the filter's output amplitude straddles
/// `v_ref`: it stays on one side while the parameter is inside its tolerance
/// box and crosses to the other side when the parameter leaves the box.
///
/// Each call measures the parameter's Table-1 entry afresh; the analog
/// element tests measure each entry once per batch and plan every attempt
/// from it.
///
/// # Errors
///
/// Returns an error if the nominal or boundary gain cannot be measured or is
/// (numerically) zero at the chosen frequency.
pub fn select_stimulus(
    filter: &FilterCircuit,
    parameter: &ParameterSpec,
    direction: DeviationSign,
    tolerance: f64,
    v_ref: f64,
) -> Result<StimulusPlan, CoreError> {
    Table1Entry::measure(filter, parameter, tolerance)?
        .plan(direction, v_ref)
        .map_err(CoreError::clone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msatpg_analog::filters;

    #[test]
    fn table1_has_eight_rows_covering_both_directions() {
        let rows = table1();
        assert_eq!(rows.len(), 8);
        let d_count = rows.iter().filter(|r| r.composite == "D").count();
        let dbar_count = rows.iter().filter(|r| r.composite == "D'").count();
        assert_eq!(d_count, 4);
        assert_eq!(dbar_count, 4);
        // Every row where the fault-free value is 1 and faulty 0 is a D.
        for row in &rows {
            if row.fault_free == 1 && row.faulty == 0 {
                assert_eq!(row.composite, "D");
            } else {
                assert_eq!(row.composite, "D'");
            }
        }
    }

    #[test]
    fn stimulus_for_gain_parameter_straddles_the_reference() {
        let filter = filters::second_order_band_pass();
        // A2 = AC gain at 10 kHz.
        let a2 = filter.parameters()[1].clone();
        let plan = select_stimulus(&filter, &a2, DeviationSign::Below, 0.05, 2.0).unwrap();
        assert!(plan.stimulus.amplitude > 0.0);
        assert_eq!(plan.stimulus.frequency_hz, 10_000.0);
        // Testing a drop in gain: the fault-free output must be above Vref
        // (comparator = 1), the faulty one below (comparator = 0) → D.
        assert!(plan.fault_free_value);
        assert!(!plan.faulty_value);
        // The opposite direction flips the comparator values.
        let plan_up = select_stimulus(&filter, &a2, DeviationSign::Above, 0.05, 2.0).unwrap();
        assert!(!plan_up.fault_free_value);
        assert!(plan_up.faulty_value);
    }

    #[test]
    fn stimulus_for_cutoff_parameter_uses_the_corner_frequency() {
        let filter = filters::second_order_band_pass();
        // fc2 = high cut-off of the band-pass.
        let fc2 = filter.parameters()[4].clone();
        let freq = measurement_frequency(&filter, &fc2).unwrap();
        assert!(freq > 1_000.0, "high cut-off is above the center frequency");
        let plan = select_stimulus(&filter, &fc2, DeviationSign::Below, 0.05, 1.0).unwrap();
        assert!((plan.stimulus.frequency_hz - freq).abs() / freq < 1e-9);
        // A lower high-cutoff reduces the gain at the nominal corner → the
        // fault-free comparator value is 1 and the faulty one 0.
        assert!(plan.fault_free_value);
    }

    #[test]
    fn measurement_frequency_for_dc_and_ac_parameters() {
        let filter = filters::fifth_order_chebyshev();
        let adc = filter.parameters()[0].clone(); // DC gain
        let a1 = filter.parameters()[2].clone(); // AC gain @ 200 Hz
        assert_eq!(measurement_frequency(&filter, &adc).unwrap(), 0.0);
        assert_eq!(measurement_frequency(&filter, &a1).unwrap(), 200.0);
    }

    #[test]
    fn deviation_sign_displays() {
        assert_eq!(format!("{}", DeviationSign::Above), "> +x%");
        assert_eq!(format!("{}", DeviationSign::Below), "< -x%");
    }
}
