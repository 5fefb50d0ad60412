//! Measurable circuit parameters (the paper's test "performances").
//!
//! A [`ParameterSpec`] names a quantity such as *DC gain at Vout* or *center
//! frequency*; [`measure`] evaluates it on a concrete circuit.  These are the
//! columns of the element-deviation tables (Example 1, Tables 3 and 8).

use crate::mna::Mna;
use crate::netlist::{Circuit, NodeId};
use crate::response::{ResponseAnalyzer, SweepConfig};
use crate::AnalogError;

/// The kind of measurement a parameter performs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ParameterKind {
    /// DC gain `|H(0)|`.
    DcGain,
    /// AC gain magnitude at a fixed frequency.
    AcGain {
        /// Measurement frequency in hertz.
        freq_hz: f64,
    },
    /// Maximum gain over the sweep range (center-frequency gain for
    /// band-pass responses).
    MaxGain,
    /// Frequency of maximum gain.
    CenterFrequency,
    /// Low −3 dB cut-off frequency (below the gain peak).
    LowCutoff,
    /// High −3 dB cut-off frequency (above the gain peak).
    HighCutoff,
}

/// A named, measurable parameter of a circuit.
#[derive(Clone, Debug, PartialEq)]
pub struct ParameterSpec {
    /// Short name used in reports (e.g. `"A1"`, `"f0"`).
    pub name: String,
    /// What is measured.
    pub kind: ParameterKind,
    /// Name of the driving source element.
    pub source: String,
    /// Name of the output node observed.
    pub output: String,
    /// Frequency-sweep configuration used for peak/cut-off searches.
    pub sweep: SweepConfig,
}

impl ParameterSpec {
    /// Creates a parameter spec with the default sweep configuration.
    pub fn new(name: &str, kind: ParameterKind, source: &str, output: &str) -> Self {
        ParameterSpec {
            name: name.to_owned(),
            kind,
            source: source.to_owned(),
            output: output.to_owned(),
            sweep: SweepConfig::default(),
        }
    }

    /// Replaces the sweep configuration used by this parameter.
    pub fn with_sweep(mut self, sweep: SweepConfig) -> Self {
        self.sweep = sweep;
        self
    }

    /// Resolves the output node on a circuit.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::UnknownNode`] if the output node does not exist.
    pub fn output_node(&self, circuit: &Circuit) -> Result<NodeId, AnalogError> {
        circuit
            .find_node(&self.output)
            .ok_or_else(|| AnalogError::UnknownNode {
                name: self.output.clone(),
            })
    }
}

/// Measures a parameter on a circuit.
///
/// # Errors
///
/// Returns an error if the output node or source is unknown, the circuit
/// matrix is singular, or the requested feature (e.g. a cut-off frequency)
/// does not exist in the sweep range.
pub fn measure(circuit: &Circuit, spec: &ParameterSpec) -> Result<f64, AnalogError> {
    let mna = Mna::new(circuit);
    measure_with_mna(&mna, spec)
}

/// Measures a parameter through an existing (possibly deviated) MNA engine,
/// reusing its stamp pattern and cached per-frequency factorizations.  This
/// is the hot path of the deviation analysis, which measures the same
/// parameters thousands of times under different element values.
///
/// # Errors
///
/// Same conditions as [`measure`].
pub fn measure_with_mna(mna: &Mna<'_>, spec: &ParameterSpec) -> Result<f64, AnalogError> {
    let output = spec.output_node(mna.circuit())?;
    let analyzer = ResponseAnalyzer::from_mna(mna, &spec.source, output).with_sweep(spec.sweep);
    match spec.kind {
        ParameterKind::DcGain => analyzer.dc_gain(),
        ParameterKind::AcGain { freq_hz } => analyzer.gain_at(freq_hz),
        ParameterKind::MaxGain => Ok(analyzer.peak()?.1),
        ParameterKind::CenterFrequency => analyzer.center_frequency(),
        ParameterKind::LowCutoff => analyzer.low_cutoff(),
        ParameterKind::HighCutoff => analyzer.high_cutoff(),
    }
}

/// Measures every parameter of a list, returning `(name, value)` pairs.
///
/// # Errors
///
/// Fails on the first parameter that cannot be measured.
pub fn measure_all(
    circuit: &Circuit,
    specs: &[ParameterSpec],
) -> Result<Vec<(String, f64)>, AnalogError> {
    specs
        .iter()
        .map(|s| measure(circuit, s).map(|v| (s.name.clone(), v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;

    fn rc_lowpass() -> Circuit {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.voltage_source("Vin", vin, Circuit::GROUND, 0.0, 1.0);
        c.resistor("R", vin, vout, 1.0e3);
        c.capacitor("C", vout, Circuit::GROUND, 159.154943e-9);
        c
    }

    #[test]
    fn dc_and_ac_gain_measurements() {
        let c = rc_lowpass();
        let dc = ParameterSpec::new("Adc", ParameterKind::DcGain, "Vin", "vout");
        let ac = ParameterSpec::new(
            "A10k",
            ParameterKind::AcGain { freq_hz: 10_000.0 },
            "Vin",
            "vout",
        );
        assert!((measure(&c, &dc).unwrap() - 1.0).abs() < 1e-6);
        let g10k = measure(&c, &ac).unwrap();
        assert!(g10k < 0.2, "10 kHz is an order of magnitude above cutoff");
    }

    #[test]
    fn cutoff_measurement() {
        let c = rc_lowpass();
        let fh = ParameterSpec::new("fh", ParameterKind::HighCutoff, "Vin", "vout");
        let f = measure(&c, &fh).unwrap();
        assert!((f - 1000.0).abs() / 1000.0 < 0.02);
    }

    #[test]
    fn unknown_output_node_is_an_error() {
        let c = rc_lowpass();
        let bad = ParameterSpec::new("A", ParameterKind::DcGain, "Vin", "nonexistent");
        assert!(matches!(
            measure(&c, &bad),
            Err(AnalogError::UnknownNode { .. })
        ));
    }

    #[test]
    fn measure_all_returns_named_values() {
        let c = rc_lowpass();
        let specs = vec![
            ParameterSpec::new("Adc", ParameterKind::DcGain, "Vin", "vout"),
            ParameterSpec::new("fh", ParameterKind::HighCutoff, "Vin", "vout"),
        ];
        let vals = measure_all(&c, &specs).unwrap();
        assert_eq!(vals.len(), 2);
        assert_eq!(vals[0].0, "Adc");
        assert!(vals[1].1 > 900.0);
    }
}
