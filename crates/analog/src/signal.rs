//! Sinusoidal test stimuli (the `(A, f)` pairs of Table 1).

use std::fmt;

/// A sinusoidal stimulus `A · sin(2π f t)` applied to the analog primary
/// input of the mixed circuit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SineStimulus {
    /// Peak amplitude in volts.
    pub amplitude: f64,
    /// Frequency in hertz (0 means a DC stimulus of `amplitude` volts).
    pub frequency_hz: f64,
}

impl SineStimulus {
    /// Creates a stimulus.
    pub fn new(amplitude: f64, frequency_hz: f64) -> Self {
        SineStimulus {
            amplitude,
            frequency_hz,
        }
    }

    /// A DC stimulus.
    pub fn dc(amplitude: f64) -> Self {
        SineStimulus {
            amplitude,
            frequency_hz: 0.0,
        }
    }

    /// Returns `true` for DC stimuli.
    pub fn is_dc(&self) -> bool {
        self.frequency_hz == 0.0
    }
}

impl fmt::Display for SineStimulus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_dc() {
            write!(f, "{:.4} V DC", self.amplitude)
        } else {
            write!(
                f,
                "{:.4} V sine @ {:.1} Hz",
                self.amplitude, self.frequency_hz
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stimulus_constructors_and_display() {
        let s = SineStimulus::new(2.0, 1000.0);
        assert!(!s.is_dc());
        assert!(format!("{s}").contains("1000.0 Hz"));
        let d = SineStimulus::dc(1.5);
        assert!(d.is_dc());
        assert!(format!("{d}").contains("DC"));
    }
}
