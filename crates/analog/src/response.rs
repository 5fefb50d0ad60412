//! Frequency-response extraction: sweeps, peak search and cut-off frequencies.

use crate::mna::Mna;
use crate::netlist::{Circuit, NodeId};
use crate::sensitivity::{illinois, Until};
use crate::AnalogError;

/// Configuration of the logarithmic frequency sweep used when extracting
/// response parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepConfig {
    /// Lowest frequency of the sweep in hertz.
    pub start_hz: f64,
    /// Highest frequency of the sweep in hertz.
    pub stop_hz: f64,
    /// Number of sweep points per decade.
    pub points_per_decade: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            start_hz: 1.0,
            stop_hz: 10.0e6,
            points_per_decade: 30,
        }
    }
}

impl SweepConfig {
    /// Generates the logarithmically spaced frequency grid.
    pub fn frequencies(&self) -> Vec<f64> {
        let decades = (self.stop_hz / self.start_hz).log10();
        let n = ((decades * self.points_per_decade as f64).ceil() as usize).max(2);
        (0..=n)
            .map(|i| self.start_hz * 10f64.powf(decades * i as f64 / n as f64))
            .collect()
    }
}

/// A sampled magnitude response |H(f)| of one output node.
#[derive(Clone, Debug, PartialEq)]
pub struct FrequencyResponse {
    points: Vec<(f64, f64)>,
}

impl FrequencyResponse {
    /// Samples the response of `circuit` from source `source` to node
    /// `output` over the given sweep.
    ///
    /// # Errors
    ///
    /// Propagates solver errors (singular MNA matrix, unknown source).
    pub fn sweep(
        circuit: &Circuit,
        source: &str,
        output: NodeId,
        config: &SweepConfig,
    ) -> Result<Self, AnalogError> {
        let mna = Mna::new(circuit);
        Self::sweep_with_mna(&mna, source, output, config)
    }

    /// Samples the response using an existing (possibly deviated) MNA engine,
    /// reusing its stamp pattern, per-frequency systems and factorizations
    /// ([`Mna::sweep_gains`]).
    ///
    /// # Errors
    ///
    /// Propagates solver errors (singular MNA matrix, unknown source).
    pub fn sweep_with_mna(
        mna: &Mna<'_>,
        source: &str,
        output: NodeId,
        config: &SweepConfig,
    ) -> Result<Self, AnalogError> {
        Ok(FrequencyResponse {
            points: mna.sweep_gains(source, output, config)?,
        })
    }

    /// The `(frequency, gain)` samples in ascending frequency order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Maximum gain over the sweep and the frequency at which it occurs.
    pub fn peak(&self) -> (f64, f64) {
        self.points.iter().copied().fold(
            (0.0, 0.0),
            |(bf, bg), (f, g)| {
                if g > bg {
                    (f, g)
                } else {
                    (bf, bg)
                }
            },
        )
    }
}

/// The MNA engine an analyzer works on: its own, or one shared with other
/// analyzers / a deviation analysis (so cached factorizations and deviated
/// element values are shared too).
enum MnaHandle<'a> {
    Owned(Box<Mna<'a>>),
    Shared(&'a Mna<'a>),
}

/// High-accuracy response-parameter extraction working directly on the MNA
/// solver (sweep for bracketing, Brent and Illinois steps for refinement).
pub struct ResponseAnalyzer<'a> {
    mna: MnaHandle<'a>,
    source: String,
    output: NodeId,
    config: SweepConfig,
}

impl<'a> ResponseAnalyzer<'a> {
    /// Creates an analyzer for the transfer function `source → output` with
    /// its own MNA engine.
    pub fn new(circuit: &'a Circuit, source: &str, output: NodeId) -> Self {
        ResponseAnalyzer {
            mna: MnaHandle::Owned(Box::new(Mna::new(circuit))),
            source: source.to_owned(),
            output,
            config: SweepConfig::default(),
        }
    }

    /// Creates an analyzer on a shared MNA engine.  All of the engine's
    /// cached per-frequency factorizations — and any element values set
    /// through [`Mna::set_value`] — are visible to the analyzer, which is how the
    /// deviation analysis measures parameters of a perturbed circuit without
    /// rebuilding anything.
    pub fn from_mna(mna: &'a Mna<'a>, source: &str, output: NodeId) -> Self {
        ResponseAnalyzer {
            mna: MnaHandle::Shared(mna),
            source: source.to_owned(),
            output,
            config: SweepConfig::default(),
        }
    }

    /// Replaces the sweep configuration.
    pub fn with_sweep(mut self, config: SweepConfig) -> Self {
        self.config = config;
        self
    }

    /// The underlying MNA engine.
    pub fn mna(&self) -> &Mna<'a> {
        match &self.mna {
            MnaHandle::Owned(mna) => mna,
            MnaHandle::Shared(mna) => mna,
        }
    }

    /// Gain magnitude at a single frequency.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn gain_at(&self, freq_hz: f64) -> Result<f64, AnalogError> {
        self.mna().gain(&self.source, self.output, freq_hz)
    }

    /// DC gain (`|H(0)|`).
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn dc_gain(&self) -> Result<f64, AnalogError> {
        self.mna().gain(&self.source, self.output, 0.0)
    }

    /// Maximum gain over the sweep range, refined by Brent's method,
    /// returned as `(frequency, gain)`.
    ///
    /// The sweep grid is sampled first ([`Mna::sweep_gains`]: O(1) per
    /// point from the engine's grid table when one element is deviated).
    /// When the best sample is a grid end it is the result, with no further
    /// solve.  Otherwise its two grid neighbours bracket the maximum, and
    /// Brent's method (parabolic steps through the three best points so
    /// far, golden-section steps when a parabola is not trusted) maximizes
    /// the gain over `x = ln f` in that bracket.  It starts at the best sample, whose gain the grid already
    /// solved, so each step costs one solve, typically 7–10 in all.  It
    /// stops once both bracket ends lie within `2·tol` of the best point,
    /// with `tol = 10⁻⁸·|x| + 10⁻¹²`: the `√ε` floor, below which the
    /// gain's round-off hides where a smooth maximum lies anyway.  The
    /// result is the best point solved and its gain.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn peak(&self) -> Result<(f64, f64), AnalogError> {
        let peak = self.sweep_peak()?;
        Ok((peak.freq, peak.gain))
    }

    /// Samples the sweep grid and refines its maximum (see
    /// [`ResponseAnalyzer::peak`]), keeping the samples for the cut-off
    /// scans.
    fn sweep_peak(&self) -> Result<Peak, AnalogError> {
        let samples = self
            .mna()
            .sweep_gains(&self.source, self.output, &self.config)?;
        let mut best_i = 0usize;
        let mut best_g = -1.0;
        for (i, &(_, g)) in samples.iter().enumerate() {
            if g > best_g {
                best_g = g;
                best_i = i;
            }
        }
        let best_f = samples[best_i].0;
        if best_i == 0 || best_i + 1 == samples.len() {
            // The maximum sits at a grid end: there is no bracket around it.
            return Ok(Peak {
                freq: best_f,
                gain: best_g,
                samples,
            });
        }
        let (lo, hi) = (samples[best_i - 1].0, samples[best_i + 1].0);
        let (x, gain) = brent_max(
            |x| self.gain_at(x.exp()),
            (lo.ln(), hi.ln()),
            (best_f.ln(), best_g),
        )?;
        Ok(Peak {
            samples,
            freq: x.exp(),
            gain,
        })
    }

    /// Center frequency (frequency of maximum gain).
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn center_frequency(&self) -> Result<f64, AnalogError> {
        Ok(self.peak()?.0)
    }

    /// Low cut-off: the highest frequency *below* the gain peak at which the
    /// gain falls to `peak/√2`.  Returns an error if the response never drops
    /// below the threshold on the low side (e.g. a low-pass filter).
    ///
    /// # Errors
    ///
    /// [`AnalogError::ParameterNotFound`] if no low-side crossing exists in
    /// the sweep range; otherwise solver errors.
    pub fn low_cutoff(&self) -> Result<f64, AnalogError> {
        let peak = self.sweep_peak()?;
        let threshold = peak.gain / std::f64::consts::SQRT_2;
        // The grid starts at `start_hz`, so this is `start_hz`, the grid
        // points strictly below the peak, and the peak.
        let below = peak.samples.iter().take_while(|&&(f, _)| f < peak.freq);
        let scan = below.copied().chain([(peak.freq, peak.gain)]);
        self.find_crossing(scan, threshold, true)
    }

    /// High cut-off: the lowest frequency *above* the gain peak at which the
    /// gain falls to `peak/√2`.
    ///
    /// # Errors
    ///
    /// [`AnalogError::ParameterNotFound`] if no high-side crossing exists in
    /// the sweep range; otherwise solver errors.
    pub fn high_cutoff(&self) -> Result<f64, AnalogError> {
        let peak = self.sweep_peak()?;
        let threshold = peak.gain / std::f64::consts::SQRT_2;
        // The peak, the grid points strictly above it, and the grid's end.
        let above = peak.samples.iter().skip_while(|&&(f, _)| f <= peak.freq);
        let scan = [(peak.freq, peak.gain)].into_iter().chain(above.copied());
        self.find_crossing(scan, threshold, false)
    }

    /// Finds the −3 dB crossing along `scan`, `(frequency, gain)` samples in
    /// ascending frequency that were already solved (the sweep grid of
    /// [`ResponseAnalyzer::peak`] and the peak itself).  When `rising` is
    /// true the gain is expected to rise through the threshold as frequency
    /// increases (low-side skirt); otherwise to fall through it (high-side
    /// skirt).  The first adjacent pair that crosses is the bracket.  Both
    /// of its gains are known from the scan, so the bracket costs no solve.
    /// The safeguarded Illinois iteration of [`illinois`] then finds the
    /// root of `h(ln f) = ±(gain − threshold)`, signed so that `h ≤ 0` at
    /// the bracket's low end, in typically 5–12 solves.  It runs to f64
    /// resolution of `ln f` ([`Until::Resolution`]): once a secant point
    /// rounds onto a bracket end, the bracket collapses there and that end
    /// is the cut-off.
    fn find_crossing(
        &self,
        scan: impl IntoIterator<Item = (f64, f64)>,
        threshold: f64,
        rising: bool,
    ) -> Result<f64, AnalogError> {
        let not_found = || AnalogError::ParameterNotFound {
            what: "-3 dB crossing".to_owned(),
        };
        let mut scan = scan.into_iter();
        let mut prev = scan.next().ok_or_else(not_found)?;
        let (lo, hi) = scan
            .find_map(|next| {
                let crossed = if rising {
                    prev.1 < threshold && next.1 >= threshold
                } else {
                    prev.1 >= threshold && next.1 < threshold
                };
                let bracket = crossed.then_some((prev, next));
                prev = next;
                bracket
            })
            .ok_or_else(not_found)?;
        let sign = if rising { 1.0 } else { -1.0 };
        let end = |(f, g): (f64, f64)| (f.ln(), sign * (g - threshold));
        let root = illinois(
            |x| Ok(sign * (self.gain_at(x.exp())? - threshold)),
            end(lo),
            end(hi),
            Until::Resolution,
        )?;
        Ok(root.exp())
    }
}

/// Brent's method for the maximum of `gain(x)` on `[a, b]`, started at the
/// interior point `x0` whose gain `g0` is already known.  Returns the best
/// point solved and its gain (see [`ResponseAnalyzer::peak`]).
fn brent_max(
    gain: impl Fn(f64) -> Result<f64, AnalogError>,
    (mut a, mut b): (f64, f64),
    (x0, g0): (f64, f64),
) -> Result<(f64, f64), AnalogError> {
    /// `(3 − √5)/2`: the golden-section step as a fraction of a segment.
    const GOLDEN: f64 = 0.381_966_011_250_105_1;
    // `x` is the best point so far, `w` the second best, `v` the previous
    // `w`; `d` is the last step and `e` the one before it.
    let (mut x, mut w, mut v) = (x0, x0, x0);
    let (mut gx, mut gw, mut gv) = (g0, g0, g0);
    let (mut d, mut e) = (0.0f64, 0.0f64);
    loop {
        let m = 0.5 * (a + b);
        let tol = 1e-8 * x.abs() + 1e-12;
        if (x - m).abs() <= 2.0 * tol - 0.5 * (b - a) {
            return Ok((x, gx));
        }
        // Step to the vertex `x + p/q` of the parabola through x, w, v if
        // it lies inside the bracket and moves less than half the step
        // before last; otherwise take a golden-section step into the
        // larger side.
        let mut golden = true;
        if e.abs() > tol {
            let r = (x - w) * (gx - gv);
            let q = (x - v) * (gx - gw);
            let mut p = (x - v) * q - (x - w) * r;
            let mut q = 2.0 * (q - r);
            if q > 0.0 {
                p = -p;
            }
            q = q.abs();
            let before_last = e;
            e = d;
            if p.abs() < (0.5 * q * before_last).abs() && p > q * (a - x) && p < q * (b - x) {
                golden = false;
                d = p / q;
                // Within `2·tol` of a bracket end, step `tol` toward the
                // middle instead.
                let u = x + d;
                if u - a < 2.0 * tol || b - u < 2.0 * tol {
                    d = tol.copysign(m - x);
                }
            }
        }
        if golden {
            e = if x >= m { a - x } else { b - x };
            d = GOLDEN * e;
        }
        // Never solve closer than `tol` to the best point.
        let u = if d.abs() >= tol {
            x + d
        } else {
            x + tol.copysign(d)
        };
        let gu = gain(u)?;
        if gu >= gx {
            if u >= x {
                a = x;
            } else {
                b = x;
            }
            (v, gv) = (w, gw);
            (w, gw) = (x, gx);
            (x, gx) = (u, gu);
        } else {
            if u < x {
                a = u;
            } else {
                b = u;
            }
            if gu >= gw || w == x {
                (v, gv) = (w, gw);
                (w, gw) = (u, gu);
            } else if gu >= gv || v == x || v == w {
                (v, gv) = (u, gu);
            }
        }
    }
}

/// The sampled sweep grid of a response and its refined maximum.
struct Peak {
    /// `(frequency, gain)` at every grid point, ascending.
    samples: Vec<(f64, f64)>,
    freq: f64,
    gain: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Circuit, OpAmpModel};

    fn rc_lowpass(fc_hz: f64) -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.voltage_source("Vin", vin, Circuit::GROUND, 0.0, 1.0);
        let r = 1.0e3;
        let cap = 1.0 / (std::f64::consts::TAU * fc_hz * r);
        c.resistor("R", vin, vout, r);
        c.capacitor("C", vout, Circuit::GROUND, cap);
        (c, vout)
    }

    /// A simple multiple-feedback band-pass around 1 kHz.
    fn active_bandpass() -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vx = c.node("vx");
        let vminus = c.node("vminus");
        let vout = c.node("vout");
        c.voltage_source("Vin", vin, Circuit::GROUND, 0.0, 1.0);
        c.resistor("R1", vin, vx, 10.0e3);
        c.resistor("R2", vx, Circuit::GROUND, 1.0e3);
        c.capacitor("C1", vx, vminus, 10.0e-9);
        c.capacitor("C2", vx, vout, 10.0e-9);
        c.resistor("R3", vminus, vout, 100.0e3);
        c.opamp("A1", Circuit::GROUND, vminus, vout, OpAmpModel::Ideal);
        (c, vout)
    }

    #[test]
    fn sweep_config_generates_log_grid() {
        let cfg = SweepConfig {
            start_hz: 1.0,
            stop_hz: 1000.0,
            points_per_decade: 10,
        };
        let f = cfg.frequencies();
        assert!((f[0] - 1.0).abs() < 1e-9);
        assert!((f.last().unwrap() - 1000.0).abs() < 1e-6);
        assert!(f.windows(2).all(|w| w[1] > w[0]));
        assert!(f.len() >= 30);
    }

    #[test]
    fn lowpass_dc_gain_and_high_cutoff() {
        let (c, vout) = rc_lowpass(1000.0);
        let an = ResponseAnalyzer::new(&c, "Vin", vout);
        assert!((an.dc_gain().unwrap() - 1.0).abs() < 1e-6);
        let fh = an.high_cutoff().unwrap();
        assert!(
            (fh - 1000.0).abs() / 1000.0 < 0.02,
            "high cutoff {fh} should be near 1 kHz"
        );
        // A first-order low-pass has no low-side −3 dB point.
        assert!(an.low_cutoff().is_err());
    }

    #[test]
    fn bandpass_center_and_cutoffs() {
        let (c, vout) = active_bandpass();
        let an = ResponseAnalyzer::new(&c, "Vin", vout);
        let (f0, g0) = an.peak().unwrap();
        assert!(f0 > 100.0 && f0 < 10_000.0, "center frequency {f0}");
        assert!(g0 > 1.0, "peak gain {g0}");
        let fl = an.low_cutoff().unwrap();
        let fh = an.high_cutoff().unwrap();
        assert!(fl < f0 && f0 < fh, "fl={fl} f0={f0} fh={fh}");
        // At the cut-offs the gain is peak/sqrt(2) within tolerance.
        let target = g0 / std::f64::consts::SQRT_2;
        assert!((an.gain_at(fl).unwrap() - target).abs() / target < 0.01);
        assert!((an.gain_at(fh).unwrap() - target).abs() / target < 0.01);
    }

    #[test]
    fn frequency_response_sweep_and_peak() {
        let (c, vout) = active_bandpass();
        let resp = FrequencyResponse::sweep(&c, "Vin", vout, &SweepConfig::default()).unwrap();
        assert!(!resp.points().is_empty());
        let (f_peak, g_peak) = resp.peak();
        assert!(f_peak > 100.0 && f_peak < 10_000.0);
        assert!(g_peak > 1.0, "peak gain {g_peak}");
    }

    #[test]
    fn shared_mna_analyzer_matches_owned_and_reuses_factorizations() {
        let (c, vout) = rc_lowpass(1000.0);
        let mna = Mna::new(&c);
        let shared = ResponseAnalyzer::from_mna(&mna, "Vin", vout);
        let owned = ResponseAnalyzer::new(&c, "Vin", vout);
        assert_eq!(shared.dc_gain().unwrap(), owned.dc_gain().unwrap());
        let fh_shared = shared.high_cutoff().unwrap();
        let fh_owned = owned.high_cutoff().unwrap();
        assert!((fh_shared - fh_owned).abs() < 1e-9);
        // A second extraction over the same analyzer re-solves the same
        // frequency grid: the cached factorizations must absorb most of it.
        let stats_before = mna.solver_stats();
        let _ = shared.high_cutoff().unwrap();
        let stats_after = mna.solver_stats();
        let new_solves = stats_after.solves - stats_before.solves;
        let new_factorizations = stats_after.factorizations - stats_before.factorizations;
        assert!(
            new_factorizations < new_solves / 2,
            "repeat extraction should be cache-dominated: {new_factorizations} factorizations for {new_solves} solves"
        );
        // The sweep helper can share the same engine.
        let resp =
            FrequencyResponse::sweep_with_mna(&mna, "Vin", vout, &SweepConfig::default()).unwrap();
        assert!(!resp.points().is_empty());
    }

    /// An independent dense reference for [`ResponseAnalyzer::peak`] and
    /// the cut-offs: 20,001 log-spaced samples over the sweep range, the
    /// best one refined by ternary search between its neighbours, and each
    /// cut-off by bisection of the first dense pair that crosses `peak/√2`
    /// (from the start up to the peak, and from the peak up).
    struct DenseReference {
        peak: (f64, f64),
        low: Option<f64>,
        high: Option<f64>,
    }

    fn dense_reference(circuit: &Circuit, output: NodeId, config: &SweepConfig) -> DenseReference {
        const POINTS: usize = 20_001;
        let mna = Mna::new(circuit);
        let gain = |f: f64| mna.gain("Vin", output, f).unwrap();
        let (lo, hi) = (config.start_hz.ln(), config.stop_hz.ln());
        let samples: Vec<(f64, f64)> = (0..POINTS)
            .map(|i| (lo + (hi - lo) * i as f64 / (POINTS - 1) as f64).exp())
            .map(|f| (f, gain(f)))
            .collect();
        let best = (0..POINTS)
            .max_by(|&i, &j| samples[i].1.total_cmp(&samples[j].1))
            .unwrap();
        let (mut a, mut b) = (
            samples[best.saturating_sub(1)].0.ln(),
            samples[(best + 1).min(POINTS - 1)].0.ln(),
        );
        for _ in 0..200 {
            let (m1, m2) = (a + (b - a) / 3.0, b - (b - a) / 3.0);
            if gain(m1.exp()) < gain(m2.exp()) {
                a = m1;
            } else {
                b = m2;
            }
        }
        let f_peak = ((a + b) / 2.0).exp();
        let peak = (f_peak, gain(f_peak));
        let threshold = peak.1 / std::f64::consts::SQRT_2;
        let crossing = |scan: Vec<(f64, f64)>, rising: bool| {
            let pair = scan.windows(2).find(|w| {
                let (g0, g1) = (w[0].1, w[1].1);
                if rising {
                    g0 < threshold && g1 >= threshold
                } else {
                    g0 >= threshold && g1 < threshold
                }
            })?;
            let (mut a, mut b) = (pair[0].0, pair[1].0);
            for _ in 0..100 {
                let mid = (a * b).sqrt();
                if (gain(mid) < threshold) == rising {
                    a = mid;
                } else {
                    b = mid;
                }
            }
            Some((a * b).sqrt())
        };
        let below = samples.iter().copied().filter(|&(f, _)| f < f_peak);
        let above = samples.iter().copied().filter(|&(f, _)| f > f_peak);
        DenseReference {
            peak,
            low: crossing(below.chain([peak]).collect(), true),
            high: crossing([peak].into_iter().chain(above).collect(), false),
        }
    }

    fn assert_matches_dense_reference(circuit: &Circuit, output: NodeId, config: SweepConfig) {
        let an = ResponseAnalyzer::new(circuit, "Vin", output).with_sweep(config);
        let reference = dense_reference(circuit, output, &config);
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs();
        let (f_peak, g_peak) = an.peak().unwrap();
        assert!(
            rel(g_peak, reference.peak.1) <= 1e-9,
            "peak gain {g_peak} vs {:?}",
            reference.peak
        );
        // The frequency of a smooth maximum is fixed only to about the
        // square root of the gain's round-off.
        assert!(
            rel(f_peak, reference.peak.0) <= 1e-6,
            "peak at {f_peak} vs {:?}",
            reference.peak
        );
        for (side, found, expected) in [
            ("low", an.low_cutoff().ok(), reference.low),
            ("high", an.high_cutoff().ok(), reference.high),
        ] {
            match (found, expected) {
                (Some(f), Some(r)) => assert!(rel(f, r) <= 1e-9, "{side} cut-off {f} vs {r}"),
                (None, None) => {}
                _ => panic!("{side} cut-off {found:?} vs dense {expected:?}"),
            }
        }
    }

    #[test]
    fn peak_and_cutoffs_match_a_dense_reference() {
        let (c, vout) = rc_lowpass(1000.0);
        assert_matches_dense_reference(&c, vout, SweepConfig::default());
        let (c, vout) = active_bandpass();
        assert_matches_dense_reference(&c, vout, SweepConfig::default());
        let chebyshev = crate::filters::fifth_order_chebyshev();
        let sweep = chebyshev.parameters()[0].sweep;
        assert_matches_dense_reference(chebyshev.circuit(), chebyshev.output_node(), sweep);
        // The board's two sweep parameters: the `v2` peak (`A2max`) and the
        // `v1` low cut-off (`fh1`).
        let board = crate::filters::state_variable_filter();
        let sweep = board.parameters()[0].sweep;
        for output in ["v2", "v1"] {
            let node = board.circuit().find_node(output).unwrap();
            assert_matches_dense_reference(board.circuit(), node, sweep);
        }
        // C1 30 % low moves the band-pass peak off the grid's log-midpoint
        // between its neighbours, so Brent starts from a skewed bracket.
        let mut bandpass = crate::filters::second_order_band_pass();
        let c1 = bandpass.circuit().find_element("C1").unwrap();
        bandpass.circuit_mut().scale_value(c1, 0.7);
        let sweep = bandpass.parameters()[0].sweep;
        assert_matches_dense_reference(bandpass.circuit(), bandpass.output_node(), sweep);
    }

    /// Solves `call` makes on a fresh engine.
    fn solves(
        circuit: &Circuit,
        output: &str,
        sweep: SweepConfig,
        call: impl Fn(&ResponseAnalyzer<'_>),
    ) -> u64 {
        let mna = Mna::new(circuit);
        let output = circuit.find_node(output).unwrap();
        call(&ResponseAnalyzer::from_mna(&mna, "Vin", output).with_sweep(sweep));
        mna.solver_stats().solves
    }

    /// Brent's peak search and the Illinois crossing start from points the
    /// grid already solved, so each needs only a handful of solves beyond
    /// it.
    #[test]
    fn peak_and_crossing_solve_counts() {
        let board = crate::filters::state_variable_filter();
        let sweep = board.parameters()[0].sweep;
        let grid = sweep.frequencies().len() as u64;
        let peak = |an: &ResponseAnalyzer<'_>| {
            an.peak().unwrap();
        };
        let low_cutoff = |an: &ResponseAnalyzer<'_>| {
            an.low_cutoff().unwrap();
        };
        let refinement = solves(board.circuit(), "v2", sweep, peak) - grid;
        assert!(refinement <= 12, "{refinement} peak solves beyond the grid");
        let v1_peak = solves(board.circuit(), "v1", sweep, peak);
        let crossing = solves(board.circuit(), "v1", sweep, low_cutoff) - v1_peak;
        assert!(crossing <= 10, "{crossing} crossing solves beyond the peak");
        // The RC low-pass peaks at the grid start: no refinement at all.
        let rc = crate::filters::rc_low_pass(1000.0);
        let sweep = rc.parameters()[0].sweep;
        let grid = sweep.frequencies().len() as u64;
        assert_eq!(solves(rc.circuit(), "vout", sweep, peak), grid);
    }

    /// With C4 15.36 % low, a passband-ripple dip of the Chebyshev filter
    /// falls below `peak/√2` near 877 Hz, well before the band edge: the
    /// cut-off is that first crossing, which the sweep grid brackets.
    #[test]
    fn chebyshev_ripple_dip_is_the_cutoff() {
        let mut chebyshev = crate::filters::fifth_order_chebyshev();
        let c4 = chebyshev.circuit().find_element("C4").unwrap();
        chebyshev.circuit_mut().scale_value(c4, 1.0 - 0.1536);
        let sweep = chebyshev.parameters()[0].sweep;
        let output = chebyshev.output_node();
        let fc = ResponseAnalyzer::new(chebyshev.circuit(), "Vin", output)
            .with_sweep(sweep)
            .high_cutoff()
            .unwrap();
        assert!((fc - 876.76).abs() < 0.01, "fc = {fc}");
        assert_matches_dense_reference(chebyshev.circuit(), output, sweep);
    }
}
