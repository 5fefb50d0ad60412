//! Frequency-response extraction: sweeps, peak search and cut-off frequencies.

use msatpg_exec::{par_map_chunks, CancelToken, ExecPolicy};

use crate::mna::Mna;
use crate::netlist::{Circuit, NodeId};
use crate::AnalogError;

/// Number of sweep points per parallel work unit: large enough to amortize
/// the per-chunk engine stamping, small enough to balance a default sweep
/// (~211 points) across a handful of workers.
const SWEEP_CHUNK: usize = 32;

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
    /// reusing its stamp pattern, per-frequency systems and factorizations.
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
        let mut points = Vec::new();
        for f in config.frequencies() {
            let gain = mna.gain(source, output, f)?;
            points.push((f, gain));
        }
        Ok(FrequencyResponse { points })
    }

    /// [`FrequencyResponse::sweep_with_mna`] under a cooperative
    /// [`CancelToken`]: one unit of the token's step quota is charged per
    /// sweep frequency, so a step-quota token interrupts the sweep after a
    /// deterministic number of points (a wall-clock deadline interrupts at
    /// the first point past it).  The partial sweep is discarded.
    ///
    /// # Errors
    ///
    /// [`AnalogError::Cancelled`] when the token fires mid-sweep; otherwise
    /// solver errors (singular MNA matrix, unknown source).
    pub fn sweep_with_mna_cancellable(
        mna: &Mna<'_>,
        source: &str,
        output: NodeId,
        config: &SweepConfig,
        cancel: &CancelToken,
    ) -> Result<Self, AnalogError> {
        let mut points = Vec::new();
        for f in config.frequencies() {
            if !cancel.charge(1) {
                return Err(AnalogError::Cancelled);
            }
            let gain = mna.gain(source, output, f)?;
            points.push((f, gain));
        }
        Ok(FrequencyResponse { points })
    }

    /// Samples the response with the sweep's frequency grid split into
    /// chunks executed on the worker pool; each chunk stamps its own MNA
    /// engine.  A solve at one frequency is a pure function of the circuit,
    /// so the sampled points are bit-identical to [`FrequencyResponse::sweep`]
    /// under every [`ExecPolicy`].
    ///
    /// # Errors
    ///
    /// Propagates solver errors (singular MNA matrix, unknown source).
    pub fn sweep_policy(
        circuit: &Circuit,
        source: &str,
        output: NodeId,
        config: &SweepConfig,
        policy: ExecPolicy,
    ) -> Result<Self, AnalogError> {
        if policy.is_serial() {
            // One engine for the whole grid beats per-chunk stamping.
            return Self::sweep(circuit, source, output, config);
        }
        let freqs = config.frequencies();
        let chunks = par_map_chunks(policy, &freqs, SWEEP_CHUNK, |_, _, chunk_freqs| {
            let mna = Mna::new(circuit);
            chunk_freqs
                .iter()
                .map(|&f| mna.gain(source, output, f).map(|g| (f, g)))
                .collect::<Result<Vec<(f64, f64)>, AnalogError>>()
        });
        let mut points = Vec::with_capacity(freqs.len());
        for chunk in chunks {
            points.extend(chunk?);
        }
        Ok(FrequencyResponse { points })
    }

    /// [`FrequencyResponse::sweep_policy`] under a cooperative
    /// [`CancelToken`].  The whole grid is charged against the token's step
    /// quota **up front** (one unit per frequency) — an all-or-nothing
    /// decision that is deterministic under every [`ExecPolicy`] — and the
    /// workers additionally poll [`CancelToken::is_cancelled`] at chunk
    /// entry so an external cancel or a wall-clock deadline stops the sweep
    /// early.
    ///
    /// # Errors
    ///
    /// [`AnalogError::Cancelled`] when the token fires; otherwise solver
    /// errors.
    pub fn sweep_policy_cancellable(
        circuit: &Circuit,
        source: &str,
        output: NodeId,
        config: &SweepConfig,
        policy: ExecPolicy,
        cancel: &CancelToken,
    ) -> Result<Self, AnalogError> {
        if policy.is_serial() {
            let mna = Mna::new(circuit);
            return Self::sweep_with_mna_cancellable(&mna, source, output, config, cancel);
        }
        let freqs = config.frequencies();
        if !cancel.charge(freqs.len() as u64) {
            return Err(AnalogError::Cancelled);
        }
        let chunks = par_map_chunks(policy, &freqs, SWEEP_CHUNK, |_, _, chunk_freqs| {
            if cancel.is_cancelled() {
                return Err(AnalogError::Cancelled);
            }
            let mna = Mna::new(circuit);
            chunk_freqs
                .iter()
                .map(|&f| mna.gain(source, output, f).map(|g| (f, g)))
                .collect::<Result<Vec<(f64, f64)>, AnalogError>>()
        });
        let mut points = Vec::with_capacity(freqs.len());
        for chunk in chunks {
            points.extend(chunk?);
        }
        Ok(FrequencyResponse { points })
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

    /// Gain at the lowest swept frequency (a proxy for the DC gain of
    /// low-pass responses).
    pub fn low_frequency_gain(&self) -> f64 {
        self.points.first().map(|&(_, g)| g).unwrap_or(0.0)
    }

    /// Gain at the highest swept frequency.
    pub fn high_frequency_gain(&self) -> f64 {
        self.points.last().map(|&(_, g)| g).unwrap_or(0.0)
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
/// solver (sweep for bracketing, bisection for refinement).
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

    /// Maximum gain over the sweep range, refined by golden-section search,
    /// returned as `(frequency, gain)`.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn peak(&self) -> Result<(f64, f64), AnalogError> {
        let freqs = self.config.frequencies();
        let mut best_i = 0usize;
        let mut best_g = -1.0;
        for (i, &f) in freqs.iter().enumerate() {
            let g = self.gain_at(f)?;
            if g > best_g {
                best_g = g;
                best_i = i;
            }
        }
        // Refine around the best sample with golden-section search in log-f.
        let lo = freqs[best_i.saturating_sub(1)];
        let hi = freqs[(best_i + 1).min(freqs.len() - 1)];
        if lo >= hi {
            return Ok((freqs[best_i], best_g));
        }
        let (mut a, mut b) = (lo.ln(), hi.ln());
        let phi = (5f64.sqrt() - 1.0) / 2.0;
        for _ in 0..60 {
            let c = b - phi * (b - a);
            let d = a + phi * (b - a);
            let gc = self.gain_at(c.exp())?;
            let gd = self.gain_at(d.exp())?;
            if gc > gd {
                b = d;
            } else {
                a = c;
            }
        }
        let f_peak = ((a + b) / 2.0).exp();
        Ok((f_peak, self.gain_at(f_peak)?))
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
        let (f_peak, g_peak) = self.peak()?;
        let threshold = g_peak / std::f64::consts::SQRT_2;
        self.find_crossing(self.config.start_hz, f_peak, threshold, true)
    }

    /// High cut-off: the lowest frequency *above* the gain peak at which the
    /// gain falls to `peak/√2`.
    ///
    /// # Errors
    ///
    /// [`AnalogError::ParameterNotFound`] if no high-side crossing exists in
    /// the sweep range; otherwise solver errors.
    pub fn high_cutoff(&self) -> Result<f64, AnalogError> {
        let (f_peak, g_peak) = self.peak()?;
        let threshold = g_peak / std::f64::consts::SQRT_2;
        self.find_crossing(f_peak, self.config.stop_hz, threshold, false)
    }

    /// Finds the −3 dB crossing inside `[lo, hi]`.  When `rising` is true the
    /// gain is expected to rise through the threshold as frequency increases
    /// (low-side skirt); otherwise to fall through it (high-side skirt).
    fn find_crossing(
        &self,
        lo: f64,
        hi: f64,
        threshold: f64,
        rising: bool,
    ) -> Result<f64, AnalogError> {
        // Bracket by scanning log-spaced points.
        let steps = 200usize;
        let (lln, hln) = (lo.ln(), hi.ln());
        let mut prev_f = lo;
        let mut prev_g = self.gain_at(lo)?;
        let mut bracket = None;
        for i in 1..=steps {
            let f = (lln + (hln - lln) * i as f64 / steps as f64).exp();
            let g = self.gain_at(f)?;
            let crossed = if rising {
                prev_g < threshold && g >= threshold
            } else {
                prev_g >= threshold && g < threshold
            };
            if crossed {
                bracket = Some((prev_f, f));
                break;
            }
            prev_f = f;
            prev_g = g;
        }
        let (mut a, mut b) = bracket.ok_or(AnalogError::ParameterNotFound {
            what: "-3 dB crossing".to_owned(),
        })?;
        // Up to 80 bisection steps, stopping early once the bracket no
        // longer changes at f64 resolution (every later step would re-solve
        // the same midpoint).
        for _ in 0..80 {
            let mid = (a.ln() + b.ln()) / 2.0;
            let f = mid.exp();
            let g = self.gain_at(f)?;
            let below = g < threshold;
            let next = if rising == below { (f, b) } else { (a, f) };
            if next == (a, b) {
                break;
            }
            (a, b) = next;
        }
        Ok((a * b).sqrt())
    }
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
        assert!(g_peak > resp.low_frequency_gain());
        assert!(g_peak > resp.high_frequency_gain());
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let (c, vout) = active_bandpass();
        let config = SweepConfig::default();
        let reference = FrequencyResponse::sweep(&c, "Vin", vout, &config).unwrap();
        for policy in [
            ExecPolicy::Serial,
            ExecPolicy::Threads(2),
            ExecPolicy::Threads(8),
            ExecPolicy::Auto,
        ] {
            let swept = FrequencyResponse::sweep_policy(&c, "Vin", vout, &config, policy).unwrap();
            assert_eq!(swept.points(), reference.points(), "{policy:?}");
        }
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

    #[test]
    fn cancellable_sweep_matches_plain_when_the_quota_suffices() {
        let (c, vout) = rc_lowpass(1000.0);
        let config = SweepConfig::default();
        let mna = Mna::new(&c);
        let plain = FrequencyResponse::sweep_with_mna(&mna, "Vin", vout, &config).unwrap();
        let token = CancelToken::new();
        let governed =
            FrequencyResponse::sweep_with_mna_cancellable(&mna, "Vin", vout, &config, &token)
                .unwrap();
        assert_eq!(governed.points(), plain.points());
        for policy in [ExecPolicy::Serial, ExecPolicy::Threads(2)] {
            let token = CancelToken::with_step_quota(config.frequencies().len() as u64 + 8);
            let parallel = FrequencyResponse::sweep_policy_cancellable(
                &c, "Vin", vout, &config, policy, &token,
            )
            .unwrap();
            assert_eq!(parallel.points(), plain.points());
        }
    }

    #[test]
    fn step_quota_interrupts_the_sweep_deterministically() {
        let (c, vout) = rc_lowpass(1000.0);
        let config = SweepConfig::default();
        let grid = config.frequencies().len() as u64;
        assert!(grid > 10, "the default grid spans many points");
        // Serial: the quota fires mid-grid, after a deterministic number of
        // per-frequency charges.
        let mna = Mna::new(&c);
        let token = CancelToken::with_step_quota(10);
        let result =
            FrequencyResponse::sweep_with_mna_cancellable(&mna, "Vin", vout, &config, &token);
        assert_eq!(result, Err(AnalogError::Cancelled));
        assert!(token.is_cancelled());
        // Parallel: the whole grid is charged up front, all or nothing.
        let token = CancelToken::with_step_quota(grid / 2);
        let result = FrequencyResponse::sweep_policy_cancellable(
            &c,
            "Vin",
            vout,
            &config,
            ExecPolicy::Threads(2),
            &token,
        );
        assert_eq!(result, Err(AnalogError::Cancelled));
    }
}
