//! The end-to-end mixed-signal test-generation flow: analog element tests,
//! conversion-block tests and constrained digital stuck-at tests combined
//! into one [`TestPlan`].

use std::path::PathBuf;

use msatpg_analog::coverage::CoverageGraph;
use msatpg_analog::sensitivity::{DeviationReport, WorstCaseAnalysis};
use msatpg_bdd::BddBudget;
use msatpg_conversion::fault::ladder_coverage;
use msatpg_digital::fault::FaultList;
use msatpg_digital::fault_sim::WordWidth;
use msatpg_exec::{ExecPolicy, WorkerPool};

use crate::analog_atpg::{AnalogAtpg, AnalogTestEntry, ElementTestRequest};
use crate::digital_atpg::{AtpgReport, DigitalAtpg};
use crate::mixed_circuit::{ConverterBlock, MixedCircuit};
use crate::ordering::DvoMode;
use crate::store::{self, CheckpointPolicy};
use crate::CoreError;

/// Options controlling a [`MixedSignalAtpg`] run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AtpgOptions {
    /// Parameter tolerance box (fraction), ±5 % in the paper.
    pub parameter_tolerance: f64,
    /// Fault-free element tolerance used for worst-case masking.
    pub element_tolerance: f64,
    /// Use worst-case masking (true) or nominal-only analysis (false).
    pub worst_case: bool,
    /// Largest element deviation searched (fraction).
    pub max_deviation: f64,
    /// Use the collapsed stuck-at fault list (true) or the full one (false).
    pub collapse_faults: bool,
    /// Execution policy of the analog deviation analysis, the one stage
    /// that runs on the worker pool (one row per (parameter, element)
    /// pair).  Every other stage is serial under every policy.  Every
    /// policy produces a byte-identical [`TestPlan`]; `Serial` is the
    /// default.
    pub exec: ExecPolicy,
    /// Resource budget for the digital OBDD engines.  Unlimited by default;
    /// arming it makes the stuck-at passes degrade gracefully instead of
    /// blowing up on pathological cones (see
    /// [`DigitalAtpg::with_budget`](crate::DigitalAtpg::with_budget)).
    pub bdd_budget: BddBudget,
    /// PPSFP block width of the digital stages (fault-dropping pre-screens
    /// and degraded-fault verification).  The default honors the
    /// `MSATPG_WORD_WIDTH` environment variable; every width produces a
    /// byte-identical [`TestPlan`] (see
    /// [`DigitalAtpg::with_word_width`](crate::DigitalAtpg::with_word_width)).
    pub word_width: WordWidth,
    /// Dynamic variable reordering of the two stuck-at engines (the
    /// constrained and the unconstrained pass).  The default honors the
    /// `MSATPG_DVO` environment variable; every mode produces an
    /// *equivalent* [`TestPlan`] (same coverage and outcome taxonomy,
    /// possibly different test cubes — see
    /// [`DigitalAtpg::with_dvo`](crate::DigitalAtpg::with_dvo)), and within
    /// one mode the plan stays byte-identical across runs and policies.
    /// The analog tests and the conversion stage never sift: their
    /// propagation queries read the same cubes in every mode.
    pub dvo: DvoMode,
}

impl Default for AtpgOptions {
    fn default() -> Self {
        AtpgOptions {
            parameter_tolerance: 0.05,
            element_tolerance: 0.05,
            worst_case: false,
            max_deviation: 5.0,
            collapse_faults: true,
            exec: ExecPolicy::Serial,
            bdd_budget: BddBudget::UNLIMITED,
            word_width: WordWidth::Auto,
            dvo: DvoMode::Auto,
        }
    }
}

/// Coverage of one conversion-block ladder resistor inside the mixed
/// circuit.
#[derive(Clone, Debug, PartialEq)]
pub struct ConversionTestEntry {
    /// 1-based resistor index (bottom of the ladder first).
    pub resistor: usize,
    /// 1-based comparator through which it is best tested, or `None` when no
    /// usable comparator can test it (the dashed cells of Table 7).
    pub comparator: Option<usize>,
    /// Detectable deviation (fraction) through that comparator.
    pub detectable_deviation: Option<f64>,
}

/// The complete output of the mixed-signal ATPG.
#[derive(Clone, Debug)]
pub struct TestPlan {
    /// Constrained stuck-at ATPG results for the digital block.
    pub digital: AtpgReport,
    /// Unconstrained results for comparison (the paper's "case 1").
    pub digital_unconstrained: AtpgReport,
    /// Analog element tests (one entry per element, at its detectable
    /// deviation).
    pub analog: Vec<AnalogTestEntry>,
    /// Element-deviation report of the analog block (the E.D. columns of
    /// Tables 3 and 8).
    pub analog_deviations: DeviationReport,
    /// Conversion-block ladder coverage inside the mixed circuit (Table 7)
    /// — empty for binary converters.
    pub conversion: Vec<ConversionTestEntry>,
}

impl TestPlan {
    /// Number of analog elements for which a complete test was found.
    pub fn analog_tested_count(&self) -> usize {
        self.analog.iter().filter(|e| e.outcome.is_tested()).count()
    }

    /// Fraction of analog elements with a complete test.
    pub fn analog_coverage(&self) -> f64 {
        if self.analog.is_empty() {
            return 1.0;
        }
        self.analog_tested_count() as f64 / self.analog.len() as f64
    }
}

/// The top-level mixed-signal test generator.
///
/// # Example
///
/// ```no_run
/// use msatpg_core::{MixedCircuit, MixedSignalAtpg, ConverterBlock};
/// use msatpg_analog::filters;
/// use msatpg_conversion::FlashAdc;
/// use msatpg_digital::circuits;
///
/// let mut mixed = MixedCircuit::new(
///     "figure4",
///     filters::second_order_band_pass(),
///     ConverterBlock::Flash(FlashAdc::uniform(2, 3.0)?),
///     circuits::figure3_circuit(),
/// );
/// mixed.connect_in_order(&["l0", "l2"])?;
/// let plan = MixedSignalAtpg::new(mixed).run()?;
/// println!("analog coverage: {:.0}%", plan.analog_coverage() * 100.0);
/// println!("untestable digital faults: {}", plan.digital.untestable_count());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct MixedSignalAtpg {
    circuit: MixedCircuit,
    options: AtpgOptions,
    checkpoint: Option<(CheckpointPolicy, PathBuf)>,
}

impl MixedSignalAtpg {
    /// Creates the generator with default options.
    pub fn new(circuit: MixedCircuit) -> Self {
        MixedSignalAtpg {
            circuit,
            options: AtpgOptions::default(),
            checkpoint: None,
        }
    }

    /// Replaces the options.
    pub fn with_options(mut self, options: AtpgOptions) -> Self {
        self.options = options;
        self
    }

    /// Arms campaign checkpointing for the digital ATPG stages: each stage
    /// journals its per-fault outcomes into `dir`
    /// (`digital_constrained.ckpt` / `digital_unconstrained.ckpt`) per
    /// `policy`, and — when a valid snapshot for the same circuit and fault
    /// list is already present — resumes from it instead of starting over.
    /// A missing, corrupt or mismatched snapshot silently falls back to a
    /// fresh campaign; genuine I/O failures while *writing* a checkpoint
    /// still surface as [`CoreError::Store`].
    pub fn with_checkpoint(mut self, policy: CheckpointPolicy, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some((policy, dir.into()));
        self
    }

    /// Wires the armed checkpoint directory (if any) into one digital
    /// stage: arms journaling on `stage_file` and resumes from a valid
    /// pre-existing snapshot.
    fn checkpointed<'a>(
        &self,
        atpg: DigitalAtpg<'a>,
        faults: &FaultList,
        stage_file: &str,
    ) -> DigitalAtpg<'a> {
        let Some((policy, dir)) = &self.checkpoint else {
            return atpg;
        };
        let path = dir.join(stage_file);
        let atpg = match store::load_checkpoint(&path, self.circuit.digital(), faults.faults()) {
            Ok(snapshot) => atpg.with_resume(snapshot),
            // No snapshot yet, or an unusable one (torn, corrupt, from a
            // different campaign): start fresh and overwrite it.
            Err(_) => atpg,
        };
        atpg.with_checkpoint(*policy, path)
    }

    /// The mixed circuit under test.
    pub fn circuit(&self) -> &MixedCircuit {
        &self.circuit
    }

    /// Runs the constrained digital ATPG (the paper's "case 2").
    ///
    /// # Errors
    ///
    /// Propagates ATPG errors.
    pub fn digital_constrained(&self) -> Result<AtpgReport, CoreError> {
        self.digital_constrained_on(&WorkerPool::new(self.options.exec))
    }

    /// [`MixedSignalAtpg::digital_constrained`] with the shared worker pool
    /// of the other `_on` stages.  The stage runs on the calling thread
    /// (see [`DigitalAtpg::run_on`](crate::DigitalAtpg::run_on)).
    ///
    /// On the `_on` paths the **pool's policy** governs execution where a
    /// stage uses the pool — `options.exec` only matters when the
    /// convenience wrappers build the pool themselves.
    ///
    /// # Errors
    ///
    /// Propagates ATPG errors.
    pub fn digital_constrained_on(&self, pool: &WorkerPool) -> Result<AtpgReport, CoreError> {
        let faults = self.fault_list();
        let lines = self.circuit.constrained_inputs();
        let codes = self.circuit.allowed_codes();
        let atpg = DigitalAtpg::new(self.circuit.digital())
            .with_budget(self.options.bdd_budget)
            .with_word_width(self.options.word_width)
            .with_constraints(&lines, &codes)?
            .with_dvo(self.options.dvo);
        let mut atpg = self.checkpointed(atpg, &faults, "digital_constrained.ckpt");
        atpg.run_on(pool, &faults)
    }

    /// Runs the unconstrained digital ATPG (the paper's "case 1", every
    /// block accessed directly).
    ///
    /// # Errors
    ///
    /// Propagates ATPG errors.
    pub fn digital_unconstrained(&self) -> Result<AtpgReport, CoreError> {
        self.digital_unconstrained_on(&WorkerPool::new(self.options.exec))
    }

    /// [`MixedSignalAtpg::digital_unconstrained`] with the shared worker
    /// pool of the other `_on` stages; like the constrained stage, it runs
    /// on the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates ATPG errors.
    pub fn digital_unconstrained_on(&self, pool: &WorkerPool) -> Result<AtpgReport, CoreError> {
        let faults = self.fault_list();
        let atpg = DigitalAtpg::new(self.circuit.digital())
            .with_budget(self.options.bdd_budget)
            .with_word_width(self.options.word_width)
            .with_dvo(self.options.dvo);
        let mut atpg = self.checkpointed(atpg, &faults, "digital_unconstrained.ckpt");
        atpg.run_on(pool, &faults)
    }

    /// Computes the analog element-deviation report (worst-case or nominal
    /// per the options).
    ///
    /// # Errors
    ///
    /// Propagates analog measurement errors.
    pub fn analog_deviation_report(&self) -> Result<DeviationReport, CoreError> {
        self.analog_deviation_report_on(&WorkerPool::new(self.options.exec))
    }

    /// [`MixedSignalAtpg::analog_deviation_report`] on a shared worker pool
    /// (whose policy governs execution, as on every `_on` path).
    ///
    /// # Errors
    ///
    /// Propagates analog measurement errors.
    pub fn analog_deviation_report_on(
        &self,
        pool: &WorkerPool,
    ) -> Result<DeviationReport, CoreError> {
        WorstCaseAnalysis::new(
            self.circuit.analog().circuit(),
            self.circuit.analog().parameters(),
        )
        .with_parameter_tolerance(self.options.parameter_tolerance)
        .with_element_tolerance(self.options.element_tolerance)
        .with_worst_case(self.options.worst_case)
        .with_max_deviation(self.options.max_deviation)
        .run_on(pool)
        .map_err(|e| CoreError::Analog(e.to_string()))
    }

    /// Generates analog element tests from a precomputed deviation report.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn analog_tests(
        &self,
        deviations: &DeviationReport,
    ) -> Result<Vec<AnalogTestEntry>, CoreError> {
        self.analog_tests_on(&WorkerPool::new(self.options.exec), deviations)
    }

    /// [`MixedSignalAtpg::analog_tests`] with the shared worker pool of the
    /// other `_on` stages.  The stage runs on the calling thread: the cheap
    /// per-element parameter ranking happens inline, then
    /// [`AnalogAtpg::test_elements`] measures the Table-1 stimulus table
    /// once for the whole batch (one entry per ranked parameter) and runs
    /// the stimulus/propagation searches element by element, solving the
    /// faulty circuit once per (element, parameter).  After the stimulus
    /// table an element is ≈ 0.1–0.2 ms of work, and spreading the Figure-8
    /// board's elements over a 2-thread pool took longer than this loop.
    /// Each result fills the slot of its request, so entries come back in
    /// element order.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn analog_tests_on(
        &self,
        _pool: &WorkerPool,
        deviations: &DeviationReport,
    ) -> Result<Vec<AnalogTestEntry>, CoreError> {
        let atpg = AnalogAtpg::new(&self.circuit).with_tolerance(self.options.parameter_tolerance);
        let graph = CoverageGraph::from_report(deviations);
        let analog = self.circuit.analog();
        // Slot per element: either a ready entry (nothing detects the
        // element — no simulation needed) or `None`, filled below from the
        // batch test of the request that names the slot.
        let mut slots: Vec<Option<AnalogTestEntry>> = Vec::new();
        let mut requests: Vec<ElementTestRequest> = Vec::new();
        let mut request_slots: Vec<usize> = Vec::new();
        for (element_id, element_name) in deviations.elements() {
            // Rank the parameters for this element by detectable deviation
            // (the paper tests "the parameter that is the most sensitive to a
            // deviation in the element" first).
            let ranking: Vec<_> = deviations
                .ranked_rows(element_name)
                .into_iter()
                .filter_map(|row| {
                    analog
                        .parameters()
                        .iter()
                        .find(|p| p.name == row.parameter)
                        .cloned()
                })
                .collect();
            let Some(best) = graph.best_deviation(element_name) else {
                slots.push(Some(AnalogTestEntry {
                    element: element_name.clone(),
                    parameter: "-".to_owned(),
                    deviation: f64::NAN,
                    direction: crate::activation::DeviationSign::Below,
                    outcome: crate::analog_atpg::AnalogTestOutcome::Failed(
                        crate::analog_atpg::AnalogTestFailure::ActivationFailed,
                    ),
                }));
                continue;
            };
            // Inject a deviation 20 % beyond the detectable threshold, in the
            // negative direction (component value drops), as on the paper's
            // validation board.
            let injected = -(best * 1.2).min(0.95);
            request_slots.push(slots.len());
            slots.push(None);
            requests.push(ElementTestRequest {
                element: *element_id,
                deviation: injected,
                ranking,
            });
        }
        let tested = atpg.test_elements(&requests)?;
        for (slot, entry) in request_slots.into_iter().zip(tested) {
            slots[slot] = Some(entry);
        }
        Ok(slots.into_iter().flatten().collect())
    }

    /// Computes the conversion-block ladder coverage inside the mixed
    /// circuit (Table 7): each ladder resistor is tested through the best
    /// comparator whose flip can still be propagated through the constrained
    /// digital block.
    ///
    /// # Errors
    ///
    /// Propagates propagation errors.
    pub fn conversion_tests(&self) -> Result<Vec<ConversionTestEntry>, CoreError> {
        self.conversion_tests_on(&WorkerPool::new(self.options.exec))
    }

    /// [`MixedSignalAtpg::conversion_tests`] with the shared worker pool of
    /// the other `_on` stages.  The stage runs on the calling thread: the
    /// comparator study asks a simulation witness first and the digital
    /// block's OBDD engine ([`DigitalAtpg::try_propagate`], one unconstrained
    /// engine built on first need) only for the lines the witness leaves
    /// open, and the ladder thresholds are solved in closed form.
    ///
    /// # Errors
    ///
    /// Propagates propagation errors.
    pub fn conversion_tests_on(
        &self,
        pool: &WorkerPool,
    ) -> Result<Vec<ConversionTestEntry>, CoreError> {
        let ConverterBlock::Flash(adc) = self.circuit.converter() else {
            return Ok(Vec::new());
        };
        let coverage = ladder_coverage(adc.ladder(), self.options.parameter_tolerance, 50.0)
            .map_err(|e| CoreError::Conversion(e.to_string()))?;
        // Which comparators can propagate a flip through the digital block?
        let atpg = AnalogAtpg::new(&self.circuit);
        let study = atpg.comparator_propagation_study_on(pool)?;
        let usable: Vec<usize> = study
            .iter()
            .enumerate()
            .filter(|(_, &(d, dbar))| d || dbar)
            .map(|(i, _)| i + 1)
            .collect();
        let assignment = coverage.best_assignment(&usable);
        Ok(assignment
            .into_iter()
            .map(|(resistor, best)| ConversionTestEntry {
                resistor,
                comparator: best.map(|(k, _)| k),
                detectable_deviation: best.map(|(_, d)| d),
            })
            .collect())
    }

    /// Runs the complete flow and assembles the [`TestPlan`].
    ///
    /// One [`WorkerPool`] is threaded through every stage — the analog
    /// deviation rows ride it, while the digital ATPG, the analog element
    /// tests and the conversion stage run serially — so its
    /// [`msatpg_exec::PoolStats`] describe the entire mixed-signal run.
    ///
    /// # Errors
    ///
    /// Propagates errors from any of the stages.
    pub fn run(&self) -> Result<TestPlan, CoreError> {
        self.run_on(&WorkerPool::new(self.options.exec))
    }

    /// [`MixedSignalAtpg::run`] on a caller-provided pool.
    ///
    /// # Errors
    ///
    /// Propagates errors from any of the stages.
    pub fn run_on(&self, pool: &WorkerPool) -> Result<TestPlan, CoreError> {
        self.circuit.validate()?;
        let digital = self.digital_constrained_on(pool)?;
        let digital_unconstrained = self.digital_unconstrained_on(pool)?;
        let analog_deviations = self.analog_deviation_report_on(pool)?;
        let analog = self.analog_tests_on(pool, &analog_deviations)?;
        let conversion = self.conversion_tests_on(pool)?;
        Ok(TestPlan {
            digital,
            digital_unconstrained,
            analog,
            analog_deviations,
            conversion,
        })
    }

    fn fault_list(&self) -> FaultList {
        if self.options.collapse_faults {
            FaultList::collapsed(self.circuit.digital())
        } else {
            FaultList::all(self.circuit.digital())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msatpg_analog::filters;
    use msatpg_conversion::constraints::AllowedCodes;
    use msatpg_conversion::FlashAdc;
    use msatpg_digital::circuits;

    fn figure4() -> MixedCircuit {
        let analog = filters::second_order_band_pass();
        let adc = FlashAdc::uniform(2, 3.0).unwrap();
        let digital = circuits::figure3_circuit();
        let mut mixed = MixedCircuit::new("figure4", analog, ConverterBlock::Flash(adc), digital);
        mixed.connect_in_order(&["l0", "l2"]).unwrap();
        // Example 2: the code (0,0) can never be produced by the analog
        // block in its operating range.
        mixed.set_allowed_codes(AllowedCodes::new(
            2,
            vec![vec![true, false], vec![false, true], vec![true, true]],
        ));
        mixed
    }

    #[test]
    fn digital_case1_vs_case2_matches_example2() {
        // Collapsed fault list: fully testable when accessed directly,
        // 2 undetectable faults inside the mixed circuit (the paper's
        // Example 2 count).
        let atpg = MixedSignalAtpg::new(figure4());
        let unconstrained = atpg.digital_unconstrained().unwrap();
        let constrained = atpg.digital_constrained().unwrap();
        assert_eq!(unconstrained.untestable_count(), 0);
        assert_eq!(constrained.untestable_count(), 2);
        // The uncollapsed universe of the Figure-3 circuit has 18 faults.
        let uncollapsed = MixedSignalAtpg::new(figure4()).with_options(AtpgOptions {
            collapse_faults: false,
            ..AtpgOptions::default()
        });
        assert_eq!(
            uncollapsed.digital_unconstrained().unwrap().total_faults,
            18
        );
    }

    #[test]
    fn full_run_produces_a_complete_plan() {
        let atpg = MixedSignalAtpg::new(figure4());
        let plan = atpg.run().unwrap();
        // All 8 passive elements of the band-pass filter are analyzed.
        assert_eq!(plan.analog.len(), 8);
        // Most elements are testable through the mixed circuit.
        assert!(
            plan.analog_coverage() > 0.5,
            "coverage {}",
            plan.analog_coverage()
        );
        // The conversion block of this small example has 2 ladder+1... the
        // flash block has 3 resistors; coverage entries exist for each.
        assert_eq!(plan.conversion.len(), 3);
        assert!(plan.digital.constrained);
        assert!(!plan.digital_unconstrained.constrained);
        assert!(!plan.analog_deviations.rows().is_empty());
    }

    #[test]
    fn shared_pool_run_matches_serial_and_accounts_all_stages() {
        let reference = MixedSignalAtpg::new(figure4()).run().unwrap();
        let pool = WorkerPool::new(ExecPolicy::Threads(2));
        let plan = MixedSignalAtpg::new(figure4())
            .with_options(AtpgOptions {
                exec: ExecPolicy::Threads(2),
                ..AtpgOptions::default()
            })
            .run_on(&pool)
            .unwrap();
        assert_eq!(plan.digital.vectors, reference.digital.vectors);
        assert_eq!(plan.digital.untestable, reference.digital.untestable);
        assert_eq!(plan.analog, reference.analog);
        assert_eq!(
            plan.analog_deviations.rows(),
            reference.analog_deviations.rows()
        );
        assert_eq!(plan.conversion, reference.conversion);
        // Only the deviation stage rides the pool: run alone on a fresh
        // pool, it accounts for every spawn, job and barrier of the run.
        let deviation_pool = WorkerPool::new(ExecPolicy::Threads(2));
        MixedSignalAtpg::new(figure4())
            .analog_deviation_report_on(&deviation_pool)
            .unwrap();
        assert!(deviation_pool.stats().spawns > 0);
        assert_eq!(pool.stats(), deviation_pool.stats());
    }

    #[test]
    fn options_builder_is_respected() {
        let opts = AtpgOptions {
            parameter_tolerance: 0.1,
            worst_case: true,
            ..AtpgOptions::default()
        };
        let atpg = MixedSignalAtpg::new(figure4()).with_options(opts);
        assert_eq!(atpg.options.parameter_tolerance, 0.1);
        assert!(atpg.options.worst_case);
        assert_eq!(atpg.circuit().name(), "figure4");
        assert_eq!(AtpgOptions::default().parameter_tolerance, 0.05);
    }
}
