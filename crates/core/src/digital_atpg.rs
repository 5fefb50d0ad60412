//! Backtrack-free, OBDD-based stuck-at test generation with constraints
//! (the paper's BDD_FTEST extended with the constraint function `Fc`).
//!
//! For a fault *l* s-a-*v*, the set of test vectors is obtained purely by
//! Boolean manipulation — no search, no backtracking:
//!
//! ```text
//! S = activation · propagation · Fc
//!   = (f_l ⊕ v) · (∂PO/∂l) · Fc
//! ```
//!
//! where `f_l` is the function of line *l* in terms of the primary inputs,
//! `∂PO/∂l` is the Boolean difference of a primary output with respect to
//! the line (computed by re-deriving the output with the line replaced by a
//! fresh variable `D`, which is last in the BDD ordering, exactly as in the
//! paper), and `Fc` encodes the assignments the conversion block can
//! produce.  Any path to `1` in `S` is a test vector; `S = ∅` for every
//! output means the fault is untestable under the constraints.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use msatpg_bdd::{Bdd, BddBudget, BddError, BddManager, Cube, VarId};
use msatpg_conversion::constraints::AllowedCodes;
use msatpg_digital::fault::{FaultList, StuckAtFault};
use msatpg_digital::fault_sim::{block_mask, FaultCones, FaultSimulator, PpsfpScratch, WordWidth};
use msatpg_digital::gate::GateKind;
use msatpg_digital::netlist::{Netlist, SignalId};
use msatpg_digital::random_tpg::RandomPatternGenerator;
use msatpg_digital::sim::Simulator;
use msatpg_exec::{CancelToken, ChaosEvent, ChaosInjector, ExecPolicy, PanicPolicy, WorkerPool};

use crate::constraint::{constraint_bdd, declare_input_variables};
use crate::ordering::{DvoMode, StaticOrder};
use crate::store::{self, Checkpoint, CheckpointPolicy};
use crate::CoreError;

/// The name of the auxiliary composite variable (kept last in the ordering).
const D_VAR_NAME: &str = "__D";

/// Live-node watermark above which the per-fault safe point sweeps the BDD
/// arena.  Every fault target re-derives its faulty cone and test set from
/// scratch, so the garbage fraction grows linearly with the fault count;
/// the long-lived state (signal functions and `Fc`) is protected at
/// construction and survives every collection, which makes the sweep
/// invisible in the generated vectors.
const GC_WATERMARK: usize = 1 << 16;

/// A generated test vector: an assignment to the primary inputs, with
/// don't-cares left open.
#[derive(Clone, Debug, PartialEq)]
pub struct TestVector {
    /// Values per primary input, in primary-input order (`None` =
    /// don't-care).
    pub assignment: Vec<Option<bool>>,
    /// The fault this vector was generated for.
    pub fault: StuckAtFault,
    /// Index of the primary output at which the fault is observed.
    pub observed_output: usize,
}

impl TestVector {
    /// Renders the vector as a `0`/`1`/`X` string over the primary inputs.
    pub fn to_pattern_string(&self) -> String {
        self.assignment
            .iter()
            .map(|v| match v {
                Some(true) => '1',
                Some(false) => '0',
                None => 'X',
            })
            .collect()
    }

    /// Fills the don't-cares with `fill` and returns a concrete pattern.
    pub fn concretize(&self, fill: bool) -> Vec<bool> {
        self.assignment.iter().map(|v| v.unwrap_or(fill)).collect()
    }
}

/// Why a fault target was abandoned without a definitive answer.
///
/// An aborted fault is neither detected nor proven untestable: the
/// backtrack-free generator gave up (resource quota, deadline or an isolated
/// panic) before the test set was derived, and the random-pattern fallback
/// (when one ran) did not detect the fault either.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// The armed [`BddBudget`] (node or step quota) was exhausted while
    /// deriving the fault's test set, and the degradation fallback did not
    /// detect the fault.
    Budget,
    /// The armed [`CancelToken`] fired — step quota, wall-clock deadline or
    /// an explicit [`CancelToken::cancel`] — before this fault was targeted.
    Deadline,
    /// Generating this fault's test set panicked and
    /// [`PanicPolicy::Isolate`] confined the damage to this fault.
    Panic,
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::Budget => write!(f, "resource budget exhausted"),
            AbortReason::Deadline => write!(f, "cancelled (deadline or quota)"),
            AbortReason::Panic => write!(f, "generation panicked (isolated)"),
        }
    }
}

/// The outcome of generating a test for one fault.
#[derive(Clone, Debug, PartialEq)]
pub enum TestOutcome {
    /// A test vector exists (and is returned).
    Detected(TestVector),
    /// The fault was detected by a previously generated vector, so no new
    /// vector was emitted.
    PreviouslyDetected,
    /// No assignment activates the fault, propagates it to a primary output
    /// and satisfies the constraints.
    Untestable,
    /// Deterministic generation hit a resource limit, but a seeded random
    /// pattern (drawn under the constraints and verified by the PPSFP
    /// kernel) detects the fault: graceful degradation.  The vector is fully
    /// specified (no don't-cares) and counts toward coverage.
    Degraded(TestVector),
    /// The fault target was abandoned for the given reason; its
    /// detectability is unknown.
    Aborted(AbortReason),
}

/// Summary of a full ATPG run over a fault list.
#[derive(Clone, Debug)]
pub struct AtpgReport {
    /// Name of the circuit.
    pub circuit: String,
    /// Total number of faults targeted.
    pub total_faults: usize,
    /// Number of detected faults (including those covered by earlier
    /// vectors).
    pub detected: usize,
    /// Faults for which no constrained test exists.
    pub untestable: Vec<StuckAtFault>,
    /// Faults detected only by the random-pattern degradation fallback
    /// (a subset of the `detected` count), in fault-list order.
    pub degraded: Vec<StuckAtFault>,
    /// Faults abandoned without detection, with the reason, in fault-list
    /// order.
    pub aborted: Vec<(StuckAtFault, AbortReason)>,
    /// The generated vectors (after on-the-fly fault dropping).
    pub vectors: Vec<TestVector>,
    /// Wall-clock time spent.
    pub cpu: Duration,
    /// Whether a non-trivial constraint function was active.
    pub constrained: bool,
}

impl AtpgReport {
    /// Number of untestable faults.
    pub fn untestable_count(&self) -> usize {
        self.untestable.len()
    }

    /// Number of faults detected only through the degradation fallback.
    pub fn degraded_count(&self) -> usize {
        self.degraded.len()
    }

    /// Number of faults abandoned without detection.
    pub fn aborted_count(&self) -> usize {
        self.aborted.len()
    }

    /// Number of generated vectors.
    pub fn vector_count(&self) -> usize {
        self.vectors.len()
    }

    /// Fault coverage: detected / total.  Aborted faults count as not
    /// detected; degraded faults were verified by simulation and count.
    pub fn coverage(&self) -> f64 {
        if self.total_faults == 0 {
            return 1.0;
        }
        self.detected as f64 / self.total_faults as f64
    }
}

/// Configuration of the graceful-degradation fallback: when the armed
/// [`BddBudget`] aborts a fault's deterministic generation, the driver draws
/// seeded random patterns (filtered against the constraint codes, when
/// constraints are installed) and verifies them against the fault with the
/// PPSFP kernel.  The first detecting pattern becomes the fault's
/// [`TestOutcome::Degraded`] vector; if none detects it the fault is
/// reported as [`TestOutcome::Aborted`] with [`AbortReason::Budget`].
///
/// The fallback is a pure function of `(seed, fault)`, so degraded outcomes
/// are byte-identical across thread counts and runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Base seed of the per-fault pattern generator (each fault derives its
    /// own stream from this seed and its identity).
    pub seed: u64,
    /// Number of candidate patterns drawn per aborted fault (constraint
    /// filtering may accept fewer).
    pub patterns: usize,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy {
            seed: 0x5EED_FA11,
            patterns: 192,
        }
    }
}

/// Faults per pipeline round: while the replay consumes one round, the pool
/// generates the next.
const REPLAY_CHUNK: usize = 64;

/// Faults per generation work unit within a round (small, so the pool's
/// chunk stealing balances the very uneven per-fault generation cost).
const GENERATE_CHUNK: usize = 8;

/// The width-generic coverage store behind [`ReplayState`]: generated
/// patterns accumulate in `64 * W`-wide good-value blocks, and a candidate
/// fault is checked against a whole block with one cone-bounded propagation
/// (the same PPSFP kernel the fault simulator uses) instead of one full
/// faulty evaluation per (fault, pattern).
///
/// The coverage answer is a boolean OR over all absorbed patterns, so it is
/// independent of how those patterns are grouped into blocks — which is why
/// reports stay byte-identical across widths.
struct WideCoverage<const W: usize> {
    cones: FaultCones,
    scratch: PpsfpScratch<W>,
    /// Good-value blocks and valid-pattern mask per block; the last block
    /// is rebuilt as it fills.
    blocks: Vec<(Vec<[u64; W]>, [u64; W])>,
    open_block: Vec<Vec<bool>>,
}

impl<const W: usize> WideCoverage<W> {
    fn new(netlist: &Netlist, faults: &FaultList) -> Self {
        WideCoverage {
            cones: FaultCones::build(netlist, faults.faults().iter().map(|f| f.signal)),
            scratch: PpsfpScratch::new(netlist),
            blocks: Vec::new(),
            open_block: Vec::new(),
        }
    }

    fn covered(&mut self, netlist: &Netlist, fault: StuckAtFault) -> bool {
        let scratch = &mut self.scratch;
        let cones = &self.cones;
        self.blocks.iter().any(|(good, mask)| {
            scratch.detection_block(netlist, cones, fault, good, *mask) != [0; W]
        })
    }

    fn absorb(&mut self, netlist: &Netlist, pattern: Vec<bool>) -> Result<(), CoreError> {
        self.open_block.push(pattern);
        let words = Simulator::new(netlist)
            .run_parallel_blocks::<W>(&self.open_block)
            .map_err(|e| CoreError::Digital(e.to_string()))?;
        let mask = block_mask::<W>(self.open_block.len());
        if self.open_block.len() == 1 {
            self.blocks.push((words, mask));
        } else {
            *self.blocks.last_mut().expect("open block exists") = (words, mask);
        }
        if self.open_block.len() == 64 * W {
            self.open_block.clear();
        }
        Ok(())
    }
}

/// The coverage store at the width the engine runs at (one monomorphized
/// instantiation per supported lane count).
enum Dropping {
    W1(WideCoverage<1>),
    W8(WideCoverage<8>),
}

impl Dropping {
    fn new(netlist: &Netlist, faults: &FaultList, width: WordWidth) -> Self {
        match width.lanes() {
            8 => Dropping::W8(WideCoverage::new(netlist, faults)),
            _ => Dropping::W1(WideCoverage::new(netlist, faults)),
        }
    }
}

/// The sequential fault-dropping replay: consumes per-fault outcomes in
/// fault-list order and maintains the word-parallel coverage blocks
/// ([`WideCoverage`]).  Both the serial loop and the pipelined driver run
/// exactly this state machine, which is what keeps their reports
/// byte-identical.
struct ReplayState<'n> {
    netlist: &'n Netlist,
    dropping: Option<Dropping>,
    vectors: Vec<TestVector>,
    untestable: Vec<StuckAtFault>,
    degraded: Vec<StuckAtFault>,
    aborted: Vec<(StuckAtFault, AbortReason)>,
    detected: usize,
}

impl<'n> ReplayState<'n> {
    fn new(
        netlist: &'n Netlist,
        fault_dropping: bool,
        faults: &FaultList,
        width: WordWidth,
    ) -> Self {
        let dropping = fault_dropping.then(|| Dropping::new(netlist, faults, width));
        ReplayState {
            netlist,
            dropping,
            vectors: Vec::new(),
            untestable: Vec::new(),
            degraded: Vec::new(),
            aborted: Vec::new(),
            detected: 0,
        }
    }

    /// Is the fault already detected by a previously replayed vector?
    /// Always `false` with fault dropping disabled.  Coverage is monotone:
    /// blocks only gain patterns, so once covered a fault stays covered.
    fn covered(&mut self, fault: StuckAtFault) -> bool {
        match &mut self.dropping {
            None => false,
            Some(Dropping::W1(c)) => c.covered(self.netlist, fault),
            Some(Dropping::W8(c)) => c.covered(self.netlist, fault),
        }
    }

    /// Applies one fault's outcome: bumps the detected count, folds a new
    /// vector into the word blocks, or records the fault as untestable,
    /// degraded or aborted.
    fn consume(&mut self, fault: StuckAtFault, outcome: TestOutcome) -> Result<(), CoreError> {
        match outcome {
            TestOutcome::Detected(vector) => {
                self.detected += 1;
                self.absorb_vector(vector)?;
            }
            TestOutcome::PreviouslyDetected => {
                self.detected += 1;
            }
            TestOutcome::Untestable => self.untestable.push(fault),
            TestOutcome::Degraded(vector) => {
                // A degraded vector is a real, simulation-verified test: it
                // counts toward coverage and feeds the fault-dropping blocks
                // exactly like a deterministically generated one.
                self.detected += 1;
                self.degraded.push(fault);
                self.absorb_vector(vector)?;
            }
            TestOutcome::Aborted(reason) => self.aborted.push((fault, reason)),
        }
        Ok(())
    }

    /// Records a new test vector and folds it into the word-parallel
    /// coverage blocks used by the fault-dropping pre-checks.
    fn absorb_vector(&mut self, vector: TestVector) -> Result<(), CoreError> {
        if let Some(dropping) = &mut self.dropping {
            let pattern = vector.concretize(false);
            match dropping {
                Dropping::W1(c) => c.absorb(self.netlist, pattern)?,
                Dropping::W8(c) => c.absorb(self.netlist, pattern)?,
            }
        }
        self.vectors.push(vector);
        Ok(())
    }
}

/// The OBDD-based constrained test generator.
///
/// # Example
///
/// ```
/// use msatpg_core::digital_atpg::DigitalAtpg;
/// use msatpg_digital::circuits;
/// use msatpg_digital::fault::FaultList;
///
/// let circuit = circuits::figure3_circuit();
/// let faults = FaultList::all(&circuit);
/// let mut atpg = DigitalAtpg::new(&circuit);
/// let report = atpg.run(&faults)?;
/// // Considered alone, the Figure-3 circuit is fully testable.
/// assert_eq!(report.untestable_count(), 0);
/// # Ok::<(), msatpg_core::CoreError>(())
/// ```
pub struct DigitalAtpg<'a> {
    netlist: &'a Netlist,
    manager: BddManager,
    signal_bdds: Vec<Bdd>,
    fc: Bdd,
    d_var: VarId,
    fault_dropping: bool,
    constrained: bool,
    policy: ExecPolicy,
    width: WordWidth,
    /// The inputs of [`DigitalAtpg::with_constraints`], kept so parallel
    /// workers can rebuild an equivalent engine.
    constraint_spec: Option<(Vec<SignalId>, AllowedCodes)>,
    budget: BddBudget,
    cancel: Option<CancelToken>,
    chaos: Option<ChaosInjector>,
    panic_policy: PanicPolicy,
    degrade: DegradePolicy,
    checkpoint: Option<(CheckpointPolicy, PathBuf)>,
    resume: Option<Checkpoint>,
    static_order: StaticOrder,
    dvo: DvoMode,
}

/// A per-fault generation failure the driver translates into an outcome.
enum GenFailure {
    /// The BDD layer reported a structured interruption.
    Bdd(BddError),
    /// The generation job panicked under [`PanicPolicy::Isolate`].
    Panicked,
}

/// The campaign journal: records every outcome in fault-list order on the
/// replay driver and flushes the accumulated snapshot per the armed
/// [`CheckpointPolicy`].  A disarmed journal (no checkpoint configured) is
/// a no-op.
///
/// Flushes go through the store's chaotic write hook so the
/// [`ChaosInjector`]'s store classes (crash, torn write, bit flip) can
/// corrupt a checkpoint deterministically in tests; the chaos site is the
/// journal length at the flush.
struct CampaignJournal {
    armed: Option<(CheckpointPolicy, PathBuf)>,
    chaos: Option<ChaosInjector>,
    checkpoint: Checkpoint,
    /// The on-cancel flush fires once, at the first `Aborted(Deadline)`:
    /// after that every remaining fault aborts the same way, and flushing
    /// the whole tail one entry at a time would be quadratic.
    cancel_flushed: bool,
}

impl CampaignJournal {
    fn new(
        armed: Option<(CheckpointPolicy, PathBuf)>,
        chaos: Option<ChaosInjector>,
        netlist: &Netlist,
        faults: &FaultList,
    ) -> Self {
        let outcomes = Vec::with_capacity(if armed.is_some() { faults.len() } else { 0 });
        CampaignJournal {
            armed,
            chaos,
            checkpoint: Checkpoint {
                circuit: netlist.name().to_owned(),
                total_faults: faults.len(),
                faults_digest: store::faults_digest(faults.faults()),
                outcomes,
            },
            cancel_flushed: false,
        }
    }

    /// Journals one outcome and flushes if the policy says so.
    fn record(&mut self, outcome: &TestOutcome) -> Result<(), CoreError> {
        let Some((policy, _)) = &self.armed else {
            return Ok(());
        };
        self.checkpoint.outcomes.push(outcome.clone());
        let flush = match outcome {
            TestOutcome::Aborted(AbortReason::Deadline) => {
                policy.on_cancel && !std::mem::replace(&mut self.cancel_flushed, true)
            }
            TestOutcome::Aborted(_) => policy.on_abort,
            _ => policy.every != 0 && self.checkpoint.outcomes.len() % policy.every == 0,
        };
        if flush {
            self.flush()?;
        }
        Ok(())
    }

    /// The end-of-campaign flush: an armed journal always persists its
    /// final state, so a completed run leaves a complete snapshot behind.
    fn finish(&mut self) -> Result<(), CoreError> {
        if self.armed.is_some() {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), CoreError> {
        let Some((_, path)) = &self.armed else {
            return Ok(());
        };
        let site = self.checkpoint.outcomes.len() as u64;
        store::save_checkpoint_chaotic(
            path,
            &self.checkpoint,
            self.chaos.as_ref().map(|c| (c, site)),
        )
        .map_err(CoreError::from)
    }
}

impl<'a> DigitalAtpg<'a> {
    /// Builds the generator for a netlist without constraints (`Fc = 1`),
    /// declaring the input variables in netlist order (the paper's order).
    pub fn new(netlist: &'a Netlist) -> Self {
        Self::new_ordered(netlist, StaticOrder::Declaration)
    }

    /// Builds the generator with the primary-input variables declared in
    /// the order computed by the static heuristic `order` (see
    /// [`StaticOrder`]); the composite variable `D` stays last regardless.
    /// Everything downstream addresses variables by name, so any order
    /// produces equivalent (though not byte-identical) results — only the
    /// OBDD sizes change.
    pub fn new_ordered(netlist: &'a Netlist, order: StaticOrder) -> Self {
        let mut manager = BddManager::new();
        // Pre-declare the inputs in the heuristic's order; the by-name
        // declaration below is then a no-op lookup that returns the
        // literals in netlist order for the signal table.
        for &pi in &crate::ordering::pi_order(netlist, order) {
            manager.var_id(netlist.signal_name(pi));
        }
        let pi_literals = declare_input_variables(&mut manager, netlist);
        // The composite variable is declared last, as prescribed by the
        // paper's ordering.
        let d_var = manager.var_id(D_VAR_NAME);
        let mut signal_bdds = vec![manager.zero(); netlist.signal_count()];
        for (i, &pi) in netlist.primary_inputs().iter().enumerate() {
            signal_bdds[pi.index()] = pi_literals[i];
        }
        for gate in netlist.gates() {
            let inputs: Vec<Bdd> = gate.inputs.iter().map(|i| signal_bdds[i.index()]).collect();
            signal_bdds[gate.output.index()] = apply_gate(&mut manager, gate.kind, &inputs);
        }
        // The signal functions are the engine's long-lived state: register
        // them as GC roots so the per-fault safe point in
        // [`DigitalAtpg::generate`] can sweep everything else.
        for &f in &signal_bdds {
            manager.protect(f);
        }
        let fc = manager.one();
        DigitalAtpg {
            netlist,
            manager,
            signal_bdds,
            fc,
            d_var,
            fault_dropping: true,
            constrained: false,
            policy: ExecPolicy::Serial,
            width: WordWidth::Auto,
            constraint_spec: None,
            budget: BddBudget::UNLIMITED,
            cancel: None,
            chaos: None,
            panic_policy: PanicPolicy::FailFast,
            degrade: DegradePolicy::default(),
            checkpoint: None,
            resume: None,
            static_order: order,
            dvo: DvoMode::Never,
        }
    }

    /// Installs the constraint function `Fc` derived from the conversion
    /// block: `lines[i]` is the digital input driven by converter output `i`
    /// and `codes` lists the producible assignments.
    ///
    /// # Errors
    ///
    /// Returns an error if a constrained line is not a primary input, or if
    /// the allowed-code width does not match the number of constrained
    /// lines.
    pub fn with_constraints(
        mut self,
        lines: &[SignalId],
        codes: &AllowedCodes,
    ) -> Result<Self, CoreError> {
        if !codes.is_unconstrained() && codes.width() != lines.len() {
            return Err(CoreError::InvalidConnection {
                reason: format!(
                    "allowed-code width {} does not match the {} constrained lines",
                    codes.width(),
                    lines.len()
                ),
            });
        }
        for &line in lines {
            if !self.netlist.is_primary_input(line) {
                return Err(CoreError::InvalidConnection {
                    reason: format!(
                        "constrained line '{}' is not a primary input",
                        self.netlist.signal_name(line)
                    ),
                });
            }
        }
        self.manager.unprotect(self.fc);
        self.fc = constraint_bdd(&mut self.manager, self.netlist, lines, codes);
        self.manager.protect(self.fc);
        self.constrained = !codes.is_unconstrained();
        self.constraint_spec = Some((lines.to_vec(), codes.clone()));
        Ok(self)
    }

    /// Enables or disables on-the-fly fault dropping during [`Self::run`]
    /// (enabled by default).
    pub fn with_fault_dropping(mut self, enabled: bool) -> Self {
        self.fault_dropping = enabled;
        self
    }

    /// Sets the execution policy of [`Self::run`].  Under `Threads(n)` the
    /// per-fault test sets are generated speculatively in parallel (each
    /// worker builds its own OBDD engine) and the fault-dropping pass
    /// replays them sequentially, so the report is byte-identical to a
    /// serial run.
    pub fn with_policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the PPSFP block width used by the fault-dropping pre-screens
    /// and the degraded-fault verification (see
    /// [`WordWidth`]; the default
    /// honors the `MSATPG_WORD_WIDTH` environment variable).  Reports —
    /// and checkpoint files — are byte-identical across widths; only the
    /// wall-clock changes.
    pub fn with_word_width(mut self, width: WordWidth) -> Self {
        self.width = width;
        self
    }

    /// Sets the dynamic-variable-ordering mode (the default honors the
    /// `MSATPG_DVO` environment variable; see [`DvoMode`]).  When active,
    /// the engine's manager is sifted to convergence immediately — a
    /// deterministic construction-time safe point where the signal
    /// functions and `Fc` are the only protected roots — so apply this
    /// *after* [`Self::with_constraints`] and [`Self::with_budget`]; the
    /// pipelined worker engines replay the same sequence.  A sift
    /// interrupted by the budget leaves the manager consistent and the
    /// outcome deterministic, so the builder stays infallible.
    pub fn with_dvo(mut self, mode: DvoMode) -> Self {
        self.dvo = mode;
        if mode.is_active() {
            let _ = self.manager.try_sift_until_convergence();
        }
        self
    }

    /// Arms a [`BddBudget`] on the engine's OBDD manager.  Fault targets
    /// whose test-set derivation exceeds the quota are degraded to the
    /// random-pattern fallback (see [`DigitalAtpg::with_degradation`]) or
    /// reported as [`TestOutcome::Aborted`] with [`AbortReason::Budget`];
    /// every other fault is unaffected.
    ///
    /// Budgeted outcomes are deterministic: with a budget armed the engine
    /// collects to its protected baseline and re-opens the step quota before
    /// every fault target, so each outcome is a pure function of the fault —
    /// identical across serial, pipelined and worker engines.
    pub fn with_budget(mut self, budget: BddBudget) -> Self {
        self.budget = budget;
        self.manager.set_budget(budget);
        self
    }

    /// Arms a cooperative [`CancelToken`].  The replay driver charges one
    /// step of the token's quota per targeted fault **in fault-list order**,
    /// so a step-quota token aborts at the identical fault on every thread
    /// count; workers only *observe* the token (wasted speculation, never
    /// the report).  Once the token fires, every remaining fault is reported
    /// as [`TestOutcome::Aborted`] with [`AbortReason::Deadline`].
    /// Wall-clock deadlines cancel cooperatively too, but their abort point
    /// is inherently timing-dependent.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.manager.set_cancel_token(Some(token.clone()));
        self.cancel = Some(token);
        self
    }

    /// Installs a deterministic fault-injection harness: at each fault
    /// target the injector (a pure function of its seed and the fault
    /// index) may simulate a budget exhaustion, a cancellation, or — under
    /// [`PanicPolicy::Isolate`] — genuinely panic inside the generation job
    /// to exercise the isolation machinery.  The *report* is decided by the
    /// replay driver from the injector alone, so it is byte-identical across
    /// thread counts for a given seed.
    pub fn with_chaos(mut self, chaos: ChaosInjector) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Sets how generation panics are handled (default
    /// [`PanicPolicy::FailFast`]): under [`PanicPolicy::Isolate`] a panic
    /// while generating one fault's test set is confined to that fault
    /// (reported as [`TestOutcome::Aborted`] with [`AbortReason::Panic`])
    /// and the run — including the worker pool and its sessions — continues.
    pub fn with_panic_policy(mut self, panic_policy: PanicPolicy) -> Self {
        self.panic_policy = panic_policy;
        self
    }

    /// Replaces the graceful-degradation configuration used for
    /// budget-aborted faults.
    pub fn with_degradation(mut self, degrade: DegradePolicy) -> Self {
        self.degrade = degrade;
        self
    }

    /// Arms campaign checkpointing: every per-fault outcome is journaled
    /// **in fault-list order** and the journal is flushed to `path` — a
    /// crash-consistent atomic replace, see [`crate::store`] — per `policy`,
    /// plus one final flush when the campaign ends.  A reader therefore
    /// always finds either no file, the previous complete snapshot or the
    /// new complete snapshot, never a torn one.
    ///
    /// Outcomes are journaled at the governed gc+reset boundaries (see
    /// [`DigitalAtpg::with_budget`]), where each one is a pure function of
    /// its fault; replaying a journaled prefix is therefore byte-identical
    /// to recomputing it.
    pub fn with_checkpoint(mut self, policy: CheckpointPolicy, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some((policy, path.into()));
        self
    }

    /// Resumes the next [`DigitalAtpg::run`] from a snapshot (load one with
    /// [`store::load_checkpoint`]).  Journaled `Detected`, `Untestable`,
    /// `PreviouslyDetected` and `Degraded` outcomes are replayed without
    /// regeneration; journaled `Aborted` outcomes and the unjournaled tail
    /// are re-attempted under whatever budget or token this engine has
    /// armed *now*.
    ///
    /// An interrupted-then-resumed campaign reproduces the uninterrupted
    /// report **byte for byte** (up to wall-clock `cpu`) at any thread
    /// count: the replayed prefix rebuilds the exact fault-dropping state
    /// the original run had, and governed generation is a pure function of
    /// the fault.  The snapshot is validated against the campaign's circuit
    /// and fault list when the run starts; a mismatch is
    /// [`CoreError::Store`].
    pub fn with_resume(mut self, checkpoint: Checkpoint) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// `true` when a budget or a cancel token makes generation fallible.
    fn governed(&self) -> bool {
        !self.budget.is_unlimited() || self.cancel.is_some()
    }

    /// The constraint function currently in force.
    pub fn constraint(&self) -> Bdd {
        self.fc
    }

    /// Read-only access to the BDD manager (for inspection / DOT export).
    pub fn manager(&self) -> &BddManager {
        &self.manager
    }

    /// Runs a full garbage collection, keeping only the engine's protected
    /// baseline (the signal functions and the constraint `Fc`), and returns
    /// that baseline's live node count.  This is the state every governed
    /// fault target restarts from, so `collect_garbage() + margin` is the
    /// right way to size a deliberately tight
    /// [`BddBudget::with_max_live_nodes`] quota — the count observed during
    /// construction overstates the baseline by the build's transients.
    pub fn collect_garbage(&mut self) -> usize {
        self.manager.gc();
        self.manager.live_node_count()
    }

    /// The BDD of a signal's fault-free function over the primary inputs.
    pub fn signal_function(&self, signal: SignalId) -> Bdd {
        self.signal_bdds[signal.index()]
    }

    /// Generates a test for one fault, ignoring previously generated
    /// vectors.
    ///
    /// # Panics
    ///
    /// Panics if the armed budget or cancel token interrupts the
    /// derivation; use [`DigitalAtpg::try_generate`] when governance is
    /// armed.
    pub fn generate(&mut self, fault: StuckAtFault) -> TestOutcome {
        match self.try_generate(fault) {
            Ok(outcome) => outcome,
            Err(err) => panic!(
                "infallible test generation interrupted: {err}; \
                 use try_generate when a budget or cancel token is armed"
            ),
        }
    }

    /// Fallible [`DigitalAtpg::generate`]: returns the structured
    /// [`BddError`] when the armed budget or cancel token interrupts the
    /// derivation.  The partial build is abandoned (reclaimed at the next
    /// safe point) and the engine stays fully usable for the next fault.
    ///
    /// # Errors
    ///
    /// [`BddError::NodeBudgetExceeded`] / [`BddError::StepBudgetExceeded`]
    /// when the armed [`BddBudget`] is exhausted, [`BddError::Cancelled`]
    /// when the armed [`CancelToken`] has fired.
    pub fn try_generate(&mut self, fault: StuckAtFault) -> Result<TestOutcome, BddError> {
        // Safe point: no transient handle from a previous target is live
        // here, so everything outside the protected signal functions and
        // `Fc` is garbage.  The sweep never renumbers live nodes, so the
        // generated vectors are byte-identical with or without it.
        if self.governed() {
            // Determinism of governed outcomes: collect to the protected
            // baseline and re-open the step quota, so the resources consumed
            // by this target are a pure function of the fault — independent
            // of which faults this particular engine processed before, and
            // therefore identical across serial, pipelined and worker
            // engines.
            self.manager.gc();
            self.manager.reset_steps();
        } else {
            self.manager.gc_if_above(GC_WATERMARK);
        }
        // 1. Activation: the line must carry the value opposite to the stuck
        //    value in the fault-free circuit.
        let line_fn = self.signal_bdds[fault.signal.index()];
        let activation = if fault.stuck_at {
            self.manager.not(line_fn)
        } else {
            line_fn
        };
        if activation.is_zero() {
            return Ok(TestOutcome::Untestable);
        }
        // 2. Re-derive the outputs with the fault site replaced by the free
        //    variable D (only the fanout cone needs recomputation).
        let faulty = self.functions_with_free_line(fault.signal)?;
        // 3. For each primary output, the test set is
        //    activation · (∂PO/∂D) · Fc.
        for (po_index, &po) in self.netlist.primary_outputs().iter().enumerate() {
            let f = faulty[po.index()];
            let observability = self.manager.try_boolean_difference(f, self.d_var)?;
            if observability.is_zero() {
                continue;
            }
            let act_obs = self.manager.try_and(activation, observability)?;
            let test_set = self.manager.try_and(act_obs, self.fc)?;
            let Some(cube) = self.manager.sat_one(test_set) else {
                continue;
            };
            return Ok(TestOutcome::Detected(
                self.vector_from_cube(&cube, fault, po_index),
            ));
        }
        Ok(TestOutcome::Untestable)
    }

    /// Runs the generator over a whole fault list, with fault dropping.
    ///
    /// Under a threaded [`ExecPolicy`] (see [`Self::with_policy`]) the run
    /// is **pipelined**: worker engines generate the test sets of fault
    /// chunk *k+1* while the sequential fault-dropping replay consumes
    /// chunk *k* on the caller's thread (see [`Self::run_on`]).
    ///
    /// # Errors
    ///
    /// Propagates simulation errors from the fault-dropping pass (cannot
    /// occur for well-formed vectors).
    pub fn run(&mut self, faults: &FaultList) -> Result<AtpgReport, CoreError> {
        let pool = WorkerPool::new(self.policy).with_panic_policy(self.panic_policy);
        self.run_on(&pool, faults)
    }

    /// Like [`Self::run`], but rides a caller-provided [`WorkerPool`] so a
    /// larger flow (the mixed-signal ATPG) shares one pool across stages.
    /// The **pool's policy** decides the worker count here;
    /// [`Self::with_policy`] only configures the pool that [`Self::run`]
    /// builds internally.
    ///
    /// The pipeline works in rounds of `REPLAY_CHUNK` faults: while the
    /// replay consumes the outcomes of round *k*, the pool generates round
    /// *k+1*.  Before submitting a round the driver pre-screens its faults
    /// against the vectors replayed so far and flags the covered ones, so
    /// the workers stop speculating on faults the replay already covers.
    /// The replay itself remains the oracle — it re-checks coverage exactly
    /// like the serial loop and falls back to inline generation when a
    /// speculative outcome is missing — so the report is **byte-identical**
    /// to a serial run: [`Self::generate`] is a pure function of the
    /// (canonical) OBDD structure, and independently built managers with
    /// the same declaration order yield the same satisfying cube.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors from the fault-dropping pass.
    pub fn run_on(
        &mut self,
        pool: &WorkerPool,
        faults: &FaultList,
    ) -> Result<AtpgReport, CoreError> {
        let start = Instant::now();
        let mut replay = ReplayState::new(self.netlist, self.fault_dropping, faults, self.width);
        let slots = self.resume_slots(faults)?;
        let mut journal =
            CampaignJournal::new(self.checkpoint.clone(), self.chaos, self.netlist, faults);
        if pool.policy().is_serial() {
            for (k, &fault) in faults.faults().iter().enumerate() {
                // A journaled non-aborted outcome is replayed verbatim: the
                // prefix replayed so far rebuilt the exact coverage state
                // the original run had at this index, so re-deciding would
                // only recompute the same answer.
                if let Some(outcome) = slots.get(k).and_then(|s| s.clone()) {
                    journal.record(&outcome)?;
                    replay.consume(fault, outcome)?;
                    continue;
                }
                if replay.covered(fault) {
                    replay.detected += 1;
                    journal.record(&TestOutcome::PreviouslyDetected)?;
                    continue;
                }
                let outcome = self.decide(k, fault, None)?;
                journal.record(&outcome)?;
                replay.consume(fault, outcome)?;
            }
        } else {
            self.run_pipelined(pool, faults, &mut replay, &mut journal, &slots)?;
        }
        journal.finish()?;
        Ok(AtpgReport {
            circuit: self.netlist.name().to_owned(),
            total_faults: faults.len(),
            detected: replay.detected,
            untestable: replay.untestable,
            degraded: replay.degraded,
            aborted: replay.aborted,
            vectors: replay.vectors,
            cpu: start.elapsed(),
            constrained: self.constrained,
        })
    }

    /// Validates the armed resume snapshot (if any) against this campaign
    /// and expands it into per-index replay slots: `Some` for journaled
    /// non-aborted outcomes, `None` for journaled aborts (re-attempted
    /// fresh) and for the unjournaled tail.  The snapshot is consumed — a
    /// second `run` on the same engine starts from scratch.
    fn resume_slots(&mut self, faults: &FaultList) -> Result<Vec<Option<TestOutcome>>, CoreError> {
        let Some(checkpoint) = self.resume.take() else {
            return Ok(Vec::new());
        };
        let mismatch = |reason: String| CoreError::Store { reason };
        if checkpoint.circuit != self.netlist.name() {
            return Err(mismatch(format!(
                "resume snapshot is for circuit `{}`, campaign runs on `{}`",
                checkpoint.circuit,
                self.netlist.name()
            )));
        }
        if checkpoint.total_faults != faults.len()
            || checkpoint.faults_digest != store::faults_digest(faults.faults())
        {
            return Err(mismatch(format!(
                "resume snapshot covers a different fault list \
                 ({} faults, digest {:016x})",
                checkpoint.total_faults, checkpoint.faults_digest
            )));
        }
        if checkpoint.outcomes.len() > faults.len() {
            return Err(mismatch(format!(
                "resume snapshot journals {} outcomes for {} faults",
                checkpoint.outcomes.len(),
                faults.len()
            )));
        }
        let mut slots: Vec<Option<TestOutcome>> = vec![None; faults.len()];
        for (slot, outcome) in slots.iter_mut().zip(checkpoint.outcomes) {
            if !matches!(outcome, TestOutcome::Aborted(_)) {
                *slot = Some(outcome);
            }
        }
        Ok(slots)
    }

    /// Decides the outcome of fault-list entry `index` — the one place
    /// where resource failures become [`TestOutcome`]s.  It runs on the
    /// replay driver **in fault-list order**, and every input it consults is
    /// schedule-independent (the chaos injector is a pure function of the
    /// fault index, the cancel token is charged only here, and governed
    /// generation is a pure function of the fault), so the report is
    /// byte-identical across thread counts.
    ///
    /// `speculative` carries a worker's pre-computed result when one exists;
    /// governed generation is a pure function of the fault, so reusing it is
    /// indistinguishable from generating inline.
    fn decide(
        &mut self,
        index: usize,
        fault: StuckAtFault,
        speculative: Option<Result<TestOutcome, BddError>>,
    ) -> Result<TestOutcome, CoreError> {
        if let Some(chaos) = self.chaos {
            match chaos.fires(index as u64) {
                Some(ChaosEvent::Panic) => {
                    if self.panic_policy == PanicPolicy::Isolate {
                        return Ok(TestOutcome::Aborted(AbortReason::Panic));
                    }
                    // FailFast means exactly that, in serial and pipelined
                    // runs alike (the pipelined run usually dies earlier, at
                    // the barrier that relays the worker's injected panic).
                    panic!("chaos: injected panic at fault target {index}");
                }
                Some(ChaosEvent::Budget) => return self.degrade_or_abort(fault),
                Some(ChaosEvent::Cancel) => return Ok(TestOutcome::Aborted(AbortReason::Deadline)),
                // Store-class events never come out of `fires` (they are
                // drawn by `fires_store` at checkpoint-write sites).
                Some(_) | None => {}
            }
        }
        // One charge per targeted fault, strictly in replay order: the
        // token's step quota therefore fires at the identical fault on every
        // thread count.
        if let Some(token) = &self.cancel {
            if !token.charge(1) {
                return Ok(TestOutcome::Aborted(AbortReason::Deadline));
            }
        }
        let result = match speculative {
            Some(result) => result.map_err(GenFailure::Bdd),
            None => self.guarded_generate(fault),
        };
        match result {
            Ok(outcome) => Ok(outcome),
            Err(GenFailure::Bdd(BddError::Cancelled)) => {
                Ok(TestOutcome::Aborted(AbortReason::Deadline))
            }
            Err(GenFailure::Bdd(_)) => self.degrade_or_abort(fault),
            Err(GenFailure::Panicked) => Ok(TestOutcome::Aborted(AbortReason::Panic)),
        }
    }

    /// Inline generation with the panic policy applied: under
    /// [`PanicPolicy::Isolate`] a panic is caught and confined to this
    /// fault (the interrupted recursion leaves only unreferenced transient
    /// nodes, reclaimed by the next collection).
    fn guarded_generate(&mut self, fault: StuckAtFault) -> Result<TestOutcome, GenFailure> {
        if self.panic_policy == PanicPolicy::Isolate {
            match catch_unwind(AssertUnwindSafe(|| self.try_generate(fault))) {
                Ok(result) => result.map_err(GenFailure::Bdd),
                Err(_) => Err(GenFailure::Panicked),
            }
        } else {
            self.try_generate(fault).map_err(GenFailure::Bdd)
        }
    }

    /// The budget-exhaustion path: try the seeded random fallback, abort if
    /// it finds nothing.
    fn degrade_or_abort(&mut self, fault: StuckAtFault) -> Result<TestOutcome, CoreError> {
        match self.degrade(fault)? {
            Some(vector) => Ok(TestOutcome::Degraded(vector)),
            None => Ok(TestOutcome::Aborted(AbortReason::Budget)),
        }
    }

    /// Graceful degradation for one budget-aborted fault: draw seeded random
    /// patterns (filtered against the constraint codes when constraints are
    /// installed), verify them against the fault with the PPSFP kernel, and
    /// return the first detecting pattern as a fully specified vector.
    ///
    /// A pure function of `(degrade.seed, fault)` — it never touches the
    /// OBDD manager — so degraded outcomes are deterministic everywhere.
    fn degrade(&self, fault: StuckAtFault) -> Result<Option<TestVector>, CoreError> {
        let netlist = self.netlist;
        let fault_key = ((fault.signal.index() as u64) << 1) | fault.stuck_at as u64;
        let mut generator = RandomPatternGenerator::new(
            netlist,
            self.degrade
                .seed
                .wrapping_add(fault_key.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let candidates = match &self.constraint_spec {
            Some((lines, codes)) => {
                // The constrained lines were validated as primary inputs
                // when the constraints were installed.
                let positions: Vec<usize> = lines
                    .iter()
                    .filter_map(|&l| netlist.primary_inputs().iter().position(|&pi| pi == l))
                    .collect();
                let (accepted, _attempts) = generator.constrained_patterns(
                    self.degrade.patterns,
                    self.degrade.patterns.saturating_mul(64),
                    |p| {
                        let assignment: Vec<bool> = positions.iter().map(|&i| p[i]).collect();
                        codes.allows(&assignment)
                    },
                );
                accepted
            }
            None => generator.patterns(self.degrade.patterns),
        };
        if candidates.is_empty() {
            return Ok(None);
        }
        match self.width.lanes() {
            8 => self.degrade_verify::<8>(fault, &candidates),
            _ => self.degrade_verify::<1>(fault, &candidates),
        }
    }

    /// The width-generic PPSFP verification behind [`DigitalAtpg::degrade`]:
    /// scans the candidate patterns in `64 * W`-wide blocks and returns the
    /// **first** detecting pattern in candidate order (first block, first
    /// lane, lowest bit), so the chosen vector is independent of the width.
    fn degrade_verify<const W: usize>(
        &self,
        fault: StuckAtFault,
        candidates: &[Vec<bool>],
    ) -> Result<Option<TestVector>, CoreError> {
        let netlist = self.netlist;
        let cones = FaultCones::build(netlist, [fault.signal]);
        let mut scratch: PpsfpScratch<W> = PpsfpScratch::new(netlist);
        let simulator = Simulator::new(netlist);
        for block in candidates.chunks(64 * W) {
            let good = simulator
                .run_parallel_blocks::<W>(block)
                .map_err(|e| CoreError::Digital(e.to_string()))?;
            let diff = scratch.detection_block(
                netlist,
                &cones,
                fault,
                &good,
                block_mask::<W>(block.len()),
            );
            if let Some(lane) = diff.iter().position(|&w| w != 0) {
                let pattern = &block[lane * 64 + diff[lane].trailing_zeros() as usize];
                let observed_output = FaultSimulator::new(netlist)
                    .detecting_output(fault, pattern)
                    .map_err(|e| CoreError::Digital(e.to_string()))?
                    .unwrap_or(0);
                return Ok(Some(TestVector {
                    assignment: pattern.iter().map(|&b| Some(b)).collect(),
                    fault,
                    observed_output,
                }));
            }
        }
        Ok(None)
    }

    /// The pipelined engine behind [`Self::run_on`]: one pool session whose
    /// rounds generate fault chunks one step ahead of the replay.
    fn run_pipelined(
        &mut self,
        pool: &WorkerPool,
        faults: &FaultList,
        replay: &mut ReplayState<'a>,
        journal: &mut CampaignJournal,
        slots: &[Option<TestOutcome>],
    ) -> Result<(), CoreError> {
        let list = faults.faults();
        let netlist = self.netlist;
        let spec = self.constraint_spec.clone();
        let budget = self.budget;
        let cancel = self.cancel.clone();
        let chaos = self.chaos;
        let static_order = self.static_order;
        let dvo = self.dvo;
        // Replay-side coverage flags: set by the driver strictly between
        // rounds (prescreen), read by the workers to skip doomed
        // speculation.  They only gate whether a speculative outcome is
        // produced — the replay independently re-derives coverage — so the
        // flags cannot change the report, only the wasted work.
        let covered: Vec<AtomicBool> = list.iter().map(|_| AtomicBool::new(false)).collect();
        let n_rounds = list.len().div_ceil(REPLAY_CHUNK);
        // Small sub-chunks keep the pool's self-scheduling effective:
        // per-fault generation cost is highly uneven (hard faults explore
        // far more BDD nodes), so static one-chunk-per-worker splits would
        // leave workers idle behind the unlucky one.
        let chunks_per_round = REPLAY_CHUNK.div_ceil(GENERATE_CHUNK);
        pool.session(
            chunks_per_round,
            || {
                let engine = DigitalAtpg::new_ordered(netlist, static_order);
                let engine = match &spec {
                    Some((lines, codes)) => engine
                        .with_constraints(lines, codes)
                        .expect("constraints were validated when installed on the primary engine"),
                    None => engine,
                };
                // Worker engines mirror the primary's governance so their
                // speculative results match inline generation bit for bit;
                // they only *observe* the cancel token (never charge it).
                // The variable order is replayed too: same static order,
                // same sift at the same safe point (constraints and budget
                // armed), so speculative cubes match the driver's.
                let engine = engine.with_budget(budget).with_dvo(dvo);
                match &cancel {
                    Some(token) => engine.with_cancel_token(token.clone()),
                    None => engine,
                }
            },
            |engine, round_start: &usize, ci| {
                let base = round_start + ci * GENERATE_CHUNK;
                let end = (base + GENERATE_CHUNK)
                    .min(round_start + REPLAY_CHUNK)
                    .min(list.len());
                let mut outcomes: Vec<Option<Result<TestOutcome, BddError>>> = Vec::new();
                for k in base..end.max(base) {
                    // A resume slot already holds this fault's outcome:
                    // speculating would just recompute it.
                    if covered[k].load(Ordering::Relaxed)
                        || slots.get(k).is_some_and(|s| s.is_some())
                    {
                        outcomes.push(None);
                        continue;
                    }
                    if let Some(chaos) = chaos {
                        if let Some(event) = chaos.fires(k as u64) {
                            if event == ChaosEvent::Panic {
                                // A genuine panic inside the job: exercises
                                // the pool's panic machinery (isolation or
                                // fail-fast relay).  The *outcome* of fault
                                // `k` is decided by the replay driver from
                                // the injector alone.
                                panic!("chaos: injected panic at fault target {k}");
                            }
                            // Simulated budget/cancel events are decided by
                            // the driver; skip the doomed speculation.
                            outcomes.push(None);
                            continue;
                        }
                    }
                    outcomes.push(Some(engine.try_generate(list[k])));
                }
                outcomes
            },
            |session| -> Result<(), CoreError> {
                session.submit(0usize, chunks_per_round);
                for round in 0..n_rounds {
                    let round_start = round * REPLAY_CHUNK;
                    // The panic-isolating barrier: a chunk whose job
                    // panicked (chaos or genuine) simply loses its
                    // speculative outcomes — the replay regenerates them
                    // inline, where `decide` applies the panic policy with
                    // per-fault granularity.
                    let mut outcomes: Vec<Option<Result<TestOutcome, BddError>>> =
                        Vec::with_capacity(REPLAY_CHUNK);
                    for (ci, chunk_result) in session.wait_results().into_iter().enumerate() {
                        match chunk_result {
                            Ok(chunk) => outcomes.extend(chunk),
                            Err(_chunk_panic) => {
                                let base = round_start + ci * GENERATE_CHUNK;
                                let end = (base + GENERATE_CHUNK)
                                    .min(round_start + REPLAY_CHUNK)
                                    .min(list.len());
                                outcomes.extend((base..end.max(base)).map(|_| None));
                            }
                        }
                    }
                    if round + 1 < n_rounds {
                        // Pre-screen the next round against the blocks
                        // replayed so far (rounds < `round`), then hand it
                        // to the workers before replaying this round.
                        let next_start = (round + 1) * REPLAY_CHUNK;
                        let next_end = (next_start + REPLAY_CHUNK).min(list.len());
                        for k in next_start..next_end {
                            if replay.covered(list[k]) {
                                covered[k].store(true, Ordering::Relaxed);
                            }
                        }
                        session.submit(next_start, chunks_per_round);
                    }
                    // Replay round `round` while the workers generate round
                    // `round + 1` — exactly the serial loop, with inline
                    // generation replaced by the speculative result where
                    // available.
                    for (j, speculative) in outcomes.into_iter().enumerate() {
                        let k = round_start + j;
                        let fault = list[k];
                        // Exactly the serial loop: resume slots replay
                        // first (they encode the coverage state of the
                        // original run at this index).
                        if let Some(outcome) = slots.get(k).and_then(|s| s.clone()) {
                            journal.record(&outcome)?;
                            replay.consume(fault, outcome)?;
                            continue;
                        }
                        // A flag set by the prescreen was itself a full
                        // coverage scan, and coverage is monotone (blocks
                        // only gain patterns), so the replay can trust it
                        // without rescanning; only unflagged faults pay the
                        // pre-check here.  Flags are written by this driver
                        // alone, never by workers.
                        if covered[k].load(Ordering::Relaxed) || replay.covered(fault) {
                            replay.detected += 1;
                            journal.record(&TestOutcome::PreviouslyDetected)?;
                            continue;
                        }
                        let outcome = self.decide(k, fault, speculative)?;
                        journal.record(&outcome)?;
                        replay.consume(fault, outcome)?;
                    }
                }
                Ok(())
            },
        )
    }

    /// Signal functions with `line` replaced by the free variable `D`
    /// (faulty-cone recomputation).
    fn functions_with_free_line(&mut self, line: SignalId) -> Result<Vec<Bdd>, BddError> {
        let mut values = self.signal_bdds.clone();
        values[line.index()] = self.manager.literal(self.d_var, true);
        let mut in_cone = vec![false; values.len()];
        for s in self.netlist.fanout_cone(line) {
            in_cone[s.index()] = true;
        }
        for gate in self.netlist.gates() {
            if gate.output == line || !in_cone[gate.output.index()] {
                continue;
            }
            let inputs: Vec<Bdd> = gate.inputs.iter().map(|i| values[i.index()]).collect();
            values[gate.output.index()] = try_apply_gate(&mut self.manager, gate.kind, &inputs)?;
        }
        Ok(values)
    }

    fn vector_from_cube(&self, cube: &Cube, fault: StuckAtFault, po_index: usize) -> TestVector {
        let assignment = self
            .netlist
            .primary_inputs()
            .iter()
            .map(|&pi| {
                self.manager
                    .var_index(self.netlist.signal_name(pi))
                    .and_then(|v| cube.get(v))
            })
            .collect();
        TestVector {
            assignment,
            fault,
            observed_output: po_index,
        }
    }
}

/// Lowers one gate onto the OBDD manager: the single definition of how a
/// [`GateKind`] becomes Boolean operations, shared by the test generator,
/// the propagation engine and the `bdd_memory` benchmark (which must
/// measure exactly the build the ATPG performs).
///
/// # Panics
///
/// Panics if a budget or cancel token armed on `manager` interrupts the
/// build; use [`try_apply_gate`] under governance.
pub fn apply_gate(manager: &mut BddManager, kind: GateKind, inputs: &[Bdd]) -> Bdd {
    match try_apply_gate(manager, kind, inputs) {
        Ok(f) => f,
        Err(err) => panic!("infallible gate lowering interrupted: {err}"),
    }
}

/// Fallible [`apply_gate`]: returns the structured [`BddError`] when the
/// budget or cancel token armed on `manager` interrupts the build.
///
/// # Errors
///
/// Propagates [`BddError`] from the underlying `try_*` operations.
pub fn try_apply_gate(
    manager: &mut BddManager,
    kind: GateKind,
    inputs: &[Bdd],
) -> Result<Bdd, BddError> {
    Ok(match kind {
        GateKind::Buf => inputs[0],
        GateKind::Not => manager.not(inputs[0]),
        GateKind::And => manager.try_and_all(inputs.iter().copied())?,
        GateKind::Nand => {
            let a = manager.try_and_all(inputs.iter().copied())?;
            manager.not(a)
        }
        GateKind::Or => manager.try_or_all(inputs.iter().copied())?,
        GateKind::Nor => {
            let o = manager.try_or_all(inputs.iter().copied())?;
            manager.not(o)
        }
        GateKind::Xor => {
            let mut acc = inputs[0];
            for &b in inputs.iter().skip(1) {
                acc = manager.try_xor(acc, b)?;
            }
            acc
        }
        GateKind::Xnor => {
            let mut acc = inputs[0];
            for &b in inputs.iter().skip(1) {
                acc = manager.try_xor(acc, b)?;
            }
            manager.not(acc)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msatpg_digital::circuits;
    use msatpg_digital::fault::FaultList;
    use msatpg_digital::fault_sim::FaultSimulator;

    fn example2_constraint() -> AllowedCodes {
        // Fc = l0 + l2: every code except (0, 0).
        AllowedCodes::new(
            2,
            vec![vec![true, false], vec![false, true], vec![true, true]],
        )
    }

    #[test]
    fn figure3_alone_is_fully_testable() {
        let circuit = circuits::figure3_circuit();
        let faults = FaultList::all(&circuit);
        let mut atpg = DigitalAtpg::new(&circuit);
        let report = atpg.run(&faults).unwrap();
        assert_eq!(report.total_faults, 18);
        assert_eq!(report.untestable_count(), 0);
        assert!((report.coverage() - 1.0).abs() < 1e-12);
        assert!(!report.constrained);
        assert!(report.vector_count() <= report.detected);
    }

    #[test]
    fn figure3_under_constraints_loses_one_equivalence_class() {
        // The paper: with Fc = l0 + l2, the faults l0 s-a-1 and l3 s-a-1
        // become undetectable (two named faults of one equivalence class).
        // In our gate-level realization the OR gate that combines l0 and the
        // l2-branch l3 materializes a third equivalent fault (its output
        // s-a-1), so the uncollapsed run reports three undetectable faults —
        // all structurally equivalent — and the collapsed run reports two,
        // matching the paper's count.
        let circuit = circuits::figure3_circuit();
        let l0 = circuit.find_signal("l0").unwrap();
        let l2 = circuit.find_signal("l2").unwrap();
        let l3 = circuit.find_signal("l3").unwrap();
        let l6 = circuit.find_signal("l6").unwrap();

        let uncollapsed = FaultList::all(&circuit);
        let mut atpg = DigitalAtpg::new(&circuit)
            .with_constraints(&[l0, l2], &example2_constraint())
            .unwrap();
        let report = atpg.run(&uncollapsed).unwrap();
        assert!(report.constrained);
        assert_eq!(
            report.untestable_count(),
            3,
            "untestable: {:?}",
            report.untestable
        );
        assert!(report.untestable.contains(&StuckAtFault::sa1(l0)));
        assert!(report.untestable.contains(&StuckAtFault::sa1(l3)));
        assert!(report.untestable.contains(&StuckAtFault::sa1(l6)));

        let collapsed = FaultList::collapsed(&circuit);
        let mut atpg2 = DigitalAtpg::new(&circuit)
            .with_constraints(&[l0, l2], &example2_constraint())
            .unwrap();
        let report2 = atpg2.run(&collapsed).unwrap();
        assert_eq!(
            report2.untestable_count(),
            2,
            "untestable: {:?}",
            report2.untestable
        );
        assert!(report2.untestable.contains(&StuckAtFault::sa1(l0)));
    }

    #[test]
    fn generated_vector_matches_paper_example() {
        // Fault l3 s-a-0 under Fc = l0 + l2: the paper derives the test
        // vector {l0, l1, l2, l4} = {0, 0, 1, X}.  Our generator must produce
        // a vector that activates, propagates and satisfies the constraint;
        // l2 = 1 and l0 = 0 are forced, the others may differ.
        let circuit = circuits::figure3_circuit();
        let l0 = circuit.find_signal("l0").unwrap();
        let l2 = circuit.find_signal("l2").unwrap();
        let l3 = circuit.find_signal("l3").unwrap();
        let mut atpg = DigitalAtpg::new(&circuit)
            .with_constraints(&[l0, l2], &example2_constraint())
            .unwrap();
        match atpg.generate(StuckAtFault::sa0(l3)) {
            TestOutcome::Detected(vector) => {
                // PI order is l0, l1, l2, l4.
                assert_eq!(vector.assignment[2], Some(true), "l2 must be 1 to activate");
                assert_eq!(
                    vector.assignment[0],
                    Some(false),
                    "l0 must be 0 to propagate"
                );
                let pattern = vector.to_pattern_string();
                assert_eq!(pattern.len(), 4);
            }
            other => panic!("expected a test, got {other:?}"),
        }
    }

    #[test]
    fn every_generated_vector_really_detects_its_fault() {
        let circuit = circuits::adder4();
        let faults = FaultList::collapsed(&circuit);
        let mut atpg = DigitalAtpg::new(&circuit);
        let report = atpg.run(&faults).unwrap();
        assert_eq!(report.untestable_count(), 0, "the adder is fully testable");
        let sim = FaultSimulator::new(&circuit);
        for vector in &report.vectors {
            let pattern = vector.concretize(false);
            assert!(
                sim.detects(vector.fault, &pattern).unwrap(),
                "vector {} must detect {}",
                vector.to_pattern_string(),
                vector.fault.describe(&circuit)
            );
        }
    }

    #[test]
    fn constrained_vectors_satisfy_the_constraint() {
        let circuit = circuits::figure3_circuit();
        let faults = FaultList::all(&circuit);
        let l0 = circuit.find_signal("l0").unwrap();
        let l2 = circuit.find_signal("l2").unwrap();
        let codes = example2_constraint();
        let mut atpg = DigitalAtpg::new(&circuit)
            .with_constraints(&[l0, l2], &codes)
            .unwrap();
        let report = atpg.run(&faults).unwrap();
        for vector in &report.vectors {
            let pattern = vector.concretize(false);
            // PI order: l0, l1, l2, l4 → constrained assignment is (l0, l2).
            let constrained = vec![pattern[0], pattern[2]];
            assert!(
                codes.allows(&constrained),
                "vector {} violates Fc",
                vector.to_pattern_string()
            );
        }
    }

    #[test]
    fn dropping_reduces_vector_count_but_not_coverage() {
        let circuit = circuits::adder4();
        let faults = FaultList::collapsed(&circuit);
        let with_drop = DigitalAtpg::new(&circuit).run(&faults).unwrap();
        let without_drop = DigitalAtpg::new(&circuit)
            .with_fault_dropping(false)
            .run(&faults)
            .unwrap();
        assert_eq!(with_drop.detected, without_drop.detected);
        assert!(with_drop.vector_count() <= without_drop.vector_count());
        assert!(without_drop.cpu >= Duration::ZERO);
    }

    #[test]
    fn parallel_runs_are_byte_identical_to_serial() {
        // Unconstrained adder and constrained Figure-3: every report field
        // except the wall-clock must match the serial run exactly, for both
        // dropping modes.
        let adder = circuits::adder4();
        let adder_faults = FaultList::collapsed(&adder);
        let figure3 = circuits::figure3_circuit();
        let figure3_faults = FaultList::all(&figure3);
        let l0 = figure3.find_signal("l0").unwrap();
        let l2 = figure3.find_signal("l2").unwrap();
        for dropping in [true, false] {
            let reference = DigitalAtpg::new(&adder)
                .with_fault_dropping(dropping)
                .run(&adder_faults)
                .unwrap();
            let constrained_reference = DigitalAtpg::new(&figure3)
                .with_constraints(&[l0, l2], &example2_constraint())
                .unwrap()
                .with_fault_dropping(dropping)
                .run(&figure3_faults)
                .unwrap();
            for threads in [2usize, 8] {
                let parallel = DigitalAtpg::new(&adder)
                    .with_fault_dropping(dropping)
                    .with_policy(ExecPolicy::Threads(threads))
                    .run(&adder_faults)
                    .unwrap();
                assert_eq!(parallel.detected, reference.detected);
                assert_eq!(parallel.untestable, reference.untestable);
                assert_eq!(parallel.vectors, reference.vectors);
                let parallel = DigitalAtpg::new(&figure3)
                    .with_constraints(&[l0, l2], &example2_constraint())
                    .unwrap()
                    .with_fault_dropping(dropping)
                    .with_policy(ExecPolicy::Threads(threads))
                    .run(&figure3_faults)
                    .unwrap();
                assert_eq!(parallel.detected, constrained_reference.detected);
                assert_eq!(parallel.untestable, constrained_reference.untestable);
                assert_eq!(parallel.vectors, constrained_reference.vectors);
                assert_eq!(parallel.constrained, constrained_reference.constrained);
            }
        }
    }

    #[test]
    fn pipelined_run_spawns_one_worker_set_and_one_barrier_per_round() {
        let circuit = circuits::adder4();
        // Double the fault universe so the campaign spans several pipeline
        // rounds (the replay handles repeated faults like the serial loop).
        let mut universe = FaultList::all(&circuit).faults().to_vec();
        universe.extend(universe.clone());
        let faults = FaultList::from_faults(universe);
        let pool = WorkerPool::new(ExecPolicy::Threads(2));
        let report = DigitalAtpg::new(&circuit)
            .with_policy(ExecPolicy::Threads(2))
            .run_on(&pool, &faults)
            .unwrap();
        let reference = DigitalAtpg::new(&circuit).run(&faults).unwrap();
        assert_eq!(report.vectors, reference.vectors);
        assert_eq!(report.detected, reference.detected);
        assert_eq!(report.untestable, reference.untestable);
        let stats = pool.stats();
        let n_rounds = faults.len().div_ceil(REPLAY_CHUNK) as u64;
        assert!(
            n_rounds >= 2,
            "the adder fault list must span several rounds"
        );
        assert_eq!(
            stats.spawns, 2,
            "one worker set for the whole pipelined run, not one per chunk"
        );
        assert_eq!(stats.barriers, n_rounds, "one barrier per pipeline round");
    }

    #[test]
    fn gc_between_targets_never_changes_outcomes() {
        // Force a full collection after every fault target on one engine
        // and none on the other: the per-fault outcomes (vectors, observed
        // outputs, untestability) must be byte-identical, because the sweep
        // never touches the protected signal functions or `Fc` and never
        // renumbers live nodes.
        let circuit = circuits::figure3_circuit();
        let l0 = circuit.find_signal("l0").unwrap();
        let l2 = circuit.find_signal("l2").unwrap();
        let faults = FaultList::all(&circuit);
        let mut collected = DigitalAtpg::new(&circuit)
            .with_constraints(&[l0, l2], &example2_constraint())
            .unwrap();
        let mut plain = DigitalAtpg::new(&circuit)
            .with_constraints(&[l0, l2], &example2_constraint())
            .unwrap();
        for &fault in faults.faults() {
            let report = collected.manager.gc();
            assert_eq!(
                report.live_after,
                collected.manager.live_node_count(),
                "gc accounting is coherent"
            );
            assert_eq!(collected.generate(fault), plain.generate(fault), "{fault}");
        }
        assert!(
            collected.manager.stats().gc_runs >= faults.len() as u64,
            "one forced collection per target"
        );
        assert_eq!(plain.manager.stats().gc_runs, 0);
        // The collected engine's arena is bounded by its live state; the
        // plain engine accumulated every transient test set.
        assert!(
            collected.manager.stats().node_count <= plain.manager.stats().node_count,
            "collection cannot leave more nodes live"
        );
    }

    #[test]
    fn constraining_a_non_input_line_is_rejected() {
        let circuit = circuits::figure3_circuit();
        let l6 = circuit.find_signal("l6").unwrap();
        let result = DigitalAtpg::new(&circuit)
            .with_constraints(&[l6], &AllowedCodes::new(1, vec![vec![true]]));
        assert!(result.is_err());
    }

    #[test]
    fn mismatched_code_width_is_a_structured_error() {
        // Two-bit codes over one constrained line must be rejected with an
        // error, not an assertion failure inside the Fc build.
        let circuit = circuits::figure3_circuit();
        let l0 = circuit.find_signal("l0").unwrap();
        let result = DigitalAtpg::new(&circuit).with_constraints(&[l0], &example2_constraint());
        assert!(result.is_err());
    }

    #[test]
    fn signal_functions_are_exposed() {
        let circuit = circuits::figure3_circuit();
        let atpg = DigitalAtpg::new(&circuit);
        let l6 = circuit.find_signal("l6").unwrap();
        let f = atpg.signal_function(l6);
        // l6 = l0 OR l3 = l0 OR l2 (through the buffer).
        assert_eq!(atpg.manager().support(f).len(), 2);
        assert!(atpg.constraint().is_one());
    }

    /// Every report field except the wall-clock must match.
    fn assert_reports_identical(a: &AtpgReport, b: &AtpgReport) {
        assert_eq!(a.total_faults, b.total_faults);
        assert_eq!(a.detected, b.detected);
        assert_eq!(a.untestable, b.untestable);
        assert_eq!(a.degraded, b.degraded);
        assert_eq!(a.aborted, b.aborted);
        assert_eq!(a.vectors, b.vectors);
        assert_eq!(a.constrained, b.constrained);
    }

    #[test]
    fn tiny_step_budget_degrades_gracefully_and_deterministically() {
        // A one-step quota per fault target: deterministic generation fails
        // on every fault that needs real BDD work, and the seeded random
        // fallback takes over.  The run must complete without panicking,
        // account for every fault, and be byte-identical across thread
        // counts.
        let circuit = circuits::adder4();
        let faults = FaultList::collapsed(&circuit);
        let budget = BddBudget::UNLIMITED.with_max_steps(1);
        let reference = DigitalAtpg::new(&circuit)
            .with_budget(budget)
            .run(&faults)
            .unwrap();
        assert_eq!(
            reference.detected + reference.untestable_count() + reference.aborted_count(),
            faults.len(),
            "every fault is accounted for"
        );
        assert!(
            reference.degraded_count() > 0,
            "the random fallback rescues budget-aborted faults"
        );
        assert!(reference
            .aborted
            .iter()
            .all(|(_, r)| *r == AbortReason::Budget));
        // Degraded vectors are real tests: fully specified and verified.
        let sim = FaultSimulator::new(&circuit);
        for vector in &reference.vectors {
            assert!(vector.assignment.iter().all(Option::is_some));
            assert!(sim
                .detects(vector.fault, &vector.concretize(false))
                .unwrap());
        }
        for threads in [2usize, 8] {
            let parallel = DigitalAtpg::new(&circuit)
                .with_budget(budget)
                .with_policy(ExecPolicy::Threads(threads))
                .run(&faults)
                .unwrap();
            assert_reports_identical(&parallel, &reference);
        }
    }

    #[test]
    fn generous_budget_changes_nothing() {
        // A budget large enough never to fire must leave the report
        // byte-identical to the ungoverned run — the governed path's extra
        // collections cannot change outcomes.
        let circuit = circuits::adder4();
        let faults = FaultList::collapsed(&circuit);
        let clean = DigitalAtpg::new(&circuit).run(&faults).unwrap();
        let governed = DigitalAtpg::new(&circuit)
            .with_budget(BddBudget::UNLIMITED.with_max_steps(u64::MAX / 2))
            .run(&faults)
            .unwrap();
        assert_reports_identical(&governed, &clean);
        assert!(governed.degraded.is_empty());
        assert!(governed.aborted.is_empty());
    }

    #[test]
    fn step_quota_token_aborts_the_tail_at_the_same_fault_everywhere() {
        // The driver charges the token once per targeted fault in replay
        // order, and the charge that exhausts the quota itself fails, so a
        // quota of five decides exactly four faults and abandons the rest as
        // Aborted(Deadline) — at the identical fault on every thread count.
        let circuit = circuits::adder4();
        let faults = FaultList::collapsed(&circuit);
        let quota = 5u64;
        let reference = DigitalAtpg::new(&circuit)
            .with_cancel_token(CancelToken::with_step_quota(quota))
            .run(&faults)
            .unwrap();
        assert!(reference.aborted_count() > 0, "quota fired mid-campaign");
        assert!(reference
            .aborted
            .iter()
            .all(|(_, r)| *r == AbortReason::Deadline));
        assert_eq!(
            reference.vector_count() + reference.untestable_count() + reference.degraded_count(),
            quota as usize - 1,
            "the exhausting charge fails, so quota - 1 faults were decided"
        );
        assert_eq!(
            reference.detected + reference.untestable_count() + reference.aborted_count(),
            faults.len()
        );
        for threads in [2usize, 8] {
            let parallel = DigitalAtpg::new(&circuit)
                .with_cancel_token(CancelToken::with_step_quota(quota))
                .with_policy(ExecPolicy::Threads(threads))
                .run(&faults)
                .unwrap();
            assert_reports_identical(&parallel, &reference);
        }
    }

    #[test]
    fn engine_and_token_state_survive_cancellation() {
        // After a cancelled campaign the engine (and a fresh token) run the
        // full list as if nothing happened.
        let circuit = circuits::figure3_circuit();
        let faults = FaultList::all(&circuit);
        let clean = DigitalAtpg::new(&circuit).run(&faults).unwrap();
        let mut atpg =
            DigitalAtpg::new(&circuit).with_cancel_token(CancelToken::with_step_quota(2));
        let cancelled = atpg.run(&faults).unwrap();
        assert!(cancelled.aborted_count() > 0);
        // Re-arm with an unlimited token: the same engine recovers fully.
        let mut atpg = atpg.with_cancel_token(CancelToken::new());
        let recovered = atpg.run(&faults).unwrap();
        assert_reports_identical(&recovered, &clean);
    }

    #[test]
    fn chaos_isolate_confines_injected_panics_and_stays_deterministic() {
        let circuit = circuits::adder4();
        let faults = FaultList::collapsed(&circuit);
        let chaos = ChaosInjector::new(0xC0FFEE).with_panic_rate(5);
        let reference = DigitalAtpg::new(&circuit)
            .with_chaos(chaos)
            .with_panic_policy(PanicPolicy::Isolate)
            .run(&faults)
            .unwrap();
        assert!(
            reference
                .aborted
                .iter()
                .any(|(_, r)| *r == AbortReason::Panic),
            "the injector hit at least one targeted fault"
        );
        assert_eq!(
            reference.detected + reference.untestable_count() + reference.aborted_count(),
            faults.len()
        );
        for threads in [2usize, 8] {
            let parallel = DigitalAtpg::new(&circuit)
                .with_chaos(chaos)
                .with_panic_policy(PanicPolicy::Isolate)
                .with_policy(ExecPolicy::Threads(threads))
                .run(&faults)
                .unwrap();
            assert_reports_identical(&parallel, &reference);
        }
    }

    #[test]
    #[should_panic(expected = "chaos: injected panic")]
    fn chaos_failfast_propagates_the_injected_panic() {
        let circuit = circuits::figure3_circuit();
        let faults = FaultList::all(&circuit);
        // Rate 1: the very first targeted fault panics under FailFast.
        let chaos = ChaosInjector::new(1).with_panic_rate(1);
        let _ = DigitalAtpg::new(&circuit).with_chaos(chaos).run(&faults);
    }

    #[test]
    fn chaos_budget_events_degrade_under_constraints() {
        // Simulated budget exhaustion on a constrained engine: the degraded
        // vectors must satisfy the constraint codes (they were drawn through
        // the constrained pattern generator) and really detect their faults.
        let circuit = circuits::figure3_circuit();
        let faults = FaultList::all(&circuit);
        let l0 = circuit.find_signal("l0").unwrap();
        let l2 = circuit.find_signal("l2").unwrap();
        let codes = example2_constraint();
        let chaos = ChaosInjector::new(3).with_budget_rate(2);
        let mut atpg = DigitalAtpg::new(&circuit)
            .with_constraints(&[l0, l2], &codes)
            .unwrap()
            .with_chaos(chaos);
        let report = atpg.run(&faults).unwrap();
        assert!(report.degraded_count() > 0, "some faults were degraded");
        let sim = FaultSimulator::new(&circuit);
        for vector in &report.vectors {
            let pattern = vector.concretize(false);
            // PI order: l0, l1, l2, l4 → constrained assignment is (l0, l2).
            assert!(codes.allows(&vec![pattern[0], pattern[2]]));
            if report.degraded.contains(&vector.fault) {
                assert!(sim.detects(vector.fault, &pattern).unwrap());
            }
        }
    }

    #[test]
    fn pool_survives_chaos_and_cancellation_and_stays_reusable() {
        // One pool across three campaigns: injected worker panics
        // (isolated), a mid-run cancellation, then a clean run that must be
        // byte-identical to a fresh pool's.
        let circuit = circuits::adder4();
        let faults = FaultList::collapsed(&circuit);
        let clean_reference = DigitalAtpg::new(&circuit).run(&faults).unwrap();
        let pool = WorkerPool::new(ExecPolicy::Threads(2)).with_panic_policy(PanicPolicy::Isolate);
        let chaotic = DigitalAtpg::new(&circuit)
            .with_chaos(ChaosInjector::new(0xBAD).with_panic_rate(4))
            .with_panic_policy(PanicPolicy::Isolate)
            .run_on(&pool, &faults)
            .unwrap();
        assert!(chaotic.aborted_count() > 0);
        let cancelled = DigitalAtpg::new(&circuit)
            .with_cancel_token(CancelToken::with_step_quota(3))
            .run_on(&pool, &faults)
            .unwrap();
        assert!(cancelled.aborted_count() > 0);
        let clean = DigitalAtpg::new(&circuit).run_on(&pool, &faults).unwrap();
        assert_reports_identical(&clean, &clean_reference);
        assert!(clean.degraded.is_empty() && clean.aborted.is_empty());
    }
}
