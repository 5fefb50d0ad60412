//! Backtrack-free, OBDD-based stuck-at test generation with constraints
//! (the paper's BDD_FTEST extended with the constraint function `Fc`).
//!
//! For a fault *l* s-a-*v*, the set of test vectors is obtained purely by
//! Boolean manipulation — no search, no backtracking.  The paper defines it
//! as
//!
//! ```text
//! S = activation · propagation · Fc
//!   = (f_l ⊕ v) · (∂PO/∂l) · Fc
//! ```
//!
//! where `f_l` is the function of line *l* in terms of the primary inputs,
//! `∂PO/∂l = PO|l=0 ⊕ PO|l=1` is the Boolean difference of a primary output
//! with respect to the line, and `Fc` encodes the assignments the
//! conversion block can produce.  Any path to `1` in `S` is a test vector;
//! `S = ∅` for every output means the fault is untestable under the
//! constraints.
//!
//! The generator factors this function through the fault's fanout-free
//! region.  A line read by exactly one gate pin, and not itself a primary
//! output, has a single reader; following readers from *l* ends at the
//! region's stem *s*, a line that is a primary output or is read by ≠ 1
//! gate pins.  The test set is built as
//!
//! ```text
//! S = Δ · D(s, PO),   Δ = (f_l ⊕ v) · sens(l),   D(s, PO) = ∂PO/∂s · Fc
//! ```
//!
//! where `sens(l)` is the product of the side-input conditions of the gates
//! on the path from *l* to *s*: for an AND/NAND reader the other inputs at
//! `1`, for an OR/NOR reader the other inputs at `0`, and no condition for
//! XOR/XNOR/BUF/NOT.  `∂PO/∂s` is the stuck-value miter of the stem,
//! `PO ⊕ PO|s:=¬f_s`, with the stem replaced by its own complement: by
//! Shannon expansion on *s*, `PO` and `PO|s:=¬f_s` take the two values
//! `PO|s=0` and `PO|s=1` at every input, so their XOR is `∂PO/∂s`.
//!
//! The miter is never built as two functions and an XOR.  The generator
//! propagates the *difference* `Δg = g ⊕ g|s:=¬f_s` from the stem, where
//! `Δs = 1`, through the gates between the stem and the output:
//!
//! ```text
//! BUF, NOT                    Δout = Δin
//! XOR, XNOR                   Δout = ⊕ Δpin
//! AND/NAND/OR/NOR, one Δ ≠ 0  Δout = Δpin · local(pin)
//! two or more Δ ≠ 0           Δout = out ⊕ gate(in_k ⊕ Δ_k)
//! ```
//!
//! with `local(pin)` the side-input rule of `sens`: for an AND gate
//! `out ⊕ (pin ⊕ Δ) · rest = Δ · rest`, and dually for OR.  So
//! `D(s, PO) = ΔPO · Fc`, the same function as the miter and therefore the
//! same canonical node.  An output's own function is never needed, and a
//! gate's good function only where two or more of its pins changed.
//!
//! *Why this is the paper's `S`.*  Every line on the path from *l* to *s*
//! has a single reader, so the fault reaches the rest of the circuit only
//! through *s*, and no side input of a path gate lies in the fanout of *l*
//! (that would need a second reader on the path).  The side inputs are
//! therefore fault-free, and the fault flips *s* exactly where the line is
//! activated (`f_l ⊕ v`) and every path gate passes the change (`sens`):
//! where `Δ = 1`.  Flipping *s* changes `PO` exactly on `∂PO/∂s`, so
//! `∂PO/∂l = sens(l) · ∂PO/∂s` and `S` is `(f_l ⊕ v) · ∂PO/∂l · Fc`.  The
//! same function has the same canonical OBDD and therefore the same
//! satisfying cube, so the vectors are exactly the paper's.  The outputs
//! tried are unchanged as well: an output is in the fanout cone of *l*
//! exactly when it is in the cone of *s*.
//!
//! The expensive part, the difference cone between the stem and the
//! outputs, is per-region work.  `sens(l)` is memoized per line
//! (`sens(s) = 1`) and `D(s, PO)` per (stem, output) the first time a fault
//! of the region tries that output.  The outputs of a fault are tried in
//! order until one yields a test, and `D(s, PO)` is built from the gates in
//! `fanout(s) ∩ fanin(PO)` alone, reusing what earlier outputs of the same
//! stem built.  Outputs outside the cone of *s* can never differ and are
//! skipped without a BDD operation.  Under a budget or cancel token, each
//! fault target builds its `sens` and `D` terms afresh and keeps none of
//! them (see [`DigitalAtpg::with_budget`]), so governed outcomes stay a
//! pure function of the fault.
//!
//! The fault-free signal functions are built on first read.  A new engine
//! holds only the primary-input literals; the first read of a line builds
//! its function and the unbuilt part of its fanin, and protects them for
//! the engine's life.  Only `f_l`, the side inputs read by `sens` and the
//! one-pin rule, and the gates of the two-pin fallback are ever read, so a
//! campaign with fault dropping builds the fanin closure of what it derives
//! and nothing else.  An engine that arms a budget or cancel token first
//! builds every signal function (see [`DigitalAtpg::with_budget`]), so a
//! governed target never pays for one.
//!
//! Each output tried then costs one node-free search:
//! [`BddManager::try_sat_one_and`] reads the vector off `Δ · D(s, PO)`
//! without building the product, and returns the cube `sat_one` would read
//! off the product's canonical OBDD, don't-cares included.  It walks the
//! operand pair `(a, b)` from `(Δ, D)` the way `sat_one` walks the product:
//! at the pair's top variable `x`, `x = 1` when `a1 · b1 ≠ 0`, else `x = 0`.
//!
//! *Why `x` is open exactly when the cofactor products are equal.*  Where
//! the walk stands at `(a, b)`, the product walk of `sat_one` stands at the
//! node of `a · b`, and that node's cofactors at `x` are `a0 · b0` and
//! `a1 · b1`.  A reduced OBDD tests `x` unless its two cofactors are the
//! same function, so the canonical product skips `x`, and `sat_one` leaves
//! it open, exactly when `a0 · b0 = a1 · b1`.  Both walks then continue on
//! the same function, so every later step agrees.  Where the product does
//! test `x`, `sat_one` takes `x = 1` exactly when `a1 · b1 ≠ 0`, as the
//! walk does.  An open `x` always comes from an `x = 1` step, because equal
//! cofactors of a non-empty product are both non-empty.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use msatpg_bdd::{Bdd, BddBudget, BddError, BddManager, VarId};
use msatpg_conversion::constraints::AllowedCodes;
use msatpg_digital::fault::{FaultList, StuckAtFault};
use msatpg_digital::fault_sim::{
    block_mask, FaultCones, FaultSimulator, ObsMemo, PpsfpScratch, WordWidth,
};
use msatpg_digital::gate::GateKind;
use msatpg_digital::netlist::{Gate, Netlist, SignalId};
use msatpg_digital::random_tpg::RandomPatternGenerator;
use msatpg_digital::region::RegionMap;
use msatpg_digital::sim::Simulator;
use msatpg_digital::DigitalError;
use msatpg_exec::{CancelToken, ChaosEvent, ChaosInjector, PanicPolicy, WorkerPool};

use crate::constraint::{constraint_bdd, declare_input_variables};
use crate::ordering::DvoMode;
use crate::store::{self, Checkpoint, CheckpointPolicy};
use crate::CoreError;

/// Live-node watermark above which the per-fault safe point sweeps the BDD
/// arena.  Every fault target builds its fault effect afresh, so the
/// garbage fraction grows linearly with the fault count.  The
/// long-lived state is protected and survives every collection: `Fc`, the
/// signal functions built so far and, on an ungoverned engine, the region
/// caches (`sens` per line and `∂PO/∂s · Fc` per stem and output) as they
/// fill.  The sweep is therefore invisible in the generated vectors.  A
/// fault's transients are its fault effect `Δ` and, on a cache miss, the
/// stem's difference cone; its `Δ · D` test sets are never built.  One
/// collection spans many faults.
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
/// are byte-identical across runs, widths and resumes.
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

/// The width-generic coverage store behind [`ReplayState`]: generated
/// patterns accumulate in `64 * W`-wide good-value blocks, and a candidate
/// fault is checked against a whole block with the stem-region PPSFP kernel
/// the fault simulator uses ([`PpsfpScratch`]): its activation word, ANDed
/// with the side inputs of its single-reader path, ANDed with the
/// observability word of its region's stem.  The cones are compiled once
/// per stem, not per fault site.
///
/// Each block memoizes the observability of the stems it has been asked
/// about.  A full block never changes, so its entries stay valid for the
/// rest of the run; absorbing a pattern into the open block changes its good
/// values, so that block's memo is cleared.
///
/// The coverage answer is a boolean OR over all absorbed patterns, so it is
/// independent of how those patterns are grouped into blocks — which is why
/// reports stay byte-identical across widths.
struct WideCoverage<const W: usize> {
    cones: FaultCones,
    scratch: PpsfpScratch<W>,
    /// Patterns fill the last block lane bit by lane bit.
    blocks: Vec<CoverageBlock<W>>,
}

/// One block of [`WideCoverage`]: good values, valid-pattern mask and the
/// stem observability memo.
struct CoverageBlock<const W: usize> {
    good: Vec<[u64; W]>,
    mask: [u64; W],
    obs: ObsMemo<W>,
}

impl<const W: usize> WideCoverage<W> {
    fn new(netlist: &Netlist, faults: &FaultList) -> Self {
        WideCoverage {
            cones: FaultCones::build(netlist, faults.faults().iter().map(|f| f.signal)),
            scratch: PpsfpScratch::new(netlist),
            blocks: Vec::new(),
        }
    }

    fn covered(&mut self, netlist: &Netlist, fault: StuckAtFault) -> bool {
        let scratch = &mut self.scratch;
        let cones = &self.cones;
        self.blocks.iter_mut().any(|block| {
            let detected = scratch.detection_block(
                netlist,
                cones,
                &mut block.obs,
                fault,
                &block.good,
                block.mask,
            );
            detected != [0; W]
        })
    }

    /// Adds one pattern to the last block (a new one when it is full): the
    /// pattern's bits go onto the primary-input words at the next free
    /// slot, and one in-place gate pass over the word holding that slot
    /// updates every signal.  A new block starts from one pass over its
    /// all-zero inputs, so every block is bit-identical to simulating its
    /// patterns in one batch with the unused slots zero-packed.
    fn absorb(&mut self, netlist: &Netlist, pattern: &[bool]) -> Result<(), CoreError> {
        let inputs = netlist.primary_inputs();
        if pattern.len() != inputs.len() {
            let mismatch = DigitalError::PatternWidthMismatch {
                expected: inputs.len(),
                actual: pattern.len(),
            };
            return Err(CoreError::Digital(mismatch.to_string()));
        }
        if self
            .blocks
            .last()
            .is_none_or(|block| block.mask[W - 1] == u64::MAX)
        {
            let mut good = vec![[0; W]; netlist.signal_count()];
            for word in 0..W {
                settle_word(netlist, &mut good, word);
            }
            self.blocks.push(CoverageBlock {
                good,
                mask: [0; W],
                obs: ObsMemo::new(&self.cones),
            });
        }
        let last = self.blocks.len() - 1;
        let block = &mut self.blocks[last];
        let slot = block
            .mask
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>();
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        for (&pi, &value) in inputs.iter().zip(pattern) {
            if value {
                block.good[pi.index()][word] |= bit;
            }
        }
        settle_word(netlist, &mut block.good, word);
        block.mask[word] |= bit;
        // The open block's good values changed under its memo.
        block.obs.clear();
        Ok(())
    }
}

/// Re-evaluates every gate of `netlist`, in topological order, on word
/// `word` of the good-value block `good`; the other words are untouched.
fn settle_word<const W: usize>(netlist: &Netlist, good: &mut [[u64; W]], word: usize) {
    for gate in netlist.gates() {
        let inputs = gate
            .inputs
            .iter()
            .map(|i| std::array::from_ref(&good[i.index()][word]));
        let [value] = gate.kind.eval_block_iter(inputs);
        good[gate.output.index()][word] = value;
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
/// ([`WideCoverage`]).
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
                Dropping::W1(c) => c.absorb(self.netlist, &pattern)?,
                Dropping::W8(c) => c.absorb(self.netlist, &pattern)?,
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
    /// The fault-free signal functions, built on first read.
    signals: SignalFunctions,
    /// BDD variable of each primary input, in netlist primary-input order.
    pi_vars: Vec<VarId>,
    /// Scratch of the stem-derivative build.
    cone: DifferenceCone,
    /// The fanout-free regions and their `sens` / `D(s, PO)` caches.
    regions: Regions,
    fc: Bdd,
    fault_dropping: bool,
    constrained: bool,
    width: WordWidth,
    /// The inputs of [`DigitalAtpg::with_constraints`], kept so the
    /// degradation fallback can draw patterns under the same codes.
    constraint_spec: Option<(Vec<SignalId>, AllowedCodes)>,
    budget: BddBudget,
    cancel: Option<CancelToken>,
    chaos: Option<ChaosInjector>,
    panic_policy: PanicPolicy,
    degrade: DegradePolicy,
    checkpoint: Option<(CheckpointPolicy, PathBuf)>,
    resume: Option<Checkpoint>,
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
    ///
    /// Only the primary inputs are declared here.  A gate's function is
    /// built the first time the derivation reads it (see the module docs),
    /// or all at once when a budget or cancel token is armed, DVO sifts, or
    /// [`Self::collect_garbage`] measures the baseline.
    pub fn new(netlist: &'a Netlist) -> Self {
        let mut manager = BddManager::new();
        let pi_literals = declare_input_variables(&mut manager, netlist);
        let pi_vars = pi_literals.iter().map(|&l| manager.root_var(l)).collect();
        let signals = SignalFunctions::new(&mut manager, netlist, &pi_literals);
        let fc = manager.one();
        let cone = DifferenceCone::new(netlist);
        let regions = Regions::new(netlist, RegionMap::new(netlist));
        DigitalAtpg {
            netlist,
            manager,
            signals,
            pi_vars,
            cone,
            regions,
            fc,
            fault_dropping: true,
            constrained: false,
            width: WordWidth::Auto,
            constraint_spec: None,
            budget: BddBudget::UNLIMITED,
            cancel: None,
            chaos: None,
            panic_policy: PanicPolicy::FailFast,
            degrade: DegradePolicy::default(),
            checkpoint: None,
            resume: None,
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
        // Every cached `D(s, PO)` has the old `Fc` baked in.
        self.regions.clear(&mut self.manager);
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
    /// the engine builds every signal function and sifts its manager to
    /// convergence immediately — a deterministic construction-time safe
    /// point where the signal functions and `Fc` are the only protected
    /// roots — so apply this *after* [`Self::with_constraints`] for the
    /// sift to see `Fc`.  A sift interrupted by an
    /// armed budget leaves the manager consistent and the outcome
    /// deterministic, so this method stays infallible.
    pub fn with_dvo(mut self, mode: DvoMode) -> Self {
        if mode.is_active() {
            self.signals.fill(&mut self.manager, self.netlist);
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
    /// identical whichever faults ran before it, which is what lets a
    /// resumed campaign skip its journaled prefix.
    ///
    /// The quota is spent only on what a fault needs: the side-input
    /// conditions on the path from the fault site to its region's stem, the
    /// differences the stem's flip makes on the gates between the stem and
    /// the outputs tried, and the node-free searches of those outputs' test
    /// sets (see [`DigitalAtpg::try_generate`]).  A governed engine keeps
    /// none of the region caches an ungoverned one shares between the
    /// faults of a region: a cached term would make a fault's node and step
    /// use depend on which faults ran before it on this engine.  Each
    /// target therefore builds its own terms, and faults with small regions
    /// and cones rarely come near the quota.
    ///
    /// For the same reason, arming a limited budget first builds every
    /// signal function the engine has not built yet, uncharged: the
    /// baseline every governed target restarts from is the full set of
    /// signal functions plus `Fc`, whichever faults ran before.
    pub fn with_budget(mut self, budget: BddBudget) -> Self {
        if !budget.is_unlimited() {
            self.signals.fill(&mut self.manager, self.netlist);
        }
        self.budget = budget;
        self.manager.set_budget(budget);
        self
    }

    /// Arms a cooperative [`CancelToken`].  The replay driver charges one
    /// step of the token's quota per targeted fault **in fault-list order**,
    /// so a step-quota token aborts at the identical fault on every run and
    /// every width.  Once the token fires, every
    /// remaining fault is reported as [`TestOutcome::Aborted`] with
    /// [`AbortReason::Deadline`].
    /// Wall-clock deadlines cancel cooperatively too, but their abort point
    /// is inherently timing-dependent.  Like [`Self::with_budget`], arming
    /// a token first builds every signal function, so no target's work
    /// includes one.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.signals.fill(&mut self.manager, self.netlist);
        self.manager.set_cancel_token(Some(token.clone()));
        self.cancel = Some(token);
        self
    }

    /// Installs a deterministic fault-injection harness: at each fault
    /// target the injector (a pure function of its seed and the fault
    /// index) may simulate a budget exhaustion, a cancellation or a
    /// generation panic: an [`AbortReason::Panic`] under
    /// [`PanicPolicy::Isolate`], a real panic under
    /// [`PanicPolicy::FailFast`].  The *report* is decided by the replay
    /// driver from the injector alone, so it is byte-identical across runs
    /// for a given seed.
    pub fn with_chaos(mut self, chaos: ChaosInjector) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Sets how generation panics are handled (default
    /// [`PanicPolicy::FailFast`]): under [`PanicPolicy::Isolate`] a panic
    /// while generating one fault's test set is confined to that fault
    /// (reported as [`TestOutcome::Aborted`] with [`AbortReason::Panic`])
    /// and the run continues.
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
    /// report **byte for byte** (up to wall-clock `cpu`) at any width: the
    /// replayed prefix rebuilds the exact fault-dropping state
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

    /// Builds every signal function not built yet, runs a full garbage
    /// collection that keeps only the engine's protected baseline (every
    /// signal function and the constraint `Fc`; the region caches are
    /// dropped), and returns that baseline's live node count.  This is the
    /// state every governed fault target restarts from, so
    /// `collect_garbage() + margin` is the right way to size a deliberately
    /// tight [`BddBudget::with_max_live_nodes`] quota — the count observed
    /// during a build overstates the baseline by the build's transients.
    pub fn collect_garbage(&mut self) -> usize {
        self.signals.fill(&mut self.manager, self.netlist);
        self.regions.clear(&mut self.manager);
        self.manager.gc();
        self.manager.live_node_count()
    }

    /// The BDD of a signal's fault-free function over the primary inputs,
    /// built (with its unbuilt fanin) on first read.
    ///
    /// # Panics
    ///
    /// Never in practice: an engine builds on demand only while no budget
    /// or cancel token is armed, and arming one builds every function.
    pub fn signal_function(&mut self, signal: SignalId) -> Bdd {
        match self.signals.get(&mut self.manager, self.netlist, signal) {
            Ok(f) => f,
            Err(err) => panic!("signal function build interrupted: {err}"),
        }
    }

    /// The function of `signal` if this engine has built it, without
    /// building it: a primary input always, a gate output once a
    /// derivation (or a fill) read it.
    pub fn built_signal_function(&self, signal: SignalId) -> Option<Bdd> {
        self.signals.built(signal)
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
    /// Each output's test set is `Δ · D(s, PO)`: the fault effect at the
    /// stem of the fault's fanout-free region times the stem's derivative
    /// `∂PO/∂s · Fc`, where `∂PO/∂s` is the difference the stem's flip
    /// propagates to the output.  It is the same function as the paper's
    /// `(f_l ⊕ v) · ∂PO/∂l · Fc` (see the module docs), so the vector is the
    /// one the paper's formula gives.  The vector is read off the test set
    /// without building it (see [`BddManager::try_sat_one_and`]).  On an
    /// ungoverned engine the call also builds, and keeps, the signal
    /// functions it reads for the first time.
    ///
    /// # Errors
    ///
    /// [`BddError::NodeBudgetExceeded`] / [`BddError::StepBudgetExceeded`]
    /// when the armed [`BddBudget`] is exhausted, [`BddError::Cancelled`]
    /// when the armed [`CancelToken`] has fired.
    pub fn try_generate(&mut self, fault: StuckAtFault) -> Result<TestOutcome, BddError> {
        self.safe_point();
        // 1. The fault effect Δ = (f_l ⊕ v) · sens(l): the inputs under which
        //    the fault flips its region's stem.  A line whose fault-free
        //    function is v itself is never activated, and an empty Δ never
        //    reaches the stem.
        let effect = self.fault_effect(fault)?;
        if effect.is_zero() {
            return Ok(TestOutcome::Untestable);
        }
        // 2. The first output whose test set Δ · ∂PO/∂s · Fc is not empty.
        Ok(match self.observe(fault.signal, effect)? {
            Some((assignment, observed_output)) => TestOutcome::Detected(TestVector {
                assignment,
                fault,
                observed_output,
            }),
            None => TestOutcome::Untestable,
        })
    }

    /// Searches for a primary-input assignment under which a change on
    /// `line` reaches a primary output while every `(signal, value)` of
    /// `fixed` holds, within the constraint `Fc` in force: the first output,
    /// in output order, whose `∂PO/∂line · Fc · ∏ (f_signal ≡ value)` is not
    /// empty.  This is the paper's propagation of a conversion-block
    /// output's `D`/`D̄` through the digital block (§2.3, Figure 6), with
    /// the other converter lines fixed; the polarity of the composite value
    /// does not matter, since `∂g(¬D)/∂D = ∂g(D)/∂D`.
    ///
    /// Returns the assignment in primary-input order (`None` =
    /// don't-care) and the output's index.  A primary-input `line` is left
    /// open, and each fixed primary input carries its value.  When every
    /// fixed signal is a primary input, the assignment on the other inputs
    /// is the cube `sat_one` reads off the derivative restricted to the
    /// fixed values: the walk forces each fixed literal where the
    /// restriction removes its variable.
    ///
    /// # Errors
    ///
    /// [`BddError`] when the armed budget or cancel token interrupts the
    /// search, as for [`DigitalAtpg::try_generate`].
    pub fn try_propagate(
        &mut self,
        line: SignalId,
        fixed: &[(SignalId, bool)],
    ) -> Result<Option<(Vec<Option<bool>>, usize)>, BddError> {
        self.safe_point();
        let mut delta = self.sensitization(line)?;
        for &(signal, value) in fixed {
            let f = self.signals.get(&mut self.manager, self.netlist, signal)?;
            let literal = if value { f } else { self.manager.not(f) };
            delta = self.manager.try_and(delta, literal)?;
        }
        self.observe(line, delta)
    }

    /// The first output, in output order, at which a change on `line` is
    /// observed where `delta` holds, with the assignment read off
    /// `Δ · D(s, PO)` in primary-input order.  `delta` includes `sens(line)`,
    /// so the change reaches the stem `s` of `line`'s fanout-free region.
    ///
    /// Each output's cube is read off the operand pair without building the
    /// product.  Outputs outside the stem's cone equal their fault-free
    /// functions and are skipped; the cone of the stem holds exactly the
    /// outputs of `line`'s cone.
    fn observe(
        &mut self,
        line: SignalId,
        delta: Bdd,
    ) -> Result<Option<(Vec<Option<bool>>, usize)>, BddError> {
        let stem = self.regions.map.stem(line);
        for po_index in 0..self.netlist.primary_outputs().len() {
            if !self.regions.observes(stem, po_index) {
                continue;
            }
            let derivative = self.stem_derivative(stem, po_index)?;
            if let Some(cube) = self.manager.try_sat_one_and(delta, derivative)? {
                let assignment = self.pi_vars.iter().map(|&v| cube.get(v)).collect();
                return Ok(Some((assignment, po_index)));
            }
        }
        Ok(None)
    }

    /// The per-target safe point: no transient handle from a previous
    /// target is live here, so everything outside the protected roots is
    /// garbage.  The sweep never renumbers live nodes, so the generated
    /// vectors are byte-identical with or without it.
    fn safe_point(&mut self) {
        // The differences built for an earlier target are unprotected
        // handles that a collection may free.
        self.cone.forget();
        if self.governed() {
            // Determinism of governed outcomes: drop the region caches,
            // collect to the protected baseline and re-open the step quota,
            // so the resources consumed by this target are a pure function
            // of the fault — independent of which faults this engine
            // processed before, and therefore identical in a resumed
            // campaign that skipped the journaled prefix.
            self.regions.clear(&mut self.manager);
            self.manager.gc();
            self.manager.reset_steps();
        } else {
            self.manager.gc_if_above(GC_WATERMARK);
        }
    }

    /// The fault effect `Δ = (f_l ⊕ v) · sens(l)` at the stem of the
    /// fault's fanout-free region; `0` when `f_l` is `v` itself.
    fn fault_effect(&mut self, fault: StuckAtFault) -> Result<Bdd, BddError> {
        let line = self
            .signals
            .get(&mut self.manager, self.netlist, fault.signal)?;
        let activation = if fault.stuck_at {
            self.manager.not(line)
        } else {
            line
        };
        if activation.is_zero() {
            return Ok(activation);
        }
        let sens = self.sensitization(fault.signal)?;
        self.manager.try_and(activation, sens)
    }

    /// `sens(l)`: the inputs under which a change on `line` reaches its
    /// region's stem, memoized per line.  `sens(stem) = 1`, and otherwise
    /// `sens(l) = local(l) · sens(out)` with `out` the output of the single
    /// gate reading `l` and `local(l)` that gate's side-input condition.
    ///
    /// The path is walked up to the stem or the first memoized line, then
    /// folded back, so a long region costs no recursion depth.
    fn sensitization(&mut self, line: SignalId) -> Result<Bdd, BddError> {
        let netlist = self.netlist;
        let mut path = Vec::new();
        let mut at = line;
        let mut sens = loop {
            if let Some(sens) = self.regions.sens[at.index()] {
                break sens;
            }
            match self.regions.map.reader(at) {
                Some(gi) => {
                    path.push((at, gi));
                    at = netlist.gates()[gi].output;
                }
                None => break self.manager.one(),
            }
        };
        while let Some((l, gi)) = path.pop() {
            let local =
                self.signals
                    .side_condition(&mut self.manager, netlist, &netlist.gates()[gi], l)?;
            sens = self.manager.try_and(local, sens)?;
            self.manager.protect(sens);
            self.regions.sens[l.index()] = Some(sens);
        }
        Ok(sens)
    }

    /// `D(s, PO) = ∂PO/∂s · Fc` for the stem `stem` and output `po_index`,
    /// memoized per (stem, output): `∂PO/∂s` is the difference `ΔPO` the
    /// stem's flip propagates through the gates in `fanout(s) ∩ fanin(PO)`
    /// alone, reusing what this target built for earlier outputs of the
    /// same stem.
    fn stem_derivative(&mut self, stem: SignalId, po_index: usize) -> Result<Bdd, BddError> {
        if let Some(&derivative) = self.regions.derivatives.get(&(stem, po_index)) {
            return Ok(derivative);
        }
        if !self.cone.is_seeded(stem) {
            self.cone.mark(self.netlist, &self.regions.map, stem);
        }
        let po = self.netlist.primary_outputs()[po_index];
        let difference =
            self.cone
                .output(&mut self.manager, self.netlist, &mut self.signals, po)?;
        let derivative = self.manager.try_and(difference, self.fc)?;
        self.manager.protect(derivative);
        self.regions
            .derivatives
            .insert((stem, po_index), derivative);
        Ok(derivative)
    }

    /// [`Self::run`] for a flow that threads one [`WorkerPool`] through
    /// every stage (the mixed-signal ATPG).  The run does not use the pool:
    /// a derivation costs microseconds, and deriving the faults of a
    /// no-drop campaign on a 2-thread pool took longer than the serial
    /// loop.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors from the fault-dropping pass.
    pub fn run_on(
        &mut self,
        _pool: &WorkerPool,
        faults: &FaultList,
    ) -> Result<AtpgReport, CoreError> {
        self.run(faults)
    }

    /// Runs the generator over a whole fault list, with fault dropping
    /// unless [`Self::with_fault_dropping`] turned it off.
    ///
    /// One replay loop decides every fault in fault-list order on the
    /// calling thread.  With fault dropping on, a fault already covered by
    /// an earlier vector is skipped without a derivation.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors from the fault-dropping pass (cannot
    /// occur for well-formed vectors).
    pub fn run(&mut self, faults: &FaultList) -> Result<AtpgReport, CoreError> {
        let start = Instant::now();
        let mut replay = ReplayState::new(self.netlist, self.fault_dropping, faults, self.width);
        let mut slots = self.resume_slots(faults)?;
        let mut journal =
            CampaignJournal::new(self.checkpoint.clone(), self.chaos, self.netlist, faults);
        for (k, &fault) in faults.faults().iter().enumerate() {
            // A journaled non-aborted outcome is replayed verbatim: the
            // prefix replayed so far rebuilt the exact coverage state the
            // original run had at this index, so re-deciding would only
            // recompute the same answer.
            if let Some(outcome) = slots.get_mut(k).and_then(Option::take) {
                journal.record(&outcome)?;
                replay.consume(fault, outcome)?;
                continue;
            }
            if replay.covered(fault) {
                replay.detected += 1;
                journal.record(&TestOutcome::PreviouslyDetected)?;
                continue;
            }
            let outcome = self.decide(k, fault)?;
            journal.record(&outcome)?;
            replay.consume(fault, outcome)?;
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
    /// byte-identical across runs, widths and resumes.
    fn decide(&mut self, index: usize, fault: StuckAtFault) -> Result<TestOutcome, CoreError> {
        if let Some(chaos) = self.chaos {
            match chaos.fires(index as u64) {
                Some(ChaosEvent::Panic) => {
                    if self.panic_policy == PanicPolicy::Isolate {
                        return Ok(TestOutcome::Aborted(AbortReason::Panic));
                    }
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
        // run.
        if let Some(token) = &self.cancel {
            if !token.charge(1) {
                return Ok(TestOutcome::Aborted(AbortReason::Deadline));
            }
        }
        match self.guarded_generate(fault) {
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
    /// Each block costs the fault's path word and at most one walk of its
    /// region stem's cone, the only cone compiled.
    fn degrade_verify<const W: usize>(
        &self,
        fault: StuckAtFault,
        candidates: &[Vec<bool>],
    ) -> Result<Option<TestVector>, CoreError> {
        let netlist = self.netlist;
        let cones = FaultCones::build(netlist, [fault.signal]);
        let mut scratch: PpsfpScratch<W> = PpsfpScratch::new(netlist);
        let mut memo = ObsMemo::new(&cones);
        let simulator = Simulator::new(netlist);
        for block in candidates.chunks(64 * W) {
            let good = simulator
                .run_parallel_blocks::<W>(block)
                .map_err(|e| CoreError::Digital(e.to_string()))?;
            memo.clear();
            let diff = scratch.detection_block(
                netlist,
                &cones,
                &mut memo,
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
}

/// The fault-free signal functions of a [`DigitalAtpg`], built on first
/// read.
///
/// [`SignalFunctions::new`] holds the primary-input literals.
/// [`SignalFunctions::get`] builds a gate output's function, and every
/// unbuilt signal of its fanin, depth first on an explicit worklist, and
/// protects each function it builds, so a built function is part of the
/// engine's baseline for the rest of its life.  [`SignalFunctions::fill`]
/// builds the rest at once, in netlist order.
struct SignalFunctions {
    /// `functions[s]` is the function of `s` iff `built[s]`.
    functions: Vec<Bdd>,
    built: Vec<bool>,
    /// Worklist of the fanin build.
    stack: Vec<SignalId>,
    /// Gate-input buffer of a build.
    inputs: Vec<Bdd>,
}

impl SignalFunctions {
    /// The primary inputs built (as `literals`, in primary-input order) and
    /// protected; every gate output unbuilt.
    fn new(manager: &mut BddManager, netlist: &Netlist, literals: &[Bdd]) -> Self {
        let n = netlist.signal_count();
        let mut signals = SignalFunctions {
            functions: vec![manager.zero(); n],
            built: vec![false; n],
            stack: Vec::new(),
            inputs: Vec::new(),
        };
        for (&pi, &literal) in netlist.primary_inputs().iter().zip(literals) {
            manager.protect(literal);
            signals.functions[pi.index()] = literal;
            signals.built[pi.index()] = true;
        }
        signals
    }

    /// The function of `signal`, if built.
    fn built(&self, signal: SignalId) -> Option<Bdd> {
        self.built[signal.index()].then(|| self.functions[signal.index()])
    }

    /// The function of `signal`, built with its unbuilt fanin on first
    /// read.
    fn get(
        &mut self,
        manager: &mut BddManager,
        netlist: &Netlist,
        signal: SignalId,
    ) -> Result<Bdd, BddError> {
        self.stack.clear();
        self.stack.push(signal);
        while let Some(&s) = self.stack.last() {
            // Every primary input is built, so an unbuilt signal has a
            // driver.
            let gate = match netlist.driver(s) {
                Some(gate) if !self.built[s.index()] => gate,
                _ => {
                    self.stack.pop();
                    continue;
                }
            };
            let pending = self.stack.len();
            self.stack
                .extend(gate.inputs.iter().filter(|i| !self.built[i.index()]));
            if self.stack.len() == pending {
                self.build(manager, gate)?;
                self.stack.pop();
            }
        }
        Ok(self.functions[signal.index()])
    }

    /// Builds every unbuilt signal function, in netlist order.  Runs only
    /// while no budget or cancel token is armed: arming one fills first,
    /// and a full engine builds nothing more.
    fn fill(&mut self, manager: &mut BddManager, netlist: &Netlist) {
        for gate in netlist.gates() {
            if !self.built[gate.output.index()] {
                if let Err(err) = self.build(manager, gate) {
                    panic!("signal function fill interrupted: {err}");
                }
            }
        }
    }

    /// Builds and protects the function of `gate`'s output from its built
    /// inputs.
    fn build(&mut self, manager: &mut BddManager, gate: &Gate) -> Result<(), BddError> {
        self.inputs.clear();
        self.inputs
            .extend(gate.inputs.iter().map(|i| self.functions[i.index()]));
        let f = try_apply_gate(manager, gate.kind, &self.inputs)?;
        manager.protect(f);
        self.functions[gate.output.index()] = f;
        self.built[gate.output.index()] = true;
        Ok(())
    }

    /// The condition under which `gate` passes a change on its input
    /// `line`: every other input at `1` for AND/NAND, at `0` for OR/NOR,
    /// and none for XOR/XNOR/BUF/NOT.
    fn side_condition(
        &mut self,
        manager: &mut BddManager,
        netlist: &Netlist,
        gate: &Gate,
        line: SignalId,
    ) -> Result<Bdd, BddError> {
        let mut condition = manager.one();
        let complement = match gate.kind {
            GateKind::And | GateKind::Nand => false,
            GateKind::Or | GateKind::Nor => true,
            GateKind::Xor | GateKind::Xnor | GateKind::Buf | GateKind::Not => return Ok(condition),
        };
        for &input in gate.inputs.iter().filter(|&&i| i != line) {
            let f = self.get(manager, netlist, input)?;
            let side = if complement { manager.not(f) } else { f };
            condition = manager.try_and(condition, side)?;
        }
        Ok(condition)
    }
}

/// The difference builder behind [`DigitalAtpg::stem_derivative`].
///
/// [`DifferenceCone::mark`] stamps a stem's fanout cone by walking the
/// reader lists of the engine's [`RegionMap`] from the stem and seeds the
/// stem with the difference `Δs = 1`, its flip.
/// [`DifferenceCone::output`] then builds one output's difference
/// `ΔPO = PO ⊕ PO|s:=¬f_s` from the cone gates in its fanin, depth first on
/// an explicit worklist, by the rules in the module docs.  What one output
/// builds is reused by the later outputs of the same stem; a signal outside
/// the cone has `Δ = 0`.  Each mark takes a fresh epoch, which makes every
/// stamp of an earlier mark stale without clearing anything (a 64-bit epoch
/// does not wrap).  The built differences are not protected, so the owner
/// [`DifferenceCone::forget`]s the stem at every safe point.
struct DifferenceCone {
    /// The stem of the current epoch, while its builds are usable.
    stem: Option<SignalId>,
    epoch: u64,
    /// `epoch` iff the signal is in the current stem's fanout cone (the
    /// stem included).
    in_cone: Vec<u64>,
    /// `epoch` iff `delta` holds the signal's difference.
    built: Vec<u64>,
    delta: Vec<Bdd>,
    /// Worklist of the cone walk and of the output build.
    stack: Vec<SignalId>,
    /// Gate-input buffer of the two-pin fallback.
    inputs: Vec<Bdd>,
}

impl DifferenceCone {
    fn new(netlist: &Netlist) -> Self {
        let n = netlist.signal_count();
        DifferenceCone {
            stem: None,
            epoch: 0,
            in_cone: vec![0; n],
            built: vec![0; n],
            delta: vec![Bdd::ZERO; n],
            stack: Vec::new(),
            inputs: Vec::new(),
        }
    }

    /// Stamps the fanout cone of `stem` and seeds the stem's difference.
    fn mark(&mut self, netlist: &Netlist, map: &RegionMap, stem: SignalId) {
        self.stem = Some(stem);
        self.epoch += 1;
        let epoch = self.epoch;
        self.in_cone[stem.index()] = epoch;
        self.built[stem.index()] = epoch;
        self.delta[stem.index()] = Bdd::ONE;
        self.stack.clear();
        self.stack.push(stem);
        while let Some(s) = self.stack.pop() {
            for &gi in map.readers(s) {
                let out = netlist.gates()[gi as usize].output;
                if self.in_cone[out.index()] != epoch {
                    self.in_cone[out.index()] = epoch;
                    self.stack.push(out);
                }
            }
        }
    }

    /// Are the current epoch's builds those of `stem`?
    fn is_seeded(&self, stem: SignalId) -> bool {
        self.stem == Some(stem)
    }

    /// Marks the current epoch's builds unusable (a collection may free
    /// them); the next build needs a fresh [`DifferenceCone::mark`].
    fn forget(&mut self) {
        self.stem = None;
    }

    /// The difference of `signal`: built in the current epoch, or `0`.
    fn delta(&self, signal: SignalId) -> Bdd {
        if self.built[signal.index()] == self.epoch {
            self.delta[signal.index()]
        } else {
            Bdd::ZERO
        }
    }

    /// The difference `ΔPO` of `po`, an output in the current cone.
    fn output(
        &mut self,
        manager: &mut BddManager,
        netlist: &Netlist,
        signals: &mut SignalFunctions,
        po: SignalId,
    ) -> Result<Bdd, BddError> {
        let epoch = self.epoch;
        self.stack.clear();
        self.stack.push(po);
        while let Some(&s) = self.stack.last() {
            // Only the stem is an undriven cone signal, and `mark` built
            // it.
            let gate = match netlist.driver(s) {
                Some(gate) if self.built[s.index()] != epoch => gate,
                _ => {
                    self.stack.pop();
                    continue;
                }
            };
            // Build the gate's unbuilt cone inputs first.
            let pending = self.stack.len();
            for &i in &gate.inputs {
                if self.in_cone[i.index()] == epoch && self.built[i.index()] != epoch {
                    self.stack.push(i);
                }
            }
            if self.stack.len() > pending {
                continue;
            }
            let delta = self.gate_delta(manager, netlist, signals, gate)?;
            self.delta[s.index()] = delta;
            self.built[s.index()] = epoch;
            self.stack.pop();
        }
        Ok(self.delta(po))
    }

    /// The difference of `gate`'s output from the built differences of its
    /// inputs.
    fn gate_delta(
        &mut self,
        manager: &mut BddManager,
        netlist: &Netlist,
        signals: &mut SignalFunctions,
        gate: &Gate,
    ) -> Result<Bdd, BddError> {
        let mut changed = gate.inputs.iter().filter(|&&i| !self.delta(i).is_zero());
        let Some(&pin) = changed.next() else {
            return Ok(Bdd::ZERO);
        };
        let single = changed.next().is_none();
        match gate.kind {
            GateKind::Buf | GateKind::Not => Ok(self.delta(pin)),
            GateKind::Xor | GateKind::Xnor => {
                let mut delta = Bdd::ZERO;
                for &i in &gate.inputs {
                    delta = manager.try_xor(delta, self.delta(i))?;
                }
                Ok(delta)
            }
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor if single => {
                let local = signals.side_condition(manager, netlist, gate, pin)?;
                manager.try_and(self.delta(pin), local)
            }
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                // Two or more changed pins: the gate's faulty function
                // against its good one.
                self.inputs.clear();
                for &i in &gate.inputs {
                    let good = signals.get(manager, netlist, i)?;
                    let faulty = manager.try_xor(good, self.delta(i))?;
                    self.inputs.push(faulty);
                }
                let faulty = try_apply_gate(manager, gate.kind, &self.inputs)?;
                let good = signals.get(manager, netlist, gate.output)?;
                manager.try_xor(good, faulty)
            }
        }
    }
}

/// The fanout-free regions of a netlist and the region caches behind
/// [`DigitalAtpg::try_generate`].
///
/// The structure is the digital crate's [`RegionMap`], computed once per
/// engine: a signal read by exactly one gate pin that is not a primary
/// output has that gate as its single reader, and every other signal is a
/// stem — the same regions the PPSFP kernel compiles its cones on.  The
/// caches hold protected functions: `sens(l)` per line and `∂PO/∂s · Fc`
/// per (stem, output).  They only save work, never change an outcome, and
/// are dropped wherever `Fc` changes, at every governed target and by
/// [`DigitalAtpg::collect_garbage`].
struct Regions {
    /// Reader lists, single readers and stems.
    map: RegionMap,
    /// Primary outputs in each signal's fanout cone: a bitset over output
    /// indices, `words` words per signal.
    observed: Vec<u64>,
    words: usize,
    /// `sens(l)` per signal, once built.
    sens: Vec<Option<Bdd>>,
    /// `∂PO/∂s · Fc` per (stem, output index), once built.
    derivatives: HashMap<(SignalId, usize), Bdd>,
}

impl Regions {
    fn new(netlist: &Netlist, map: RegionMap) -> Self {
        let n = netlist.signal_count();
        let outputs = netlist.primary_outputs();
        let words = outputs.len().div_ceil(64);
        let mut observed = vec![0u64; n * words];
        for (k, &po) in outputs.iter().enumerate() {
            observed[po.index() * words + k / 64] |= 1 << (k % 64);
        }
        // Gates are in topological order, so in reverse every reader of a
        // gate's output is done before the gate: the output's cone outputs
        // are final when they pass to its inputs.
        for gate in netlist.gates().iter().rev() {
            let out = gate.output.index();
            for &input in &gate.inputs {
                let i = input.index();
                for w in 0..words {
                    observed[i * words + w] |= observed[out * words + w];
                }
            }
        }
        Regions {
            map,
            observed,
            words,
            sens: vec![None; n],
            derivatives: HashMap::new(),
        }
    }

    /// Is output `po_index` in the fanout cone of `signal`?
    fn observes(&self, signal: SignalId, po_index: usize) -> bool {
        self.observed[signal.index() * self.words + po_index / 64] >> (po_index % 64) & 1 == 1
    }

    /// Drops every cached function, releasing its protection.
    fn clear(&mut self, manager: &mut BddManager) {
        for sens in self.sens.iter_mut().filter_map(Option::take) {
            manager.unprotect(sens);
        }
        for (_, derivative) in self.derivatives.drain() {
            manager.unprotect(derivative);
        }
    }
}

/// Lowers one gate onto the OBDD manager: the single definition of how a
/// [`GateKind`] becomes Boolean operations, shared by the test generator
/// and the `bdd_memory` benchmark.  That benchmark
/// builds every signal function, which is the build of a governed or
/// sifted engine; an ungoverned campaign builds only the functions its
/// derivations read.
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
    fn run_on_leaves_a_threaded_pool_untouched() {
        // Digital ATPG is serial: a threaded pool handed to `run_on` spawns
        // nothing and runs no round, with dropping on and off, and the
        // report is `run`'s.
        let circuit = circuits::adder4();
        let faults = FaultList::collapsed(&circuit);
        for dropping in [true, false] {
            let pool = WorkerPool::new(msatpg_exec::ExecPolicy::Threads(2));
            let report = DigitalAtpg::new(&circuit)
                .with_fault_dropping(dropping)
                .run_on(&pool, &faults)
                .unwrap();
            let reference = DigitalAtpg::new(&circuit)
                .with_fault_dropping(dropping)
                .run(&faults)
                .unwrap();
            assert_reports_identical(&report, &reference);
            assert_eq!(
                pool.stats(),
                msatpg_exec::PoolStats::default(),
                "dropping={dropping}"
            );
        }
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

    /// Absorbs `count` seeded patterns one by one and checks every block
    /// against one batch simulation of its patterns.
    fn assert_absorb_matches_batch<const W: usize>(netlist: &Netlist, count: usize) {
        let faults = FaultList::collapsed(netlist);
        let patterns = RandomPatternGenerator::new(netlist, 7).patterns(count);
        let mut coverage = WideCoverage::<W>::new(netlist, &faults);
        for pattern in &patterns {
            coverage.absorb(netlist, pattern).unwrap();
        }
        let batches: Vec<_> = patterns.chunks(64 * W).collect();
        assert_eq!(coverage.blocks.len(), batches.len());
        for (block, batch) in coverage.blocks.iter().zip(batches) {
            let expected = Simulator::new(netlist)
                .run_parallel_blocks::<W>(batch)
                .unwrap();
            assert_eq!(block.good, expected, "W = {W}");
            assert_eq!(block.mask, block_mask::<W>(batch.len()), "W = {W}");
        }
    }

    /// Interleaves absorbs and queries: after every absorbed pattern the
    /// screen must answer, fault by fault, exactly what a fault simulation
    /// of the patterns so far answers — no observability word computed on
    /// the open block may outlive the pattern that changes it.
    fn assert_screen_tracks_absorbs<const W: usize>(netlist: &Netlist, count: usize) {
        let faults = FaultList::collapsed(netlist);
        let patterns = RandomPatternGenerator::new(netlist, 11).patterns(count);
        let mut coverage = WideCoverage::<W>::new(netlist, &faults);
        for end in 1..=count {
            coverage.absorb(netlist, &patterns[end - 1]).unwrap();
            let result = FaultSimulator::new(netlist)
                .run(&faults, &patterns[..end])
                .unwrap();
            for &fault in faults.faults() {
                assert_eq!(
                    coverage.covered(netlist, fault),
                    result.detected().contains(&fault),
                    "W = {W}, {end} patterns, {}",
                    fault.describe(netlist)
                );
            }
        }
    }

    #[test]
    fn screen_answers_track_every_absorbed_pattern() {
        let circuit = msatpg_digital::benchmarks::c432();
        // Across a block boundary at one lane, inside one open block at
        // eight.
        assert_screen_tracks_absorbs::<1>(&circuit, 70);
        assert_screen_tracks_absorbs::<8>(&circuit, 40);
    }

    #[test]
    fn incremental_absorb_matches_batch_simulation() {
        let circuit = msatpg_digital::benchmarks::c432();
        // Two full one-word blocks and a partial third; one partial
        // eight-word block, then two more eight-word blocks.
        assert_absorb_matches_batch::<1>(&circuit, 150);
        assert_absorb_matches_batch::<8>(&circuit, 100);
        assert_absorb_matches_batch::<8>(&circuit, 1100);
        let mut coverage = WideCoverage::<1>::new(&circuit, &FaultList::collapsed(&circuit));
        let short = vec![true; circuit.primary_inputs().len() - 1];
        assert!(matches!(
            coverage.absorb(&circuit, &short),
            Err(CoreError::Digital(_))
        ));
        assert!(coverage.blocks.is_empty());
    }

    #[test]
    fn signal_functions_are_exposed() {
        let circuit = circuits::figure3_circuit();
        let mut atpg = DigitalAtpg::new(&circuit);
        let l6 = circuit.find_signal("l6").unwrap();
        assert!(atpg.built_signal_function(l6).is_none());
        let f = atpg.signal_function(l6);
        assert_eq!(atpg.built_signal_function(l6), Some(f));
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
        // fallback takes over.  (A fault whose difference only passes
        // XOR/BUF/NOT gates from an input needs none and is still derived.)
        // The run must complete without panicking, account for every fault,
        // and be byte-identical across widths (the fallback verifies its
        // patterns in width-sized blocks).
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
            if reference.degraded.contains(&vector.fault) {
                assert!(vector.assignment.iter().all(Option::is_some));
            }
            assert!(sim
                .detects(vector.fault, &vector.concretize(false))
                .unwrap());
        }
        for width in [WordWidth::W1, WordWidth::W8] {
            let rerun = DigitalAtpg::new(&circuit)
                .with_budget(budget)
                .with_word_width(width)
                .run(&faults)
                .unwrap();
            assert_reports_identical(&rerun, &reference);
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
        // Aborted(Deadline) — at the identical fault at every width.
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
        for width in [WordWidth::W1, WordWidth::W8] {
            let rerun = DigitalAtpg::new(&circuit)
                .with_cancel_token(CancelToken::with_step_quota(quota))
                .with_word_width(width)
                .run(&faults)
                .unwrap();
            assert_reports_identical(&rerun, &reference);
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
        for dropping in [true, false] {
            let build = || {
                DigitalAtpg::new(&circuit)
                    .with_fault_dropping(dropping)
                    .with_chaos(chaos)
                    .with_panic_policy(PanicPolicy::Isolate)
            };
            let reference = build().run(&faults).unwrap();
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
            assert_reports_identical(&build().run(&faults).unwrap(), &reference);
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
        // One pool across three campaigns: injected panics (isolated), a
        // mid-run cancellation, then a clean run that must be
        // byte-identical to a fresh engine's.
        let circuit = circuits::adder4();
        let faults = FaultList::collapsed(&circuit);
        for dropping in [true, false] {
            let engine = || DigitalAtpg::new(&circuit).with_fault_dropping(dropping);
            let clean_reference = engine().run(&faults).unwrap();
            let pool = WorkerPool::new(msatpg_exec::ExecPolicy::Serial);
            let chaotic = engine()
                .with_chaos(ChaosInjector::new(0xBAD).with_panic_rate(4))
                .with_panic_policy(PanicPolicy::Isolate)
                .run_on(&pool, &faults)
                .unwrap();
            assert!(chaotic.aborted_count() > 0);
            let cancelled = engine()
                .with_cancel_token(CancelToken::with_step_quota(3))
                .run_on(&pool, &faults)
                .unwrap();
            assert!(cancelled.aborted_count() > 0);
            let clean = engine().run_on(&pool, &faults).unwrap();
            assert_reports_identical(&clean, &clean_reference);
            assert!(clean.degraded.is_empty() && clean.aborted.is_empty());
        }
    }

    /// The name of the free site variable of the paper's Boolean-difference
    /// formulation, declared at the bottom of the order by the oracles.
    const D_VAR_NAME: &str = "__D";

    /// An Example-3 digital block with the wiring of the Table-4
    /// campaigns: the constrained lines and the codes the flash converter
    /// can produce.
    fn example3(name: &str) -> (Netlist, Vec<SignalId>, AllowedCodes) {
        use crate::mixed_circuit::{ConverterBlock, MixedCircuit};
        use msatpg_analog::filters::fifth_order_chebyshev;
        use msatpg_conversion::FlashAdc;

        let digital = msatpg_digital::benchmarks::by_name(name).unwrap();
        let adc = FlashAdc::uniform(15, 4.0).unwrap();
        let analog = fifth_order_chebyshev();
        let mut mixed =
            MixedCircuit::new(name, analog, ConverterBlock::Flash(adc), digital.clone());
        mixed.connect_randomly(1995).unwrap();
        let (lines, codes) = (mixed.constrained_inputs(), mixed.allowed_codes());
        (digital, lines, codes)
    }

    /// Every signal function of `atpg`'s netlist, built in its manager by
    /// one netlist-order pass and protected, without marking any of them
    /// built in the engine: the full build the engine's on-demand reads must
    /// agree with node for node.
    fn full_build(atpg: &mut DigitalAtpg) -> Vec<Bdd> {
        let netlist = atpg.netlist;
        let mut good = vec![Bdd::ZERO; netlist.signal_count()];
        for (&pi, &var) in netlist.primary_inputs().iter().zip(&atpg.pi_vars) {
            good[pi.index()] = atpg.manager.literal(var, true);
        }
        for gate in netlist.gates() {
            let inputs: Vec<Bdd> = gate.inputs.iter().map(|i| good[i.index()]).collect();
            good[gate.output.index()] = apply_gate(&mut atpg.manager, gate.kind, &inputs);
        }
        for &f in &good {
            atpg.manager.protect(f);
        }
        good
    }

    /// The faulty-circuit construction the generator used before it
    /// propagated differences, kept as an oracle: the function of every
    /// signal with `site` replaced by `value`, every gate of the site's
    /// fanout cone rebuilt in topological order over the fault-free
    /// functions `good`, and which signals that cone holds.
    fn faulty_functions(
        atpg: &mut DigitalAtpg,
        good: &[Bdd],
        site: SignalId,
        value: Bdd,
    ) -> (Vec<Bdd>, Vec<bool>) {
        let mut faulty = good.to_vec();
        faulty[site.index()] = value;
        let mut in_cone = vec![false; faulty.len()];
        in_cone[site.index()] = true;
        for gate in atpg.netlist.gates() {
            if gate.inputs.iter().any(|i| in_cone[i.index()]) {
                in_cone[gate.output.index()] = true;
                let inputs: Vec<Bdd> = gate.inputs.iter().map(|i| faulty[i.index()]).collect();
                faulty[gate.output.index()] = apply_gate(&mut atpg.manager, gate.kind, &inputs);
            }
        }
        (faulty, in_cone)
    }

    /// The derivation before the cone-bounded build, in the paper's own
    /// formulation: every fault replaces its site by a free variable `D`
    /// declared last, rebuilds its whole fanout cone into every signal,
    /// differentiates every output with respect to `D` and resolves the
    /// primary-input variables by name.  Kept as the oracle of
    /// `cone_bounded_derivation_matches_the_full_cone_rebuild`; `good` is
    /// [`full_build`] of `atpg`.
    fn generate_by_full_cone(
        atpg: &mut DigitalAtpg,
        good: &[Bdd],
        fault: StuckAtFault,
    ) -> Result<TestOutcome, BddError> {
        atpg.manager.gc_if_above(GC_WATERMARK);
        let d_var = atpg.manager.var_id(D_VAR_NAME);
        let line_fn = good[fault.signal.index()];
        let activation = if fault.stuck_at {
            atpg.manager.not(line_fn)
        } else {
            line_fn
        };
        if activation.is_zero() {
            return Ok(TestOutcome::Untestable);
        }
        let netlist = atpg.netlist;
        let d = atpg.manager.literal(d_var, true);
        let (faulty, _) = faulty_functions(atpg, good, fault.signal, d);
        for (po_index, &po) in netlist.primary_outputs().iter().enumerate() {
            let f = faulty[po.index()];
            let observability = atpg.manager.try_boolean_difference(f, d_var)?;
            let act_obs = atpg.manager.try_and(activation, observability)?;
            let test_set = atpg.manager.try_and(act_obs, atpg.fc)?;
            let Some(cube) = atpg.manager.sat_one(test_set) else {
                continue;
            };
            let assignment = netlist
                .primary_inputs()
                .iter()
                .map(|&pi| {
                    let var = atpg.manager.var_index(netlist.signal_name(pi));
                    var.and_then(|v| cube.get(v))
                })
                .collect();
            return Ok(TestOutcome::Detected(TestVector {
                assignment,
                fault,
                observed_output: po_index,
            }));
        }
        Ok(TestOutcome::Untestable)
    }

    #[test]
    fn cone_bounded_derivation_matches_the_full_cone_rebuild() {
        for name in ["c432", "c880", "c1355", "c1908"] {
            let (digital, lines, codes) = example3(name);
            let faults = FaultList::collapsed(&digital);
            for constrained in [true, false] {
                let engine = || {
                    let atpg = DigitalAtpg::new(&digital);
                    if constrained {
                        atpg.with_constraints(&lines, &codes).unwrap()
                    } else {
                        atpg
                    }
                };
                let (mut bounded, mut reference) = (engine(), engine());
                let good = full_build(&mut reference);
                let before = (
                    bounded.manager.stats().created_nodes,
                    reference.manager.stats().created_nodes,
                );
                for &fault in faults.faults() {
                    assert_eq!(
                        bounded.try_generate(fault).unwrap(),
                        generate_by_full_cone(&mut reference, &good, fault).unwrap(),
                        "{name} (constrained: {constrained}) {}",
                        fault.describe(&digital)
                    );
                }
                if name == "c1908" {
                    let created = (
                        bounded.manager.stats().created_nodes - before.0,
                        reference.manager.stats().created_nodes - before.1,
                    );
                    assert!(
                        created.0 < created.1,
                        "c1908 (constrained: {constrained}): the cone-bounded build \
                         created {} nodes, the full rebuild {}",
                        created.0,
                        created.1
                    );
                }
            }
        }
    }

    /// A circuit whose stem `s` is read on two pins of an AND and of an
    /// XOR, and reconverges on an OR and an XNOR, so the stem's flip
    /// reaches gates with two or more changed pins.
    fn twice_read_circuit() -> Netlist {
        let mut n = Netlist::new("twice-read");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let s = n.gate(GateKind::Nand, "s", &[a, b]);
        let and = n.gate(GateKind::And, "and", &[s, c, s]);
        let xor = n.gate(GateKind::Xor, "xor", &[s, c, s]);
        let t = n.gate(GateKind::Not, "t", &[s]);
        let or = n.gate(GateKind::Or, "or", &[t, b, s]);
        let xnor = n.gate(GateKind::Xnor, "xnor", &[and, t]);
        for out in [and, xor, or, xnor] {
            n.mark_output(out);
        }
        n
    }

    /// The circuits of the derivation-identity test, each with its
    /// constrained lines and codes.
    fn identity_circuits() -> Vec<(Netlist, Vec<SignalId>, AllowedCodes)> {
        let mut circuits: Vec<_> = ["c432", "c499", "c880"].into_iter().map(example3).collect();
        for digital in [circuits::figure3_circuit(), twice_read_circuit()] {
            let inputs = digital.primary_inputs();
            let lines = vec![inputs[0], inputs[2]];
            circuits.push((digital, lines, example2_constraint()));
        }
        circuits
    }

    #[test]
    fn miter_test_sets_equal_the_papers_boolean_difference_formula() {
        // Three constructions must be the very same node in one manager
        // (equal functions have one canonical OBDD).  For every stem and
        // output in its cone: the difference-propagated ΔPO · Fc the
        // generator uses, the stuck-value miter (PO ⊕ PO|s:=¬f_s) · Fc and
        // the paper's ∂PO/∂D · Fc with the stem replaced by a free D
        // declared last.  For every collapsed fault and output in its
        // cone: the region factorization Δ · ∂PO/∂s · Fc, the miter
        // (PO ⊕ PO|l=v) · Fc and the paper's (f_l ⊕ v) · ∂PO/∂D · Fc.  The
        // outputs of a site's cone must be exactly those of its stem's, and
        // every signal function the engine built on demand must be the
        // node of the full build.
        for (digital, lines, codes) in identity_circuits() {
            let name = digital.name().to_owned();
            for constrained in [true, false] {
                let mut atpg = DigitalAtpg::new(&digital);
                if constrained {
                    atpg = atpg.with_constraints(&lines, &codes).unwrap();
                }
                let good = full_build(&mut atpg);
                let d_var = atpg.manager.var_id(D_VAR_NAME);
                let outputs = digital.primary_outputs();
                let mut compared = 0;
                for stem in digital.signals() {
                    if atpg.regions.map.stem(stem) != stem {
                        continue;
                    }
                    atpg.safe_point();
                    let d = atpg.manager.literal(d_var, true);
                    let flipped = atpg.manager.not(good[stem.index()]);
                    let (miter_cone, in_cone) = faulty_functions(&mut atpg, &good, stem, flipped);
                    let (paper_cone, _) = faulty_functions(&mut atpg, &good, stem, d);
                    for (k, &po) in outputs.iter().enumerate() {
                        let context = format!(
                            "{name} (constrained: {constrained}) stem {}, output {}",
                            digital.signal_name(stem),
                            digital.signal_name(po)
                        );
                        assert_eq!(
                            atpg.regions.observes(stem, k),
                            in_cone[po.index()],
                            "{context}: cone outputs"
                        );
                        if !in_cone[po.index()] {
                            continue;
                        }
                        let derivative = atpg.stem_derivative(stem, k).unwrap();
                        let m = &mut atpg.manager;
                        let difference = m.xor(good[po.index()], miter_cone[po.index()]);
                        let miter = m.and(difference, atpg.fc);
                        let observability = m.boolean_difference(paper_cone[po.index()], d_var);
                        let paper = m.and(observability, atpg.fc);
                        assert_eq!(derivative, miter, "{context}: difference");
                        assert_eq!(miter, paper, "{context}: paper");
                        compared += 1;
                    }
                }
                for &fault in FaultList::collapsed(&digital).faults() {
                    // No transient handle below survives this safe point.
                    atpg.safe_point();
                    let d = atpg.manager.literal(d_var, true);
                    let context = format!(
                        "{name} (constrained: {constrained}) {}",
                        fault.describe(&digital)
                    );
                    let line_fn = good[fault.signal.index()];
                    let stuck = atpg.manager.constant(fault.stuck_at);
                    let activation = atpg.manager.xor(line_fn, stuck);
                    let effect = atpg.fault_effect(fault).unwrap();
                    if activation.is_zero() {
                        assert!(effect.is_zero(), "{context}: effect");
                        continue;
                    }
                    let stem = atpg.regions.map.stem(fault.signal);
                    let (miter_cone, in_cone) =
                        faulty_functions(&mut atpg, &good, fault.signal, stuck);
                    let (paper_cone, _) = faulty_functions(&mut atpg, &good, fault.signal, d);
                    for (k, &po) in outputs.iter().enumerate() {
                        let output = digital.signal_name(po);
                        assert_eq!(
                            atpg.regions.observes(stem, k),
                            in_cone[po.index()],
                            "{context}, output {output}: cone outputs"
                        );
                        if !in_cone[po.index()] {
                            continue;
                        }
                        let derivative = atpg.stem_derivative(stem, k).unwrap();
                        let m = &mut atpg.manager;
                        let region = m.and(effect, derivative);
                        let difference = m.xor(good[po.index()], miter_cone[po.index()]);
                        let miter = m.and(difference, atpg.fc);
                        let observability = m.boolean_difference(paper_cone[po.index()], d_var);
                        let act_obs = m.and(activation, observability);
                        let paper = m.and(act_obs, atpg.fc);
                        assert_eq!(region, miter, "{context}, output {output}: region");
                        assert_eq!(miter, paper, "{context}, output {output}: paper");
                        compared += 1;
                    }
                }
                assert!(compared > 0, "{name}: no output compared");
                for signal in digital.signals() {
                    if let Some(f) = atpg.built_signal_function(signal) {
                        assert_eq!(f, good[signal.index()], "{name}: built signal function");
                    }
                }
            }
        }
    }

    #[test]
    fn collect_garbage_returns_the_full_baseline() {
        // The governed tests size their node caps from this count, so an
        // engine that builds its signal functions on demand must report
        // the baseline of one that built them all up front: every signal
        // function plus `Fc`.
        for (name, unconstrained, constrained) in [("c432", 1041, 1108), ("c1908", 11955, 12016)] {
            let (digital, lines, codes) = example3(name);
            assert_eq!(
                DigitalAtpg::new(&digital).collect_garbage(),
                unconstrained,
                "{name}"
            );
            let mut engine = DigitalAtpg::new(&digital)
                .with_constraints(&lines, &codes)
                .unwrap();
            assert!(engine
                .built_signal_function(digital.gates()[0].output)
                .is_none());
            assert_eq!(engine.collect_garbage(), constrained, "{name} under Fc");
            assert!(digital
                .signals()
                .into_iter()
                .all(|s| engine.built_signal_function(s).is_some()));
        }
    }

    #[test]
    fn a_deep_fanout_free_region_is_walked_without_recursion() {
        // One region 20,000 inverters deep, closed by an AND with a second
        // input: the fault at the head of the chain needs the side input at
        // 1 and is observed at the only output.
        let mut netlist = Netlist::new("chain");
        let a = netlist.input("a");
        let b = netlist.input("b");
        let mut line = a;
        for k in 0..20_000 {
            line = netlist.gate(GateKind::Not, &format!("n{k}"), &[line]);
        }
        let out = netlist.gate(GateKind::And, "out", &[line, b]);
        netlist.mark_output(out);
        let mut atpg = DigitalAtpg::new(&netlist);
        assert_eq!(atpg.regions.map.stem(a), out);
        match atpg.generate(StuckAtFault::sa0(a)) {
            TestOutcome::Detected(vector) => {
                assert_eq!(vector.assignment, vec![Some(true), Some(true)]);
            }
            other => panic!("expected a test, got {other:?}"),
        }
    }

    #[test]
    fn installing_constraints_drops_the_region_caches() {
        // Every cached ∂PO/∂s · Fc has the Fc of its engine baked in: an
        // engine that filled its caches unconstrained and then had
        // constraints installed must generate exactly what a fresh
        // constrained engine generates.
        let (digital, lines, codes) = example3("c432");
        let sample: Vec<StuckAtFault> = FaultList::collapsed(&digital)
            .faults()
            .iter()
            .copied()
            .step_by(5)
            .collect();
        let mut engine = DigitalAtpg::new(&digital);
        let unconstrained: Vec<TestOutcome> = sample.iter().map(|&f| engine.generate(f)).collect();
        assert!(!engine.regions.derivatives.is_empty(), "caches filled");
        let mut engine = engine.with_constraints(&lines, &codes).unwrap();
        let mut fresh = DigitalAtpg::new(&digital)
            .with_constraints(&lines, &codes)
            .unwrap();
        let mut moved = 0;
        for (&fault, before) in sample.iter().zip(&unconstrained) {
            let outcome = engine.generate(fault);
            assert_eq!(
                outcome,
                fresh.generate(fault),
                "{}",
                fault.describe(&digital)
            );
            moved += usize::from(outcome != *before);
        }
        assert!(moved > 0, "the constraint must move some outcome");
    }

    fn signal(circuit: &Netlist, name: &str) -> SignalId {
        circuit.find_signal(name).unwrap()
    }

    /// The value `assignment` (primary-input order) gives `name`.
    fn value_of(circuit: &Netlist, assignment: &[Option<bool>], name: &str) -> Option<bool> {
        let pi = signal(circuit, name);
        assignment[circuit
            .primary_inputs()
            .iter()
            .position(|&p| p == pi)
            .unwrap()]
    }

    /// The paper's Figure-6 walk-through with one composite value: a `D`
    /// on l2 (through the comparator Co1) while l0 keeps its fault-free
    /// value 1.  Then l6 = 1, Vo1 = l7 = l1 + l2 needs l1 = 0, and
    /// Vo2 = l6·l4 = l4 never sees the effect, so it is observed at Vo1.
    #[test]
    fn figure6_propagation_is_observed_at_vo1() {
        let circuit = circuits::figure3_circuit();
        let (l0, l2) = (signal(&circuit, "l0"), signal(&circuit, "l2"));
        let mut atpg = DigitalAtpg::new(&circuit);
        let (assignment, observed) = atpg
            .try_propagate(l2, &[(l0, true)])
            .unwrap()
            .expect("the fault effect must reach an output");
        assert_eq!(observed, 0);
        assert_eq!(value_of(&circuit, &assignment, "l1"), Some(false));
        assert_eq!(value_of(&circuit, &assignment, "l0"), Some(true));
        assert_eq!(value_of(&circuit, &assignment, "l2"), None, "open");
        assert_eq!(value_of(&circuit, &assignment, "l4"), None);
    }

    /// The Figure-3 circuit with only `Vo2 = (l0 + l2)·l4` as an output.
    fn figure3_vo2_only() -> Netlist {
        let mut n = Netlist::new("figure3-vo2");
        let l0 = n.input("l0");
        let _l1 = n.input("l1");
        let l2 = n.input("l2");
        let l4 = n.input("l4");
        let l3 = n.gate(GateKind::Buf, "l3", &[l2]);
        let l6 = n.gate(GateKind::Or, "l6", &[l0, l3]);
        let vo2 = n.gate(GateKind::And, "Vo2", &[l6, l4]);
        n.mark_output(vo2);
        n
    }

    #[test]
    fn propagation_blocked_by_fixed_values() {
        // Composite on l2.  With l0 = 0 the OR gate l6 = l0 + l3 passes
        // l3 = l2, so the effect reaches Vo1 (first in output order) and
        // also Vo2 = l6·l4, which needs l4 = 1.  With l0 = 1, l6 is stuck at
        // 1: Vo2 = l4 is fault-free and only Vo1 (through l7) observes it.
        let circuit = circuits::figure3_circuit();
        let (l0, l2) = (signal(&circuit, "l0"), signal(&circuit, "l2"));
        let mut atpg = DigitalAtpg::new(&circuit);
        for l0_value in [false, true] {
            let (_, observed) = atpg
                .try_propagate(l2, &[(l0, l0_value)])
                .unwrap()
                .expect("Vo1 observes the composite");
            assert_eq!(observed, 0, "l0 = {l0_value}");
        }

        let vo2_only = figure3_vo2_only();
        let (l0, l2) = (signal(&vo2_only, "l0"), signal(&vo2_only, "l2"));
        let mut atpg = DigitalAtpg::new(&vo2_only);
        let (open, observed) = atpg
            .try_propagate(l2, &[(l0, false)])
            .unwrap()
            .expect("Vo2 observes the composite when l0 = 0");
        assert_eq!(observed, 0);
        assert_eq!(value_of(&vo2_only, &open, "l4"), Some(true));
        let masked = atpg.try_propagate(l2, &[(l0, true)]).unwrap();
        assert_eq!(masked, None, "l0 = 1 masks the composite at Vo2");
    }

    #[test]
    fn unpropagatable_effect_returns_none() {
        // Composite on l1 with l2 = 1 forces l7 = 1, so Vo1 is insensitive
        // to l1 and Vo2 never depends on l1.
        let circuit = circuits::figure3_circuit();
        let (l1, l2) = (signal(&circuit, "l1"), signal(&circuit, "l2"));
        let mut atpg = DigitalAtpg::new(&circuit);
        let result = atpg.try_propagate(l1, &[(l2, true)]).unwrap();
        assert!(result.is_none(), "l7 = l1 + 1 masks the composite");
    }
}
