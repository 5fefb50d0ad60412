//! Fault simulation: which stuck-at faults does a pattern set detect?
//!
//! Two engines are provided behind one facade:
//!
//! * **PPSFP** (parallel-pattern single-fault propagation), the default used
//!   by [`FaultSimulator::run`]: the good circuit is simulated once per
//!   pattern block with [`crate::sim::Simulator::run_parallel_blocks`];
//!   each live fault's detection word is then read off its fanout-free
//!   region ([`crate::region`]):
//!
//!   ```text
//!   detect(l) = (good_l ⊕ v) · sens(l) · obs(s)
//!   ```
//!
//!   for a fault *l* s-a-*v* whose region closes at stem *s*.  `sens(l)`
//!   ANDs, on good-value words, the side-input conditions of the gates on
//!   the single-reader path from *l* to *s*, and `obs(s)` — the patterns
//!   where flipping *s* changes some primary output — comes from one
//!   propagation through the stem's compiled output cone with the stem's
//!   good word complemented, memoized per (stem, block).  The side inputs
//!   of a fanout-free path are fault-free (a side input in the fanout of *l*
//!   would need a second reader on the path), so the fault flips *s*
//!   exactly where `(good_l ⊕ v) · sens(l)` holds, and the word is exact.
//!   This is critical-path tracing inside fanout-free regions with
//!   stem-only fault propagation; cost per 64-pattern block is one cone
//!   walk per stem plus `O(|path|)` word operations per fault, instead of
//!   the serial path's `O(|circuit| · 64)` per fault.
//! * **Serial**, kept as the reference implementation and available through
//!   [`FaultSimulator::run_serial`]: one full faulty evaluation per
//!   (fault, pattern) pair, with the good simulation hoisted out of the
//!   fault loop so it runs once per pattern.
//!
//! Both engines implement fault dropping and produce identical detected /
//! undetected fault sets (property-tested in `tests/proptests.rs`).
//!
//! ## Wide blocks
//!
//! The pattern word generalizes from a single `u64` to a block of `W`
//! lanes (`[u64; W]`, W ∈ {1, 8}) selected by [`WordWidth`]: one path
//! word, one good-circuit pass and one cone walk then decide up to
//! `64 * W` patterns, and the lane loops
//! are plain array iterations that auto-vectorize to 256/512-bit SIMD at
//! `--release` with no `std::simd` dependency.  Pattern `p` lives
//! in bit `p % 64` of lane `p / 64`, so lane `l` of a wide block is exactly
//! the `l`-th 64-pattern word of a `W = 1` run.  Detections within a block
//! are ordered by `(first detecting lane, fault index)`, which reproduces
//! the `W = 1` detected order bit for bit — the width knob changes
//! wall-clock only, never results (property-tested across widths).

use std::collections::{HashMap, HashSet};

use msatpg_exec::CancelToken;

use crate::fault::{FaultList, StuckAtFault};
use crate::gate::GateKind;
use crate::netlist::{Netlist, SignalId};
use crate::region::RegionMap;
use crate::sim::Simulator;
use crate::DigitalError;

/// Result of fault-simulating a pattern set against a fault list.
#[derive(Clone, Debug, Default)]
pub struct FaultSimResult {
    detected: Vec<StuckAtFault>,
    undetected: Vec<StuckAtFault>,
    patterns_used: usize,
}

impl FaultSimResult {
    /// Faults detected by at least one pattern.
    pub fn detected(&self) -> &[StuckAtFault] {
        &self.detected
    }

    /// Faults not detected by any pattern.
    pub fn undetected(&self) -> &[StuckAtFault] {
        &self.undetected
    }

    /// Number of patterns that were simulated.
    pub fn patterns_used(&self) -> usize {
        self.patterns_used
    }

    /// Fault coverage as a fraction of the fault list.
    pub fn coverage(&self) -> f64 {
        let total = self.detected.len() + self.undetected.len();
        if total == 0 {
            return 1.0;
        }
        self.detected.len() as f64 / total as f64
    }
}

/// Tag bit marking a [`Cone`] input reference as a cone-local scratch slot
/// rather than a global good-value signal index.
const SLOT_TAG: u32 = 1 << 31;

/// One compiled cone gate: everything the propagation loop needs, packed
/// into 20 bytes so a cone walk streams through one small sequential array
/// instead of chasing `Netlist::gates` entries scattered across the heap.
#[derive(Clone, Copy, Debug, PartialEq)]
struct ConeOp {
    kind: GateKind,
    /// Number of entries this op consumes from [`Cone::input_refs`].
    n_inputs: u32,
    /// Cone-local scratch slot receiving the faulty output block.
    out_slot: u32,
    /// Global signal index of the output, for the good-circuit compare.
    out_signal: u32,
    /// `1 +` the last cone position reading this output, `0` if none — the
    /// early-exit horizon contribution when the output differs from good.
    last_read: u32,
}

/// How one reachable primary output resolves in the final diff pass.
#[derive(Clone, Copy, Debug, PartialEq)]
struct OutResolve {
    /// Global signal index of the primary output.
    signal: u32,
    /// `1 +` the cone position of the output's last in-cone driver, or `0`
    /// when the output is the cone's site itself (live from the seed on).
    /// If the driver was cut off by the early exit the output provably
    /// equals the good circuit and contributes nothing.
    driver_pos_plus1: u32,
    /// Cone-local scratch slot holding the faulty value when live.
    slot: u32,
}

/// The propagation cone of one site: every gate whose output can be
/// affected by the site (in topological order) and every primary output
/// reachable from it (including the site itself when it is an output).
///
/// The cone is *compiled*: gate inputs are pre-resolved to either a global
/// good-value index (signals untouched by the site) or a dense cone-local
/// scratch slot (the site is slot 0, affected signals follow in first-write
/// order).  That keeps the walk's scratch the size of the cone — L1-hot
/// even at eight 64-bit lanes — where indexing scratch by global signal id
/// spills wide blocks to L2 on the larger ISCAS circuits, and it replaces
/// the per-input "written this walk?" stamp test with a compile-time fact.
#[derive(Clone, Debug, Default)]
struct Cone {
    /// Indices into [`Netlist::gates`], topologically ordered.
    gates: Vec<u32>,
    /// Compiled form of `gates`, same order.
    ops: Vec<ConeOp>,
    /// Flat input references for `ops`, tagged with [`SLOT_TAG`] when they
    /// name a scratch slot; each op consumes its `n_inputs` in sequence.
    input_refs: Vec<u32>,
    /// Resolution of every reachable primary output.
    out_resolve: Vec<OutResolve>,
    /// Number of scratch slots the cone writes (bounded by the netlist's
    /// signal count).
    slots: u32,
    /// [`ConeOp::last_read`] encoding for the site signal itself.
    site_last_read: u32,
}

/// Per-signal scratch of cone collection and compilation, allocated once
/// per build and left clean after every cone.
struct ConeCompiler {
    /// Marks the signals a walk has reached.
    affected: Vec<bool>,
    /// `1 + position` of the last cone gate reading a signal (0 = never
    /// read inside the cone).
    last_read: Vec<u32>,
    /// The scratch slot assigned to a signal (`u32::MAX` = untouched,
    /// resolves to the good circuit).
    slot_of: Vec<u32>,
    /// `1 +` the cone position of a signal's last driver (0 = the site).
    driver_of: Vec<u32>,
    /// Breadth-first queue of a walk.
    touched: Vec<SignalId>,
}

impl ConeCompiler {
    fn new(netlist: &Netlist) -> Self {
        assert!(
            netlist.signal_count() < SLOT_TAG as usize,
            "signal indices must leave the slot tag bit free"
        );
        let n = netlist.signal_count();
        ConeCompiler {
            affected: vec![false; n],
            last_read: vec![0; n],
            slot_of: vec![u32::MAX; n],
            driver_of: vec![0; n],
            touched: Vec::new(),
        }
    }

    /// The gates of `site`'s fanout cone, in topological order: breadth
    /// first over the reader lists, a gate joining the cone once, when its
    /// output is first reached.  Gates are stored in topological order, so
    /// sorting by index gives the order a full pass would visit them.
    fn walk(&mut self, netlist: &Netlist, regions: &RegionMap, site: SignalId) -> Vec<u32> {
        self.affected[site.index()] = true;
        self.touched.clear();
        self.touched.push(site);
        let mut gates = Vec::new();
        let mut next = 0;
        while let Some(&signal) = self.touched.get(next) {
            next += 1;
            for &gi in regions.readers(signal) {
                let output = netlist.gates()[gi as usize].output;
                if !self.affected[output.index()] {
                    self.affected[output.index()] = true;
                    self.touched.push(output);
                    gates.push(gi);
                }
            }
        }
        for t in &self.touched {
            self.affected[t.index()] = false;
        }
        gates.sort_unstable();
        gates
    }

    /// Compiles the cone of `site` from its topologically ordered `gates`.
    fn compile(&mut self, netlist: &Netlist, site: SignalId, gates: Vec<u32>) -> Cone {
        // Last-read positions drive the early-exit horizon of the cone
        // walk: once propagation passes the last gate that reads any
        // still-differing signal, the rest of the cone equals the good
        // circuit.
        let mut n_refs = 0;
        for (pos, &gi) in gates.iter().enumerate() {
            let inputs = &netlist.gates()[gi as usize].inputs;
            n_refs += inputs.len();
            for input in inputs {
                self.last_read[input.index()] = pos as u32 + 1;
            }
        }
        let site_last_read = self.last_read[site.index()];
        // Resolve every input to a scratch slot (set by an earlier cone
        // write) or a good-value index, in one pass that mirrors exactly
        // what a full propagation walk would stamp.
        self.slot_of[site.index()] = 0;
        let mut slots = 1u32;
        let mut ops = Vec::with_capacity(gates.len());
        let mut input_refs = Vec::with_capacity(n_refs);
        for (pos, &gi) in gates.iter().enumerate() {
            let gate = &netlist.gates()[gi as usize];
            for input in &gate.inputs {
                let i = input.index();
                input_refs.push(match self.slot_of[i] {
                    u32::MAX => i as u32,
                    slot => SLOT_TAG | slot,
                });
            }
            let o = gate.output.index();
            if self.slot_of[o] == u32::MAX {
                self.slot_of[o] = slots;
                slots += 1;
            }
            self.driver_of[o] = pos as u32 + 1;
            ops.push(ConeOp {
                kind: gate.kind,
                n_inputs: gate.inputs.len() as u32,
                out_slot: self.slot_of[o],
                out_signal: o as u32,
                last_read: self.last_read[o],
            });
        }
        // The site and the gate outputs are exactly the slotted signals.
        let out_resolve = netlist
            .primary_outputs()
            .iter()
            .filter(|o| self.slot_of[o.index()] != u32::MAX)
            .map(|o| OutResolve {
                signal: o.index() as u32,
                driver_pos_plus1: self.driver_of[o.index()],
                slot: self.slot_of[o.index()],
            })
            .collect();
        self.slot_of[site.index()] = u32::MAX;
        for &gi in &gates {
            let gate = &netlist.gates()[gi as usize];
            self.slot_of[gate.output.index()] = u32::MAX;
            self.driver_of[gate.output.index()] = 0;
            for input in &gate.inputs {
                self.last_read[input.index()] = 0;
            }
        }
        Cone {
            gates,
            ops,
            input_refs,
            out_resolve,
            slots,
            site_last_read,
        }
    }
}

/// Precomputed propagation cones, one per fanout-free-region stem.
///
/// A fault on a line with a single reader reaches the rest of the circuit
/// only through its region's stem ([`crate::region`]), so a build compiles
/// one cone per stem closing the region of a requested site, never one per
/// site.  The reader lists are built once per build; each stem then
/// collects its cone by walking them, so its cost is the size of the cone,
/// not of the netlist.
#[derive(Clone, Debug, Default)]
pub struct FaultCones {
    regions: RegionMap,
    /// Index into `cones` of each stem slot's cone; `u32::MAX` for a stem
    /// no requested site needs.
    cone_of_slot: Vec<u32>,
    cones: Vec<Cone>,
}

impl FaultCones {
    /// Builds the cones of the stems closing the regions of `sites`.
    pub fn build<I: IntoIterator<Item = SignalId>>(netlist: &Netlist, sites: I) -> Self {
        let mut compiler = ConeCompiler::new(netlist);
        let regions = RegionMap::new(netlist);
        let mut cone_of_slot = vec![u32::MAX; regions.stem_count()];
        let mut cones = Vec::new();
        for site in sites {
            let slot = regions.stem_slot(site);
            if cone_of_slot[slot] == u32::MAX {
                let stem = regions.stem(site);
                let gates = compiler.walk(netlist, &regions, stem);
                cone_of_slot[slot] = cones.len() as u32;
                cones.push(compiler.compile(netlist, stem, gates));
            }
        }
        FaultCones {
            regions,
            cone_of_slot,
            cones,
        }
    }

    /// Number of stems with a compiled cone.
    pub fn len(&self) -> usize {
        self.cones.len()
    }

    /// Returns `true` if no cones were built.
    pub fn is_empty(&self) -> bool {
        self.cones.is_empty()
    }

    /// Total number of gate entries across all cones (a proxy for the work
    /// of one stem-observability pass per 64-pattern block).
    pub fn total_gate_entries(&self) -> usize {
        self.cones.iter().map(|c| c.gates.len()).sum()
    }

    /// The cone of the stem in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if no requested site lies in that stem's region.
    fn cone(&self, slot: usize) -> &Cone {
        &self.cones[self.cone_of_slot[slot] as usize]
    }
}

/// Valid-bit mask for a block of `count` packed patterns (`count <= 64`):
/// bit *i* is set iff pattern *i* exists.
///
/// # Panics
///
/// Panics if `count > 64`.
#[inline]
pub fn word_mask(count: usize) -> u64 {
    assert!(count <= 64, "a pattern word holds at most 64 patterns");
    if count == 64 {
        u64::MAX
    } else {
        (1u64 << count) - 1
    }
}

/// Valid-bit mask for a wide block of `count` packed patterns
/// (`count <= 64 * W`): bit `p % 64` of lane `p / 64` is set iff pattern
/// `p` exists.
///
/// # Panics
///
/// Panics if `count > 64 * W`.
#[inline]
pub fn block_mask<const W: usize>(count: usize) -> [u64; W] {
    assert!(
        count <= 64 * W,
        "a pattern block holds at most 64 * W patterns"
    );
    let mut mask = [0u64; W];
    let mut remaining = count;
    for lane in &mut mask {
        let take = remaining.min(64);
        *lane = word_mask(take);
        remaining -= take;
    }
    mask
}

/// Environment variable consulted by [`WordWidth::Auto`]; accepts `1` or
/// `8` lanes (64/512 patterns per block).  Any other value is ignored.
pub const WIDTH_ENV_VAR: &str = "MSATPG_WORD_WIDTH";

/// PPSFP block width: how many 64-pattern lanes one cone walk covers.
///
/// Results are byte-identical across widths; only the wall-clock changes.
/// Wide blocks pay off on large pattern sets (the per-fault cone-walk
/// overhead is amortized over up to 512 patterns) and cost extra masked
/// work when pattern sets are much smaller than a block, which is why the
/// default stays at one lane unless the knob opts in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum WordWidth {
    /// Honor [`WIDTH_ENV_VAR`] (`MSATPG_WORD_WIDTH=1/8`); one lane when
    /// unset or malformed.  This is the default.
    #[default]
    Auto,
    /// One `u64` lane — 64 patterns per block, the pre-wide behavior.
    W1,
    /// Eight lanes — 512 patterns per block (512-bit SIMD where available).
    W8,
}

impl WordWidth {
    /// Number of 64-pattern lanes per block (1 or 8).
    pub fn lanes(self) -> usize {
        match self {
            WordWidth::W1 => 1,
            WordWidth::W8 => 8,
            WordWidth::Auto => std::env::var(WIDTH_ENV_VAR)
                .ok()
                .and_then(|v| parse_width_override(&v))
                .unwrap_or(1),
        }
    }
}

/// Parses a [`WIDTH_ENV_VAR`] override: only the literal lane counts `1`
/// and `8` (surrounding whitespace allowed) are accepted — anything else
/// yields `None` and [`WordWidth::Auto`] falls back to one lane, so a
/// malformed value never panics and never silently picks a width the
/// engine has no kernel for.
pub fn parse_width_override(value: &str) -> Option<usize> {
    match value.trim() {
        "1" => Some(1),
        "8" => Some(8),
        _ => None,
    }
}

/// The stem observability words of one pattern block, memoized per stem
/// slot: bit `p % 64` of lane `p / 64` of `obs(s)` is set iff flipping the
/// stem `s` under pattern `p` changes some primary output.
///
/// An entry is valid for the good values it was computed on.  Clear the
/// memo whenever the block's good values change (a new block, or a pattern
/// absorbed into an open one).
#[derive(Clone, Debug)]
pub struct ObsMemo<const W: usize = 1> {
    obs: Vec<Option<[u64; W]>>,
}

impl<const W: usize> ObsMemo<W> {
    /// An empty memo for the stems of `cones`.
    pub fn new(cones: &FaultCones) -> Self {
        ObsMemo {
            obs: vec![None; cones.regions.stem_count()],
        }
    }

    /// Forgets every entry.
    pub fn clear(&mut self) {
        self.obs.fill(None);
    }
}

/// Reusable scratch buffers of the stem-region PPSFP kernel, generic over
/// the lane count `W` (see [`WordWidth`]).
///
/// A fault *l* s-a-*v* in the region of stem *s* is detected by
///
/// ```text
/// detect(l) = (good_l ⊕ v) · sens(l) · obs(s)
/// ```
///
/// on a block of patterns: `sens(l)` is the AND, on good-value words, of
/// the side-input conditions of the gates on the single-reader path from
/// *l* to *s* (the other inputs of an AND/NAND, the complemented other
/// inputs of an OR/NOR, nothing for XOR/XNOR/BUF/NOT), and `obs(s)` comes
/// from one propagation through the stem's compiled cone with the stem's
/// good word complemented ([`ObsMemo`] keeps it per block).  This is
/// critical-path tracing inside fanout-free regions with stem-only fault
/// propagation.  It is exact because no side input of the path lies in the
/// fanout of *l* (that would need a second reader on the path): the side
/// inputs are fault-free, so the fault flips *s* exactly where it is
/// activated and every path gate passes the change, and flipping *s*
/// reaches an output exactly on `obs(s)`.
///
/// `faulty` is indexed by *cone-local slot*, not by signal: each cone walk
/// writes slots `0..` densely in first-write order (see the compiled
/// `Cone`), so the live scratch footprint is the cone size rather than the
/// netlist size and no invalidation between walks is ever needed — a walk
/// only reads slots it has already written.
pub struct PpsfpScratch<const W: usize = 1> {
    faulty: Vec<[u64; W]>,
    gates_evaluated: u64,
}

impl<const W: usize> PpsfpScratch<W> {
    /// Creates scratch buffers sized for `netlist`.
    pub fn new(netlist: &Netlist) -> Self {
        PpsfpScratch {
            // Cone slots are distinct affected signals, so the signal count
            // bounds every cone's slot count.
            faulty: vec![[0; W]; netlist.signal_count().max(1)],
            gates_evaluated: 0,
        }
    }

    /// Number of cone gate evaluations performed so far — compared against
    /// [`FaultCones::total_gate_entries`] this exposes how much work the
    /// memo, the path cut-off and the event-driven early exit saved.  One
    /// wide evaluation counts once regardless of `W`.
    pub fn gates_evaluated(&self) -> u64 {
        self.gates_evaluated
    }

    /// The block whose bit `p % 64` of lane `p / 64` is set iff pattern `p`
    /// of one (up to) `64 * W`-pattern block detects `fault` at a primary
    /// output.
    ///
    /// `good` must come from
    /// [`crate::sim::Simulator::run_parallel_blocks`] on the same netlist
    /// the cones were built for, `valid_mask` (see [`block_mask`]) selects
    /// the populated pattern bits, and `memo` must hold entries of this
    /// block only.
    ///
    /// # Panics
    ///
    /// Panics if `cones` has no cone for the fault site's stem.
    pub fn detection_block(
        &mut self,
        netlist: &Netlist,
        cones: &FaultCones,
        memo: &mut ObsMemo<W>,
        fault: StuckAtFault,
        good: &[[u64; W]],
        valid_mask: [u64; W],
    ) -> [u64; W] {
        // Patterns that activate the fault: site value != stuck value.
        let stuck_word = if fault.stuck_at { u64::MAX } else { 0 };
        let good_site = &good[fault.signal.index()];
        let mut active = [0u64; W];
        for l in 0..W {
            active[l] = (good_site[l] ^ stuck_word) & valid_mask[l];
        }
        self.region_core(netlist, cones, memo, fault.signal, active, good, valid_mask)
    }

    /// The block whose bit `p` is set iff flipping `line` under pattern `p`
    /// changes some primary output: the detection block of a fault that is
    /// activated by every pattern.  Same contract as
    /// [`PpsfpScratch::detection_block`].
    ///
    /// # Panics
    ///
    /// Panics if `cones` has no cone for the line's stem.
    pub fn observability_block(
        &mut self,
        netlist: &Netlist,
        cones: &FaultCones,
        memo: &mut ObsMemo<W>,
        line: SignalId,
        good: &[[u64; W]],
        valid_mask: [u64; W],
    ) -> [u64; W] {
        self.region_core(netlist, cones, memo, line, valid_mask, good, valid_mask)
    }

    /// `word · sens(line) · obs(stem)`: narrows `word` by the side inputs of
    /// the single-reader path from `line` to its stem, stopping as soon as
    /// no pattern is left, then ANDs in the stem's observability.
    #[allow(clippy::too_many_arguments)]
    fn region_core(
        &mut self,
        netlist: &Netlist,
        cones: &FaultCones,
        memo: &mut ObsMemo<W>,
        line: SignalId,
        mut word: [u64; W],
        good: &[[u64; W]],
        valid_mask: [u64; W],
    ) -> [u64; W] {
        let regions = &cones.regions;
        let mut at = line;
        loop {
            if word == [0; W] {
                return word;
            }
            let Some(gi) = regions.reader(at) else { break };
            let gate = &netlist.gates()[gi];
            let complement = match gate.kind {
                GateKind::And | GateKind::Nand => 0,
                GateKind::Or | GateKind::Nor => u64::MAX,
                GateKind::Xor | GateKind::Xnor | GateKind::Buf | GateKind::Not => {
                    at = gate.output;
                    continue;
                }
            };
            // `at` is read on exactly one pin of this gate.
            for &input in gate.inputs.iter().filter(|&&i| i != at) {
                let side = &good[input.index()];
                for l in 0..W {
                    word[l] &= side[l] ^ complement;
                }
            }
            at = gate.output;
        }
        let slot = regions.stem_slot(at);
        let obs = match memo.obs[slot] {
            Some(obs) => obs,
            None => {
                let stem_good = &good[at.index()];
                let mut seed = [0u64; W];
                for l in 0..W {
                    seed[l] = stem_good[l] ^ valid_mask[l];
                }
                let obs = self.walk_cone(cones.cone(slot), seed, good, valid_mask);
                memo.obs[slot] = Some(obs);
                obs
            }
        };
        for l in 0..W {
            word[l] &= obs[l];
        }
        word
    }

    /// Propagates `seed`, the faulty value of the cone's site, through the
    /// compiled cone and returns the valid patterns at which some primary
    /// output differs from the good circuit.
    fn walk_cone(
        &mut self,
        cone: &Cone,
        seed: [u64; W],
        good: &[[u64; W]],
        valid_mask: [u64; W],
    ) -> [u64; W] {
        debug_assert!(
            cone.slots as usize <= self.faulty.len(),
            "scratch sized for a different netlist"
        );
        self.faulty[0] = seed;
        // Event-driven tail cut: `horizon` is the last cone position that
        // can still read a signal whose faulty block differs from the good
        // block.  Every gate beyond it is guaranteed to reproduce the good
        // circuit, so propagation stops there; any differing block already
        // written at a primary output's slot is picked up by the diff pass.
        let mut horizon = cone.site_last_read as i64 - 1;
        let mut executed = 0u32;
        let mut refs_at = 0usize;
        for (pos, op) in cone.ops.iter().enumerate() {
            if pos as i64 > horizon {
                break;
            }
            let refs = &cone.input_refs[refs_at..refs_at + op.n_inputs as usize];
            refs_at += op.n_inputs as usize;
            // Inputs fold straight out of the slot/good arrays by
            // reference — no scratch list and no by-value block copies,
            // which at W = 8 would cost 64 bytes of traffic per input per
            // gate in this hottest of loops.
            let faulty = &self.faulty;
            let block = op.kind.eval_block_iter(refs.iter().map(|&r| {
                if r & SLOT_TAG != 0 {
                    &faulty[(r ^ SLOT_TAG) as usize]
                } else {
                    &good[r as usize]
                }
            }));
            self.gates_evaluated += 1;
            self.faulty[op.out_slot as usize] = block;
            if block != good[op.out_signal as usize] {
                horizon = horizon.max(op.last_read as i64 - 1);
            }
            executed = pos as u32 + 1;
        }
        let mut diff = [0u64; W];
        for res in &cone.out_resolve {
            // An output whose last in-cone driver was cut off by the early
            // exit equals the good circuit and contributes no diff bits.
            if res.driver_pos_plus1 <= executed {
                let value = &self.faulty[res.slot as usize];
                let good_po = &good[res.signal as usize];
                for l in 0..W {
                    diff[l] |= value[l] ^ good_po[l];
                }
            }
        }
        for l in 0..W {
            diff[l] &= valid_mask[l];
        }
        diff
    }
}

/// First lane of a detection block with any bit set — the block-local
/// ordering key that reproduces the `W = 1` detected order (lane `l` of a
/// wide block is the `l`-th 64-pattern word of a narrow run).
#[inline]
fn first_hit_lane<const W: usize>(diff: &[u64; W]) -> Option<u32> {
    diff.iter().position(|&w| w != 0).map(|l| l as u32)
}

/// Serial/parallel-pattern stuck-at fault simulator with optional fault
/// dropping.
pub struct FaultSimulator<'a> {
    netlist: &'a Netlist,
    drop_detected: bool,
    width: WordWidth,
    cancel: Option<CancelToken>,
}

impl<'a> FaultSimulator<'a> {
    /// Creates a fault simulator for `netlist` with fault dropping enabled.
    pub fn new(netlist: &'a Netlist) -> Self {
        FaultSimulator {
            netlist,
            drop_detected: true,
            width: WordWidth::Auto,
            cancel: None,
        }
    }

    /// Enables or disables fault dropping (dropping stops simulating a fault
    /// once it has been detected — faster, same coverage answer).
    pub fn with_fault_dropping(mut self, enabled: bool) -> Self {
        self.drop_detected = enabled;
        self
    }

    /// Sets the PPSFP block width (see [`WordWidth`]).  Results are
    /// byte-identical across widths; only the wall-clock changes.  The one
    /// width-visible quantity is the block granularity at which an armed
    /// [`CancelToken`] is polled, so a mid-campaign cancellation may consume
    /// a different number of patterns at different widths — full runs never
    /// differ.
    pub fn with_word_width(mut self, width: WordWidth) -> Self {
        self.width = width;
        self
    }

    /// Arms a cooperative [`CancelToken`] on the PPSFP campaign loop: the
    /// driver checks it **between 64-pattern blocks** (the natural safe
    /// point where fault dropping already synchronizes) and stops consuming
    /// further blocks once the token has fired.  The partial result keeps
    /// every detection made so far and [`FaultSimResult::patterns_used`]
    /// reports how many patterns were actually simulated, so a
    /// deterministically triggered token yields a deterministic partial
    /// result.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// `true` once the armed token (if any) has fired.
    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|t| t.is_cancelled())
    }

    /// Good-circuit values of every signal under `pattern`, for use with
    /// [`FaultSimulator::detects_with_good`] when the same pattern is checked
    /// against many faults.
    ///
    /// # Errors
    ///
    /// Returns an error if the pattern width does not match.
    pub fn good_values(&self, pattern: &[bool]) -> Result<Vec<bool>, DigitalError> {
        self.netlist.evaluate_all(pattern)
    }

    /// Simulates a single pattern against a single fault and reports whether
    /// the fault is detected (any primary output differs between the good
    /// and the faulty circuit).
    ///
    /// # Errors
    ///
    /// Returns an error if the pattern width does not match.
    pub fn detects(&self, fault: StuckAtFault, pattern: &[bool]) -> Result<bool, DigitalError> {
        let good = self.good_values(pattern)?;
        self.detects_with_good(fault, pattern, &good)
    }

    /// Like [`FaultSimulator::detects`], but takes precomputed good-circuit
    /// values (from [`FaultSimulator::good_values`]) so the good simulation
    /// is shared across all faults checked against one pattern.
    ///
    /// # Errors
    ///
    /// Returns an error if the pattern width does not match.
    pub fn detects_with_good(
        &self,
        fault: StuckAtFault,
        pattern: &[bool],
        good: &[bool],
    ) -> Result<bool, DigitalError> {
        // The fault is only visible if the fault site currently carries the
        // opposite value (fault activation).
        if good[fault.signal.index()] == fault.stuck_at {
            return Ok(false);
        }
        let faulty = self.evaluate_faulty(fault, pattern)?;
        Ok(self
            .netlist
            .primary_outputs()
            .iter()
            .any(|o| good[o.index()] != faulty[o.index()]))
    }

    /// Simulates a whole pattern set against a fault list with the PPSFP
    /// engine: the good circuit once per 64-pattern word, then each fault's
    /// detection word read off its fanout-free region, `(good_l ⊕ v) ·
    /// sens(l) · obs(s)`, with one cone propagation per stem and block for
    /// `obs(s)` (see [`PpsfpScratch`]).
    ///
    /// # Errors
    ///
    /// Returns an error if any pattern width does not match.
    pub fn run(
        &self,
        faults: &FaultList,
        patterns: &[Vec<bool>],
    ) -> Result<FaultSimResult, DigitalError> {
        let cones = FaultCones::build(self.netlist, faults.faults().iter().map(|f| f.signal));
        self.run_with_cones(faults, patterns, &cones)
    }

    /// PPSFP run with caller-provided cones, so repeated campaigns over the
    /// same fault universe (e.g. random-TPG restarts) skip the cone pass.
    ///
    /// # Errors
    ///
    /// Returns an error if any pattern width does not match, or panics if a
    /// fault site is missing from `cones`.
    pub fn run_with_cones(
        &self,
        faults: &FaultList,
        patterns: &[Vec<bool>],
        cones: &FaultCones,
    ) -> Result<FaultSimResult, DigitalError> {
        // One monomorphized campaign loop per supported lane count; the
        // width knob only selects which instantiation runs.
        match self.width.lanes() {
            8 => self.run_blocks::<8>(faults, patterns, cones),
            _ => self.run_blocks::<1>(faults, patterns, cones),
        }
    }

    /// The width-generic campaign loop behind
    /// [`FaultSimulator::run_with_cones`]: blocks of `64 * W` patterns,
    /// hits ordered by `(first detecting lane, fault index)` so every width
    /// yields the same detected vector.
    fn run_blocks<const W: usize>(
        &self,
        faults: &FaultList,
        patterns: &[Vec<bool>],
        cones: &FaultCones,
    ) -> Result<FaultSimResult, DigitalError> {
        let simulator = Simulator::new(self.netlist);
        let mut detected: Vec<StuckAtFault> = Vec::new();
        let mut simulated = 0usize;
        let fault_list = faults.faults();
        // Detection is a property of the fault, not of its position: every
        // copy of a fault listed twice shares the flag of its first copy.
        let mut first: HashMap<StuckAtFault, u32> = HashMap::with_capacity(fault_list.len());
        let canonical: Vec<u32> = (0..fault_list.len() as u32)
            .map(|k| *first.entry(fault_list[k as usize]).or_insert(k))
            .collect();
        let mut is_detected = vec![false; fault_list.len()];
        let mut scratch: PpsfpScratch<W> = PpsfpScratch::new(self.netlist);
        let mut memo = ObsMemo::new(cones);
        let mut hits: Vec<(u32, u32)> = Vec::new();
        for chunk in patterns.chunks(64 * W) {
            // Cooperative cancellation at the block boundary: keep every
            // detection made so far, stop consuming further blocks.
            if self.cancelled() {
                break;
            }
            let good = simulator.run_parallel_blocks::<W>(chunk)?;
            let valid_mask = block_mask::<W>(chunk.len());
            simulated += chunk.len();
            hits.clear();
            memo.clear();
            for (k, &fault) in fault_list.iter().enumerate() {
                if self.drop_detected && is_detected[canonical[k] as usize] {
                    continue;
                }
                let diff = scratch.detection_block(
                    self.netlist,
                    cones,
                    &mut memo,
                    fault,
                    &good,
                    valid_mask,
                );
                if let Some(lane) = first_hit_lane(&diff) {
                    hits.push((lane, k as u32));
                }
            }
            // Lane-major order = the order a W = 1 run would discover these
            // hits across its narrow sub-blocks.
            hits.sort_unstable();
            for &(_, k) in &hits {
                let flag = &mut is_detected[canonical[k as usize] as usize];
                if !*flag {
                    *flag = true;
                    detected.push(fault_list[k as usize]);
                }
            }
        }
        let undetected = fault_list
            .iter()
            .zip(&canonical)
            .filter(|&(_, &c)| !is_detected[c as usize])
            .map(|(&f, _)| f)
            .collect();
        Ok(FaultSimResult {
            detected,
            undetected,
            patterns_used: simulated,
        })
    }

    /// Reference implementation: one full faulty evaluation per
    /// (fault, pattern) pair, with the good simulation hoisted so each
    /// pattern's good values are computed once and shared across all faults.
    ///
    /// # Errors
    ///
    /// Returns an error if any pattern width does not match.
    pub fn run_serial(
        &self,
        faults: &FaultList,
        patterns: &[Vec<bool>],
    ) -> Result<FaultSimResult, DigitalError> {
        let mut detected = Vec::new();
        let mut detected_set: HashSet<StuckAtFault> = HashSet::new();
        let mut simulated = 0usize;
        for pattern in patterns {
            if self.cancelled() {
                break;
            }
            let good = self.good_values(pattern)?;
            simulated += 1;
            for &fault in faults.faults() {
                if self.drop_detected && detected_set.contains(&fault) {
                    continue;
                }
                if self.detects_with_good(fault, pattern, &good)? && detected_set.insert(fault) {
                    detected.push(fault);
                }
            }
        }
        let undetected = faults
            .faults()
            .iter()
            .copied()
            .filter(|f| !detected_set.contains(f))
            .collect();
        Ok(FaultSimResult {
            detected,
            undetected,
            patterns_used: simulated,
        })
    }

    /// Index of the first primary output (in primary-output order) at which
    /// `pattern` detects `fault`, or `None` when the pattern does not detect
    /// it.
    ///
    /// # Errors
    ///
    /// Returns an error if the pattern width does not match.
    pub fn detecting_output(
        &self,
        fault: StuckAtFault,
        pattern: &[bool],
    ) -> Result<Option<usize>, DigitalError> {
        let good = self.good_values(pattern)?;
        if good[fault.signal.index()] == fault.stuck_at {
            return Ok(None);
        }
        let faulty = self.evaluate_faulty(fault, pattern)?;
        Ok(self
            .netlist
            .primary_outputs()
            .iter()
            .position(|o| good[o.index()] != faulty[o.index()]))
    }

    fn evaluate_faulty(
        &self,
        fault: StuckAtFault,
        pattern: &[bool],
    ) -> Result<Vec<bool>, DigitalError> {
        let n_inputs = self.netlist.primary_inputs().len();
        if pattern.len() != n_inputs {
            return Err(DigitalError::PatternWidthMismatch {
                expected: n_inputs,
                actual: pattern.len(),
            });
        }
        let mut values = vec![false; self.netlist.signal_count()];
        for (i, &sig) in self.netlist.primary_inputs().iter().enumerate() {
            values[sig.index()] = pattern[i];
        }
        if self.netlist.is_primary_input(fault.signal) {
            values[fault.signal.index()] = fault.stuck_at;
        }
        let mut ins = Vec::new();
        for gate in self.netlist.gates() {
            ins.clear();
            ins.extend(gate.inputs.iter().map(|i| values[i.index()]));
            let mut v = gate.kind.eval(&ins);
            if gate.output == fault.signal {
                v = fault.stuck_at;
            }
            values[gate.output.index()] = v;
        }
        Ok(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;
    use crate::circuits;
    use crate::fault::FaultList;
    use crate::prng::SplitMix64;

    fn exhaustive_patterns(n_inputs: usize) -> Vec<Vec<bool>> {
        (0..1u32 << n_inputs)
            .map(|i| (0..n_inputs).map(|b| (i >> b) & 1 == 1).collect())
            .collect()
    }

    fn random_patterns(width: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut rng = SplitMix64::new(seed);
        (0..count)
            .map(|_| (0..width).map(|_| rng.bool()).collect())
            .collect()
    }

    fn sorted(faults: &[StuckAtFault]) -> Vec<StuckAtFault> {
        let mut v = faults.to_vec();
        v.sort();
        v
    }

    /// The cone gates before the reader-list walk: one pass over the whole
    /// gate list per site.  Kept as the oracle of
    /// `fanout_walk_cones_match_the_gate_scan`.
    fn gates_by_scan(netlist: &Netlist, site: SignalId) -> Vec<u32> {
        let mut affected = vec![false; netlist.signal_count()];
        affected[site.index()] = true;
        let mut gates = Vec::new();
        for (gi, gate) in netlist.gates().iter().enumerate() {
            if gate.inputs.iter().any(|i| affected[i.index()]) {
                affected[gate.output.index()] = true;
                gates.push(gi as u32);
            }
        }
        gates
    }

    /// A netlist whose line `b` is read on two pins of one XOR (so `b` is a
    /// stem and the XOR never passes a change on `b`), next to AND/OR/NOR
    /// regions with side inputs.
    fn double_pin_circuit() -> Netlist {
        let mut n = Netlist::new("double-pin");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let d = n.input("d");
        let x = n.gate(GateKind::Xor, "x", &[b, b]);
        let y = n.gate(GateKind::Or, "y", &[x, a]);
        let z = n.gate(GateKind::Nor, "z", &[c, d]);
        let w = n.gate(GateKind::And, "w", &[y, z]);
        let v = n.gate(GateKind::Nand, "v", &[a, c]);
        let u = n.gate(GateKind::Xnor, "u", &[w, v]);
        n.mark_output(u);
        n.mark_output(z);
        n
    }

    /// The circuits of the kernel-evidence tests: every ISCAS stand-in, the
    /// paper's Figure-3 circuit and the double-pin circuit.
    fn evidence_circuits() -> Vec<Netlist> {
        let mut netlists = benchmarks::iscas85_suite();
        netlists.push(circuits::figure3_circuit());
        netlists.push(double_pin_circuit());
        netlists
    }

    /// The per-site engine the stem-region kernel replaced: the fault's own
    /// fanout cone, compiled for the site and propagated from the stuck
    /// value.  Kept as the oracle of
    /// `detection_words_equal_a_full_faulty_propagation`.
    fn per_site_detection<const W: usize>(
        netlist: &Netlist,
        fault: StuckAtFault,
        good: &[[u64; W]],
        valid_mask: [u64; W],
    ) -> [u64; W] {
        let regions = RegionMap::new(netlist);
        let mut compiler = ConeCompiler::new(netlist);
        let gates = compiler.walk(netlist, &regions, fault.signal);
        let cone = compiler.compile(netlist, fault.signal, gates);
        let stuck = if fault.stuck_at { u64::MAX } else { 0 };
        PpsfpScratch::<W>::new(netlist).walk_cone(&cone, [stuck; W], good, valid_mask)
    }

    #[test]
    fn fanout_walk_cones_match_the_gate_scan() {
        let mut netlists = evidence_circuits();
        netlists.push(circuits::adder4());
        for netlist in &netlists {
            let cones = FaultCones::build(netlist, netlist.signals());
            let regions = &cones.regions;
            assert_eq!(cones.len(), regions.stem_count());
            let mut compiler = ConeCompiler::new(netlist);
            for site in netlist.signals() {
                let at = format!("{} site {}", netlist.name(), netlist.signal_name(site));
                let walked = compiler.walk(netlist, regions, site);
                assert_eq!(walked, gates_by_scan(netlist, site), "{at}: gates");
                let stem = regions.stem(site);
                let (w, s) = (
                    cones.cone(regions.stem_slot(site)),
                    compiler.compile(netlist, stem, gates_by_scan(netlist, stem)),
                );
                assert_eq!(w.gates, s.gates, "{at}: stem gates");
                assert_eq!(w.ops, s.ops, "{at}: ops");
                assert_eq!(w.input_refs, s.input_refs, "{at}: input refs");
                assert_eq!(w.out_resolve, s.out_resolve, "{at}: output resolution");
                assert_eq!(w.slots, s.slots, "{at}: slot count");
                assert_eq!(w.site_last_read, s.site_last_read, "{at}: site last-read");
            }
        }
    }

    #[test]
    fn builds_compile_one_cone_per_stem() {
        let n = benchmarks::c432();
        let faults = FaultList::collapsed(&n);
        let sites: HashSet<SignalId> = faults.faults().iter().map(|f| f.signal).collect();
        let cones = FaultCones::build(&n, faults.faults().iter().map(|f| f.signal));
        let stems: HashSet<SignalId> = sites.iter().map(|&s| cones.regions.stem(s)).collect();
        assert_eq!(cones.len(), stems.len());
        assert!(cones.len() < sites.len(), "regions share their stem's cone");
        let per_site: usize = sites
            .iter()
            .map(|&site| ConeCompiler::new(&n).walk(&n, &cones.regions, site).len())
            .sum();
        assert!(cones.total_gate_entries() < per_site);
    }

    fn assert_words_equal_per_site<const W: usize>(netlist: &Netlist, count: usize) {
        let faults = FaultList::all(netlist);
        let cones = FaultCones::build(netlist, faults.faults().iter().map(|f| f.signal));
        let patterns = random_patterns(netlist.primary_inputs().len(), count, 0x5E6 + W as u64);
        let sim = Simulator::new(netlist);
        let mut scratch: PpsfpScratch<W> = PpsfpScratch::new(netlist);
        let mut memo = ObsMemo::new(&cones);
        for block in patterns.chunks(64 * W) {
            let good = sim.run_parallel_blocks::<W>(block).unwrap();
            let mask = block_mask::<W>(block.len());
            memo.clear();
            for &fault in faults.faults() {
                let word = scratch.detection_block(netlist, &cones, &mut memo, fault, &good, mask);
                let oracle = per_site_detection(netlist, fault, &good, mask);
                assert_eq!(
                    word,
                    oracle,
                    "{} W{W} {}",
                    netlist.name(),
                    fault.describe(netlist)
                );
            }
        }
    }

    #[test]
    fn detection_words_equal_a_full_faulty_propagation() {
        // Every fault of the full universe (stems, fanout-free lines and
        // primary inputs alike), fault by fault, against its own per-site
        // cone: 100 patterns are two narrow blocks and one partial wide one.
        for netlist in &evidence_circuits() {
            assert_words_equal_per_site::<1>(netlist, 100);
            assert_words_equal_per_site::<8>(netlist, 100);
        }
    }

    #[test]
    fn observability_is_the_detection_word_of_an_always_active_flip() {
        // Flipping a line is the union of its two stuck-at faults.
        for netlist in &evidence_circuits() {
            let cones = FaultCones::build(netlist, netlist.signals());
            let patterns = random_patterns(netlist.primary_inputs().len(), 64, 0x0B5);
            let good = Simulator::new(netlist)
                .run_parallel_blocks::<1>(&patterns)
                .unwrap();
            let mask = block_mask::<1>(64);
            let mut scratch: PpsfpScratch = PpsfpScratch::new(netlist);
            let mut memo = ObsMemo::new(&cones);
            for line in netlist.signals() {
                let [obs] =
                    scratch.observability_block(netlist, &cones, &mut memo, line, &good, mask);
                let [sa0] = per_site_detection(netlist, StuckAtFault::sa0(line), &good, mask);
                let [sa1] = per_site_detection(netlist, StuckAtFault::sa1(line), &good, mask);
                assert_eq!(
                    obs,
                    sa0 | sa1,
                    "{} {}",
                    netlist.name(),
                    netlist.signal_name(line)
                );
            }
        }
    }

    #[test]
    fn ppsfp_equals_run_serial_at_every_width() {
        // 70 patterns: one full and one partial narrow block, one partial
        // wide block.  The serial engine discovers pattern-major and PPSFP
        // block by block, so the detected order is compared across widths
        // and the detected set against the serial engine (dropping changes
        // the order, never the set).
        for netlist in &evidence_circuits() {
            let faults = FaultList::collapsed(netlist);
            let patterns = random_patterns(netlist.primary_inputs().len(), 70, 0x0DE);
            let serial = FaultSimulator::new(netlist)
                .run_serial(&faults, &patterns)
                .unwrap();
            for dropping in [true, false] {
                let run = |width| {
                    FaultSimulator::new(netlist)
                        .with_fault_dropping(dropping)
                        .with_word_width(width)
                        .run(&faults, &patterns)
                        .unwrap()
                };
                let (narrow, wide) = (run(WordWidth::W1), run(WordWidth::W8));
                let tag = format!("{} dropping={dropping}", netlist.name());
                assert_eq!(
                    sorted(narrow.detected()),
                    sorted(serial.detected()),
                    "{tag}"
                );
                assert_eq!(narrow.undetected(), serial.undetected(), "{tag}");
                assert_eq!(wide.detected(), narrow.detected(), "{tag}");
                assert_eq!(wide.undetected(), narrow.undetected(), "{tag}");
            }
        }
    }

    #[test]
    fn a_fault_listed_twice_shares_one_detection() {
        let n = benchmarks::c432();
        let mut list = FaultList::collapsed(&n).faults().to_vec();
        list.insert(3, list[10]);
        list.push(list[0]);
        let faults = FaultList::from_faults(list);
        let patterns = random_patterns(n.primary_inputs().len(), 100, 0xD0B);
        for dropping in [true, false] {
            let serial = FaultSimulator::new(&n)
                .with_fault_dropping(dropping)
                .run_serial(&faults, &patterns)
                .unwrap();
            let ppsfp = FaultSimulator::new(&n)
                .with_fault_dropping(dropping)
                .run(&faults, &patterns)
                .unwrap();
            assert_eq!(sorted(ppsfp.detected()), sorted(serial.detected()));
            assert_eq!(ppsfp.undetected(), serial.undetected());
        }
    }

    #[test]
    fn exhaustive_patterns_detect_all_faults_of_figure3() {
        let n = circuits::figure3_circuit();
        let faults = FaultList::all(&n);
        let sim = FaultSimulator::new(&n);
        let patterns = exhaustive_patterns(n.primary_inputs().len());
        let result = sim.run(&faults, &patterns).unwrap();
        // The paper: considered alone, the Figure-3 digital circuit is fully
        // testable.
        assert_eq!(
            result.undetected().len(),
            0,
            "undetected: {:?}",
            result.undetected()
        );
        assert!((result.coverage() - 1.0).abs() < 1e-12);
        assert_eq!(result.patterns_used(), patterns.len());
    }

    #[test]
    fn single_pattern_detection_is_consistent_with_run() {
        let n = circuits::adder4();
        let faults = FaultList::collapsed(&n);
        let sim = FaultSimulator::new(&n);
        let pattern = vec![true; n.primary_inputs().len()];
        let result = sim.run(&faults, &[pattern.clone()]).unwrap();
        for &f in result.detected() {
            assert!(sim.detects(f, &pattern).unwrap());
        }
        for &f in result.undetected() {
            assert!(!sim.detects(f, &pattern).unwrap());
        }
    }

    #[test]
    fn fault_dropping_does_not_change_coverage() {
        let n = circuits::adder4();
        let faults = FaultList::collapsed(&n);
        let patterns = exhaustive_patterns(5)
            .into_iter()
            .map(|p| {
                let mut full = vec![false; n.primary_inputs().len()];
                full[..5].copy_from_slice(&p);
                full
            })
            .collect::<Vec<_>>();
        let with_drop = FaultSimulator::new(&n).run(&faults, &patterns).unwrap();
        let without_drop = FaultSimulator::new(&n)
            .with_fault_dropping(false)
            .run(&faults, &patterns)
            .unwrap();
        assert_eq!(with_drop.detected().len(), without_drop.detected().len());
    }

    #[test]
    fn ppsfp_matches_serial_on_iscas_benchmarks() {
        for name in ["c432", "c880"] {
            let n = benchmarks::by_name(name).unwrap();
            let faults = FaultList::collapsed(&n);
            let patterns = random_patterns(n.primary_inputs().len(), 100, 0xC0DE);
            let sim = FaultSimulator::new(&n);
            let ppsfp = sim.run(&faults, &patterns).unwrap();
            let serial = sim.run_serial(&faults, &patterns).unwrap();
            assert_eq!(
                sorted(ppsfp.detected()),
                sorted(serial.detected()),
                "{name}: detected sets differ"
            );
            assert_eq!(
                sorted(ppsfp.undetected()),
                sorted(serial.undetected()),
                "{name}: undetected sets differ"
            );
            assert!((ppsfp.coverage() - serial.coverage()).abs() < 1e-12);
        }
    }

    #[test]
    fn ppsfp_handles_non_multiple_of_64_pattern_counts() {
        let n = circuits::adder4();
        let faults = FaultList::all(&n);
        let sim = FaultSimulator::new(&n);
        for count in [1usize, 63, 64, 65, 130] {
            let patterns = random_patterns(n.primary_inputs().len(), count, count as u64);
            let ppsfp = sim.run(&faults, &patterns).unwrap();
            let serial = sim.run_serial(&faults, &patterns).unwrap();
            assert_eq!(
                sorted(ppsfp.detected()),
                sorted(serial.detected()),
                "{count} patterns"
            );
        }
    }

    #[test]
    fn cones_are_reusable_across_runs() {
        let n = circuits::adder4();
        let faults = FaultList::collapsed(&n);
        let cones = FaultCones::build(&n, faults.faults().iter().map(|f| f.signal));
        assert!(!cones.is_empty());
        assert!(cones.total_gate_entries() > 0);
        let sim = FaultSimulator::new(&n);
        let p1 = random_patterns(9, 40, 1);
        let p2 = random_patterns(9, 40, 2);
        let r1 = sim.run_with_cones(&faults, &p1, &cones).unwrap();
        let r2 = sim.run_with_cones(&faults, &p2, &cones).unwrap();
        assert_eq!(
            sorted(r1.detected()),
            sorted(sim.run(&faults, &p1).unwrap().detected())
        );
        assert_eq!(
            sorted(r2.detected()),
            sorted(sim.run(&faults, &p2).unwrap().detected())
        );
    }

    #[test]
    fn activation_is_required_for_detection() {
        // A fault whose stuck value equals the line's current value is not
        // detected by that pattern.
        let n = circuits::figure3_circuit();
        let l0 = n.find_signal("l0").unwrap();
        let sim = FaultSimulator::new(&n);
        // Pattern drives l0 = 1, so s-a-1 on l0 is not activated.
        let pattern_l0_one = vec![true, false, false, false];
        assert!(!sim.detects(StuckAtFault::sa1(l0), &pattern_l0_one).unwrap());
    }

    #[test]
    fn detects_with_good_matches_detects() {
        let n = circuits::adder4();
        let faults = FaultList::all(&n);
        let sim = FaultSimulator::new(&n);
        let patterns = random_patterns(9, 10, 77);
        for pattern in &patterns {
            let good = sim.good_values(pattern).unwrap();
            for &fault in faults.faults() {
                assert_eq!(
                    sim.detects(fault, pattern).unwrap(),
                    sim.detects_with_good(fault, pattern, &good).unwrap()
                );
            }
        }
    }

    #[test]
    fn early_exit_stops_when_the_frontier_equals_the_good_circuit() {
        // The stem `a` feeds y = a AND c and x0 = a AND b, and x0 a long
        // buffer chain.  With b = c = 0 the faulty word at both AND outputs
        // equals the good word, so the stem's cone walk must stop after
        // those two gates instead of walking the chain.
        let mut n = Netlist::new("chain");
        let a = n.input("a");
        let bb = n.input("b");
        let c = n.input("c");
        let y = n.gate(GateKind::And, "y", &[a, c]);
        let mut prev = n.gate(GateKind::And, "x0", &[a, bb]);
        for i in 1..=10 {
            prev = n.gate(GateKind::Buf, &format!("x{i}"), &[prev]);
        }
        n.mark_output(prev);
        n.mark_output(y);
        let fault = StuckAtFault::sa1(a);
        let cones = FaultCones::build(&n, [a]);
        assert_eq!(cones.total_gate_entries(), 12);
        let mut scratch: PpsfpScratch = PpsfpScratch::new(&n);
        let mut memo = ObsMemo::new(&cones);
        let sim = Simulator::new(&n);
        // One pattern: a = 0 (activates s-a-1), b = c = 0 (kill propagation).
        let good = sim
            .run_parallel_blocks::<1>(&[vec![false, false, false]])
            .unwrap();
        let diff = scratch.detection_block(&n, &cones, &mut memo, fault, &good, [1]);
        assert_eq!(diff, [0], "the fault effect dies at the AND gates");
        assert_eq!(
            scratch.gates_evaluated(),
            2,
            "only the AND gates may be evaluated before the early exit"
        );
        // The stem's observability is memoized for the block.
        assert_eq!(
            scratch.detection_block(&n, &cones, &mut memo, fault, &good, [1]),
            [0]
        );
        assert_eq!(scratch.gates_evaluated(), 2);
        // With b = 1 the effect propagates: the whole cone is walked and the
        // fault is detected.
        let good = sim
            .run_parallel_blocks::<1>(&[vec![false, true, false]])
            .unwrap();
        memo.clear();
        let diff = scratch.detection_block(&n, &cones, &mut memo, fault, &good, [1]);
        assert_eq!(diff, [1]);
        assert_eq!(scratch.gates_evaluated(), 14);
    }

    #[test]
    fn a_dead_path_word_skips_the_stem_cone() {
        // a AND b closes at the stem x0, which feeds a buffer chain: with
        // b = 0 the path word of a fault on `a` is 0 at the AND, and the
        // stem's cone is never walked.
        let mut n = Netlist::new("region");
        let a = n.input("a");
        let bb = n.input("b");
        let mut prev = n.gate(GateKind::And, "x0", &[a, bb]);
        for i in 1..=10 {
            prev = n.gate(GateKind::Buf, &format!("x{i}"), &[prev]);
        }
        n.mark_output(prev);
        let cones = FaultCones::build(&n, [a]);
        assert_eq!(cones.len(), 1, "one region, closed at the output");
        let mut scratch: PpsfpScratch = PpsfpScratch::new(&n);
        let mut memo = ObsMemo::new(&cones);
        let sim = Simulator::new(&n);
        let good = sim.run_parallel_blocks::<1>(&[vec![false, false]]).unwrap();
        let diff = scratch.detection_block(&n, &cones, &mut memo, StuckAtFault::sa1(a), &good, [1]);
        assert_eq!(diff, [0]);
        assert_eq!(scratch.gates_evaluated(), 0);
        let good = sim.run_parallel_blocks::<1>(&[vec![false, true]]).unwrap();
        memo.clear();
        let diff = scratch.detection_block(&n, &cones, &mut memo, StuckAtFault::sa1(a), &good, [1]);
        assert_eq!(diff, [1]);
    }

    #[test]
    fn empty_fault_list_has_full_coverage() {
        let n = circuits::figure3_circuit();
        let sim = FaultSimulator::new(&n);
        let result = sim
            .run(&FaultList::from_faults(vec![]), &[vec![false; 4]])
            .unwrap();
        assert_eq!(result.coverage(), 1.0);
    }

    #[test]
    fn fired_token_yields_an_empty_partial_result_on_every_policy() {
        let n = benchmarks::c432();
        let faults = FaultList::collapsed(&n);
        let patterns = random_patterns(n.primary_inputs().len(), 256, 0xCAFE);
        for width in [WordWidth::W1, WordWidth::W8] {
            let token = CancelToken::new();
            token.cancel();
            let sim = FaultSimulator::new(&n)
                .with_word_width(width)
                .with_cancel_token(token);
            let result = sim.run(&faults, &patterns).unwrap();
            assert_eq!(result.patterns_used(), 0, "no block was consumed");
            assert!(result.detected().is_empty());
            assert_eq!(sorted(result.undetected()), sorted(faults.faults()));
        }
    }

    #[test]
    fn live_token_changes_nothing() {
        let n = circuits::adder4();
        let faults = FaultList::collapsed(&n);
        let patterns = random_patterns(n.primary_inputs().len(), 192, 0xFEED);
        let reference = FaultSimulator::new(&n).run(&faults, &patterns).unwrap();
        for width in [WordWidth::W1, WordWidth::W8] {
            let governed = FaultSimulator::new(&n)
                .with_word_width(width)
                .with_cancel_token(CancelToken::new())
                .run(&faults, &patterns)
                .unwrap();
            assert_eq!(sorted(governed.detected()), sorted(reference.detected()));
            assert_eq!(governed.patterns_used(), reference.patterns_used());
        }
    }

    #[test]
    fn run_serial_respects_a_fired_token_per_pattern() {
        let n = circuits::figure3_circuit();
        let faults = FaultList::all(&n);
        let patterns = exhaustive_patterns(n.primary_inputs().len());
        let token = CancelToken::new();
        token.cancel();
        let sim = FaultSimulator::new(&n).with_cancel_token(token);
        let result = sim.run_serial(&faults, &patterns).unwrap();
        assert_eq!(result.patterns_used(), 0);
        assert!(result.detected().is_empty());
    }

    #[test]
    fn wide_widths_match_w1_byte_for_byte() {
        // W = 8 must reproduce the W = 1 detected vector exactly — order
        // included — with and without dropping.  600
        // patterns: ten narrow blocks, two W = 8 blocks (the second one
        // partial), so cross-lane and cross-block first-detection ordering
        // are both exercised.
        let n = benchmarks::by_name("c432").unwrap();
        let faults = FaultList::collapsed(&n);
        let patterns = random_patterns(n.primary_inputs().len(), 600, 0x51AD);
        for dropping in [true, false] {
            let reference = FaultSimulator::new(&n)
                .with_word_width(WordWidth::W1)
                .with_fault_dropping(dropping)
                .run(&faults, &patterns)
                .unwrap();
            let wide = FaultSimulator::new(&n)
                .with_word_width(WordWidth::W8)
                .with_fault_dropping(dropping)
                .run(&faults, &patterns)
                .unwrap();
            let tag = format!("dropping={dropping}");
            assert_eq!(wide.detected(), reference.detected(), "{tag}");
            assert_eq!(wide.undetected(), reference.undetected(), "{tag}");
            assert_eq!(wide.patterns_used(), reference.patterns_used(), "{tag}");
        }
    }

    #[test]
    fn wide_detection_blocks_match_narrow_blocks_per_lane() {
        let n = benchmarks::by_name("c432").unwrap();
        let faults = FaultList::collapsed(&n);
        let cones = FaultCones::build(&n, faults.faults().iter().map(|f| f.signal));
        let sim = Simulator::new(&n);
        // 200 patterns: three full 64-lanes, one partial 8-pattern lane and
        // four empty lanes.
        let patterns = random_patterns(n.primary_inputs().len(), 200, 0xB10C);
        let good_wide = sim.run_parallel_blocks::<8>(&patterns).unwrap();
        let wide_mask = block_mask::<8>(patterns.len());
        let mut wide: PpsfpScratch<8> = PpsfpScratch::new(&n);
        let mut narrow: PpsfpScratch = PpsfpScratch::new(&n);
        let mut wide_memo = ObsMemo::new(&cones);
        let mut narrow_memo = ObsMemo::new(&cones);
        for &fault in faults.faults() {
            let block =
                wide.detection_block(&n, &cones, &mut wide_memo, fault, &good_wide, wide_mask);
            for (l, chunk) in patterns.chunks(64).enumerate() {
                let good = sim.run_parallel_blocks::<1>(chunk).unwrap();
                narrow_memo.clear();
                let mask = block_mask::<1>(chunk.len());
                let word = narrow.detection_block(&n, &cones, &mut narrow_memo, fault, &good, mask);
                assert_eq!(block[l], word[0], "{fault:?} lane {l}");
            }
        }
    }

    #[test]
    fn width_knob_parsing_and_block_masks() {
        assert_eq!(parse_width_override("1"), Some(1));
        assert_eq!(parse_width_override(" 8 "), Some(8));
        assert_eq!(parse_width_override("4"), None);
        assert_eq!(parse_width_override("wide"), None);
        assert_eq!(parse_width_override(""), None);
        assert_eq!(WordWidth::W1.lanes(), 1);
        assert_eq!(WordWidth::W8.lanes(), 8);
        assert_eq!(WordWidth::default(), WordWidth::Auto);
        assert_eq!(block_mask::<1>(13), [word_mask(13)]);
        assert_eq!(block_mask::<4>(130), [u64::MAX, u64::MAX, word_mask(2), 0]);
        assert_eq!(block_mask::<8>(512), [u64::MAX; 8]);
        assert_eq!(block_mask::<8>(0), [0; 8]);
    }

    #[test]
    fn detecting_output_agrees_with_detects() {
        let n = circuits::figure3_circuit();
        let faults = FaultList::all(&n);
        let sim = FaultSimulator::new(&n);
        for pattern in exhaustive_patterns(n.primary_inputs().len()) {
            let good = sim.good_values(&pattern).unwrap();
            for &fault in faults.faults() {
                let output = sim.detecting_output(fault, &pattern).unwrap();
                let detected = sim.detects(fault, &pattern).unwrap();
                assert_eq!(output.is_some(), detected);
                if let Some(po_index) = output {
                    // The reported output really is one where the faulty
                    // circuit disagrees with the good one.
                    assert!(po_index < n.primary_outputs().len());
                    let po = n.primary_outputs()[po_index];
                    let faulty = sim.evaluate_faulty(fault, &pattern).unwrap();
                    assert_ne!(good[po.index()], faulty[po.index()]);
                }
            }
        }
    }
}
