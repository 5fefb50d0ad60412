//! Modified nodal analysis (MNA): DC and AC small-signal solutions.
//!
//! ## Engine layout
//!
//! Every stamp of the MNA system is linear in the complex frequency, so the
//! engine splits the system as `A(s) = G + s·C` with **real** matrices `G`
//! and `C`.  [`Mna::new`] walks the circuit **once**, recording for every
//! element its structural stamp pattern, and assembles the *nominal* `G`
//! and `C` from the circuit's values.  Those matrices never change again:
//!
//! * a solve at frequency `f` assembles `A₀ = G + j·2πf·C` straight into a
//!   cached per-frequency LU factorization ([`crate::matrix::LuFactor`]) and
//!   answers any number of right-hand sides against it.  The cache holds up
//!   to 448 frequencies with least-recently-used eviction in O(1); at
//!   capacity a new frequency re-uses the evicted factor's storage, so it
//!   allocates nothing;
//! * a deviated element ([`Mna::set_value`] / [`Mna::scale_value`]) is only
//!   recorded.  Every value-dependent stamp — resistor conductance,
//!   capacitance, inductance, VCVS gain, finite op-amp gain `a0` — is a
//!   rank-1 term `s(v)·p·qᵀ` with `s(v) = v` (or `1/v` for a conductance),
//!   so `k` deviated elements change `A₀` by `P·D·Qᵀ` with
//!   `D = diag(δ₁ … δ_k)`, `δ = s(v) − s(v₀)` (times `s` for `C` terms).  The
//!   solve answers the deviated system from the nominal factorization by the
//!   Sherman–Morrison–Woodbury identity: with `Z = A₀⁻¹·P` and the `k × k`
//!   capacitance matrix `K = I + D·Qᵀ·Z`,
//!   `x = x₀ − Z·K⁻¹·D·Qᵀ·x₀` where `x₀ = A₀⁻¹·b` — `O(k·n²)` per solve
//!   instead of an `O(n³)` refactorization.  A deviation analysis deviates
//!   one element at a time (`k = 1`).
//!
//! ## Rank-1 memo
//!
//! A deviation probe re-solves the same sweep grid with the same source and
//! the same deviated element, only the value changes.  So every cached
//! factor also keeps the two ingredients of the update that do not depend
//! on the value:
//!
//! * `x₀ = A₀⁻¹·b` of the last single-source drive ([`Drive::Single`],
//!   [`Mna::transfer`]), keyed by the source's element id and the bits of
//!   its magnitude.  That drive's right-hand side is a function of those
//!   two alone, so the key identifies it without storing a copy of it.
//!   `AllDc`/`AllAc` drives are never memoized: `AllAc` reads source values
//!   that [`Mna::set_value`] may change;
//! * the columns `Z = A₀⁻¹·P`, keyed by the indices of the deviated
//!   elements they belong to.
//!
//! Both keys are reset whenever the slot is claimed for another frequency
//! or refactored.  A solve at an already-factored frequency then costs
//! `O(n)` (a copy of `x₀` and the update) instead of `k + 1` LU solves of
//! `O(n²)` each.  The memo holds the exact output of the same `solve_in_place`
//! on the same factor and the same input, so a solve answered from it is
//! **bit-identical** to one that re-solves: the memo is invisible in every
//! result, only [`SolverStats::memo_hits`] counts it.
//!
//! Because the factored system is always the nominal one, a solve is a pure
//! function of the current element values and the frequency: no sequence of
//! `set_value` calls leaves any trace, and one engine can serve any number
//! of deviation probes in any order.
//!
//! ## Grid table
//!
//! A deviation probe of a peak or cut-off parameter re-walks the same sweep
//! grid under one deviated element (`k = 1`).  With one element, the
//! update at output row `o` collapses to scalars: with `H₀ = x₀[o]`,
//! `u = z[o]`, `w = qᵀ·x₀` and `g = qᵀ·z` (`z = A₀⁻¹·p`),
//!
//! ```text
//! H = H₀ − u·((δ·w) / (1 + δ·g))
//! ```
//!
//! and only `δ` depends on the value.  [`Mna::sweep_gains`] keeps one table
//! per engine holding `ω, H₀, u, w, g` for every grid frequency, keyed by
//! the source, the output, the deviated element and the bits of the
//! [`SweepConfig`].  It is filled from the rank-1 memo the first time a key
//! is swept, and every later sweep under that key answers each grid point
//! in O(1).  The scalars are the memo's own values and the formula performs
//! the operations of the `k = 1` update in the same order (`qᵀ·x₀` is the
//! same fold, `K = 1 + δ·g` passes the same pivot test as the `1 × 1`
//! factorization, `δ·w / K` is its back substitution), so a table answer is
//! **bit-identical** to the per-point solve and fails with the same
//! [`AnalogError::SingularMatrix`] where it would fail.  No deviation, two
//! or more deviated elements, a ground output or a table that cannot be
//! filled (a singular nominal system) take the per-point solves instead.
//!
//! Table answers claim no cache slot, so on their own they would let the
//! grid's factors age out of the least-recently-used order while the
//! off-grid peak and cut-off refinements keep adding frequencies — and the
//! next row's table needs those factors again.  **Residency rule:** every
//! table answer marks the slot it was filled from as most recently used if
//! that slot still holds the point's frequency, in grid order, exactly as
//! the per-point solve would have.
//!
//! The single-pole op-amp model `A(s) = a0/(1 + s/ω)` is folded into the
//! `G + s·C` form by multiplying its constraint row through by the
//! denominator, which leaves the solution unchanged.
//!
//! Voltage sources, VCVSs, op-amps and inductors contribute branch-current
//! unknowns.

use std::cell::{RefCell, RefMut};
use std::collections::HashMap;
use std::f64::consts::TAU;

use crate::complex::Complex;
use crate::matrix::{unusable_pivot, LuFactor};
use crate::netlist::{Circuit, ElementId, ElementKind, NodeId, OpAmpModel};
use crate::response::SweepConfig;
use crate::AnalogError;

/// Which independent sources drive the circuit during a solve.
#[derive(Clone, Debug, PartialEq)]
pub enum Drive {
    /// Every source uses its own DC value (used by [`Mna::solve_dc`]).
    AllDc,
    /// Every source uses its own AC magnitude (used by [`Mna::solve_ac`]).
    AllAc,
    /// Only the named source is active, with the given magnitude; all other
    /// independent sources are zeroed.  This is how transfer functions are
    /// computed.
    Single {
        /// Name of the active source element.
        source: String,
        /// Magnitude applied to the source.
        magnitude: f64,
    },
}

/// The result of one MNA solve: node voltages and source/branch currents.
#[derive(Clone, Debug)]
pub struct Solution {
    voltages: Vec<Complex>,
    branch_currents: HashMap<ElementId, Complex>,
}

impl Solution {
    /// Complex voltage at `node` (ground reads as exactly zero).
    pub fn voltage(&self, node: NodeId) -> Complex {
        self.voltages[node.index()]
    }

    /// Voltage difference `V(a) − V(b)`.
    pub fn voltage_between(&self, a: NodeId, b: NodeId) -> Complex {
        self.voltage(a) - self.voltage(b)
    }

    /// Branch current of an element that carries a current unknown (voltage
    /// sources, VCVS, op-amps, inductors), if present.
    pub fn branch_current(&self, element: ElementId) -> Option<Complex> {
        self.branch_currents.get(&element).copied()
    }
}

/// Counters exposing how much work the factorization cache avoided.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Total linear solves performed.
    pub solves: u64,
    /// Nominal `G + sC` assemblies (one per frequency newly cached since the
    /// last cache clear; everything else was served from the cache).
    pub assemblies: u64,
    /// LU factorizations performed (one per assembly: deviated solves
    /// re-use the nominal factorization).
    pub factorizations: u64,
    /// Solves answered by a low-rank update of the nominal factorization
    /// because some element value differed from nominal.
    pub updates: u64,
    /// Nominal solutions `x₀` that came from the factor's memo instead of
    /// two triangular solves (see the [module docs](self)).
    pub memo_hits: u64,
    /// Sweep points answered from the grid table of [`Mna::sweep_gains`]
    /// (see the [module docs](self)).  Each also counts as a solve, and as
    /// an update when the deviation enters the matrix at that frequency.
    pub table_hits: u64,
}

/// Which of the two real matrices an entry belongs to.
#[derive(Clone, Copy, Debug)]
enum Target {
    G,
    C,
}

/// One constant `(matrix, row, col)` entry of an element's stamp pattern.
#[derive(Clone, Copy, Debug)]
struct Stamp {
    target: Target,
    row: u32,
    col: u32,
    factor: f64,
}

/// The value-dependent part of an element's stamp: `s(v)·p·qᵀ` in `G` or
/// `C`, with `p` and `q` sparse `±1` vectors (empty for sources and ideal
/// op-amps, whose value never enters the matrix).
#[derive(Clone, Debug)]
struct ValueStamp {
    target: Target,
    /// `s(v) = 1/v` (resistor conductance) instead of `s(v) = v`.
    inverse: bool,
    p: Vec<(u32, f64)>,
    q: Vec<(u32, f64)>,
}

impl ValueStamp {
    fn none() -> Self {
        ValueStamp {
            target: Target::G,
            inverse: false,
            p: Vec::new(),
            q: Vec::new(),
        }
    }

    /// Whether the element's value enters the matrix at all.
    fn is_active(&self) -> bool {
        !self.p.is_empty() && !self.q.is_empty()
    }

    #[inline]
    fn scale(&self, value: f64) -> f64 {
        if self.inverse {
            1.0 / value
        } else {
            value
        }
    }

    /// `qᵀ·x`.
    #[inline]
    fn q_dot(&self, x: &[Complex]) -> Complex {
        self.q
            .iter()
            .fold(Complex::ZERO, |acc, &(i, qi)| acc + x[i as usize] * qi)
    }
}

/// How an independent source contributes to the right-hand side.
#[derive(Clone, Copy, Debug)]
enum RhsStamp {
    /// Voltage source: `b[row] = value`.
    Branch { row: u32 },
    /// Current source: `b[plus] -= value`, `b[minus] += value`.
    Nodal {
        plus: Option<u32>,
        minus: Option<u32>,
    },
}

/// [`Drive`] with the active source resolved to its element id.
#[derive(Clone, Copy, Debug)]
enum ActiveDrive {
    AllDc,
    AllAc,
    Single(ElementId, f64),
}

/// Bound on the number of per-frequency factorizations kept alive.  When a
/// new frequency arrives at capacity, the least-recently-used one is
/// evicted, so the warm working set stays cached while memory stays
/// bounded.  One parameter measurement touches its sweep grid (181–211
/// points for the paper's filters) and 7–12 off-grid points of the Brent
/// peak search or the Illinois cut-off search, new ones for every probed
/// deviation; 448 slots hold a row's grid plus the refinements of a few
/// dozen probes, and 448 factors with their rank-1 memo take the memory of
/// 512 bare factors of the 15-unknown board.
const MAX_CACHED_SYSTEMS: usize = 448;

/// End-of-list marker of the cache's recency list.
const NIL: u32 = u32::MAX;

/// One cached nominal factorization, linked into the recency list.
struct CachedLu {
    key: u64,
    lu: LuFactor,
    memo: RankOneMemo,
    newer: u32,
    older: u32,
}

/// The value-independent solves against one cached factor (see the
/// [module docs](self)).  The buffers are sized with the slot and keep
/// their capacity when it is refactored; only the keys are reset.
struct RankOneMemo {
    /// `(source, magnitude bits)` of the single-source drive whose
    /// `A₀⁻¹·b` is in `x0`.
    drive: Option<(ElementId, u64)>,
    x0: Vec<Complex>,
    /// Indices of the deviated elements whose columns `A₀⁻¹·p` are in `z`.
    elements: Vec<usize>,
    /// `Z = A₀⁻¹·P`, one column of `n` entries per element.
    z: Vec<Complex>,
}

impl RankOneMemo {
    /// `Z = A₀⁻¹·P` of `elements`, solved against `lu` only when the memo
    /// holds the columns of another set.
    fn columns(
        &mut self,
        lu: &LuFactor,
        stamps: &[ValueStamp],
        elements: impl Iterator<Item = usize> + Clone,
    ) -> &[Complex] {
        let n = lu.dim();
        if !self.elements.iter().copied().eq(elements.clone()) {
            self.elements.clear();
            self.elements.extend(elements.clone());
            self.z.resize(self.elements.len() * n, Complex::ZERO);
            for (z, e) in self.z.chunks_exact_mut(n).zip(elements) {
                z.fill(Complex::ZERO);
                for &(i, pi) in &stamps[e].p {
                    z[i as usize] = Complex::from_real(pi);
                }
                lu.solve_in_place(z);
            }
        }
        &self.z[..self.elements.len() * n]
    }
}

/// Per-frequency nominal factorizations with O(1) least-recently-used
/// eviction: a slab of factors threaded on a doubly linked recency list.
#[derive(Default)]
struct SystemCache {
    slots: Vec<CachedLu>,
    index: HashMap<u64, u32>,
    newest: u32,
    oldest: u32,
}

impl SystemCache {
    fn new() -> Self {
        SystemCache {
            newest: NIL,
            oldest: NIL,
            ..SystemCache::default()
        }
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn clear(&mut self) {
        *self = SystemCache::new();
    }

    /// The slot holding frequency `key`, marked most recently used, and
    /// whether it was claimed just now (its factor does not hold `key`'s
    /// system yet).  At capacity the least-recently-used slot is re-used.
    fn claim(&mut self, key: u64, n: usize) -> (usize, bool) {
        if let Some(&slot) = self.index.get(&key) {
            self.unlink(slot);
            self.push_newest(slot);
            return (slot as usize, false);
        }
        let slot = if self.slots.len() < MAX_CACHED_SYSTEMS {
            self.slots.push(CachedLu {
                key,
                lu: LuFactor::new(n),
                memo: RankOneMemo {
                    drive: None,
                    x0: Vec::with_capacity(n),
                    elements: Vec::with_capacity(1),
                    z: Vec::with_capacity(n),
                },
                newer: NIL,
                older: NIL,
            });
            (self.slots.len() - 1) as u32
        } else {
            let slot = self.oldest;
            self.unlink(slot);
            self.index.remove(&self.slots[slot as usize].key);
            self.slots[slot as usize].key = key;
            slot
        };
        self.index.insert(key, slot);
        self.push_newest(slot);
        (slot as usize, true)
    }

    fn unlink(&mut self, slot: u32) {
        let CachedLu { newer, older, .. } = self.slots[slot as usize];
        match newer {
            NIL => self.newest = older,
            s => self.slots[s as usize].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            s => self.slots[s as usize].newer = newer,
        }
    }

    /// Marks `slot` most recently used if it still holds frequency `key`.
    fn touch(&mut self, slot: u32, key: u64) {
        if self.slots.get(slot as usize).is_some_and(|s| s.key == key) {
            self.unlink(slot);
            self.push_newest(slot);
        }
    }

    fn push_newest(&mut self, slot: u32) {
        let entry = &mut self.slots[slot as usize];
        entry.newer = NIL;
        entry.older = self.newest;
        match self.newest {
            NIL => self.oldest = slot,
            s => self.slots[s as usize].newer = slot,
        }
        self.newest = slot;
    }
}

/// What a [`GridTable`] answers for: the single-source drive (at unit
/// magnitude), the unknown observed, the one deviated element and the bits
/// of the sweep configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct GridKey {
    source: ElementId,
    /// Row of the output node in the solution vector.
    row: usize,
    element: usize,
    grid: [u64; 3],
}

/// The value-independent scalars of one grid frequency (see the
/// [module docs](self)).
#[derive(Clone, Copy, Debug)]
struct GridPoint {
    freq: f64,
    omega: f64,
    /// `H₀ = x₀[o]`.
    h0: Complex,
    /// `u = z[o]`.
    u: Complex,
    /// `w = qᵀ·x₀`.
    w: Complex,
    /// `g = qᵀ·z`.
    g: Complex,
    /// The cache slot the point was filled from.
    slot: u32,
}

/// The grid table of [`Mna::sweep_gains`]: one point per grid frequency,
/// valid for `key` (none while it is being filled).
#[derive(Default)]
struct GridTable {
    key: Option<GridKey>,
    points: Vec<GridPoint>,
}

/// Reusable buffers of the low-rank update; they grow to the largest number
/// of simultaneously deviated elements and are never shrunk.
struct UpdateScratch {
    /// `(element index, δ)` of every deviated element with `δ ≠ 0`.
    terms: Vec<(usize, Complex)>,
    /// The `k × k` capacitance matrix `K = I + D·Qᵀ·Z`.
    capacitance: Vec<Complex>,
    /// `D·Qᵀ·x₀`, solved in place into `K⁻¹·D·Qᵀ·x₀`.
    weights: Vec<Complex>,
    /// Factor of `K`, re-allocated only when `k` changes.
    capacitance_lu: LuFactor,
}

/// The mutable state behind an [`Mna`]'s shared reference.
struct Engine {
    /// Current scalar value per element.
    values: Vec<f64>,
    /// Indices of the elements with an active value stamp whose current
    /// value differs from nominal, ascending.
    deviated: Vec<usize>,
    systems: SystemCache,
    grid: GridTable,
    /// Reusable right-hand-side / solution buffer.
    rhs: Vec<Complex>,
    scratch: UpdateScratch,
    stats: SolverStats,
}

/// The MNA engine bound to one circuit.
///
/// # Example
///
/// ```
/// use msatpg_analog::netlist::Circuit;
/// use msatpg_analog::mna::Mna;
///
/// // A simple RC low-pass: fc = 1/(2π·RC) ≈ 1.59 kHz
/// let mut c = Circuit::new();
/// let vin = c.node("vin");
/// let vout = c.node("vout");
/// c.voltage_source("Vin", vin, Circuit::GROUND, 0.0, 1.0);
/// c.resistor("R", vin, vout, 1.0e3);
/// let cap = c.capacitor("C", vout, Circuit::GROUND, 100.0e-9);
/// let mna = Mna::new(&c);
/// let dc = mna.solve_dc().unwrap();
/// assert!((dc.voltage(vout).abs() - 0.0).abs() < 1e-9); // DC value of source is 0
/// let ac = mna.solve_ac(1.0).unwrap();
/// assert!((ac.voltage(vout).abs() - 1.0).abs() < 1e-3); // passband
/// // A deviation is a low-rank update of the nominal factorization:
/// mna.scale_value(cap, 10.0);
/// let shifted = mna.solve_ac(1.0e4).unwrap();
/// mna.reset_values();
/// assert!(shifted.voltage(vout).abs() < mna.solve_ac(1.0e4).unwrap().voltage(vout).abs());
/// ```
pub struct Mna<'a> {
    circuit: &'a Circuit,
    /// Elements that contribute a branch-current unknown, in matrix order.
    branch_elements: Vec<ElementId>,
    /// Number of non-ground node unknowns.
    n_nodes: usize,
    /// Total unknowns.
    n: usize,
    /// Nominal conductance matrix, row-major `n × n`.
    g: Vec<f64>,
    /// Nominal frequency-proportional (susceptance) matrix, row-major.
    c: Vec<f64>,
    /// Nominal (circuit) value per element.
    nominal: Vec<f64>,
    /// Value-dependent stamp per element.
    value_stamps: Vec<ValueStamp>,
    /// Right-hand-side pattern: `(element, stamp, dc_value)` per source.
    rhs_stamps: Vec<(ElementId, RhsStamp, f64)>,
    engine: RefCell<Engine>,
}

impl<'a> Mna<'a> {
    /// Prepares the MNA engine for `circuit`: derives the structural stamp
    /// pattern of every element and assembles the nominal `G` and `C`
    /// matrices once.
    pub fn new(circuit: &'a Circuit) -> Self {
        let branch_elements: Vec<ElementId> = circuit
            .iter()
            .filter(|(_, e)| {
                matches!(
                    e.kind,
                    ElementKind::VoltageSource { .. }
                        | ElementKind::Vcvs { .. }
                        | ElementKind::OpAmp { .. }
                        | ElementKind::Inductor { .. }
                )
            })
            .map(|(id, _)| id)
            .collect();
        let n_nodes = circuit.node_count() - 1; // excluding ground
        let n = n_nodes + branch_elements.len();

        // Map: node -> row/column (ground maps to None).
        let row = |node: NodeId| -> Option<u32> {
            if node.is_ground() {
                None
            } else {
                Some(node.index() as u32 - 1)
            }
        };
        let branch_row: HashMap<ElementId, u32> = branch_elements
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, (n_nodes + i) as u32))
            .collect();
        // `±1` at the rows of two nodes: the incidence vector `e_a − e_b`
        // of a two-terminal element (or a control port, `e_b − e_a`).
        let incidence = |plus: NodeId, minus: NodeId| -> Vec<(u32, f64)> {
            row(plus)
                .map(|i| (i, 1.0))
                .into_iter()
                .chain(row(minus).map(|j| (j, -1.0)))
                .collect()
        };
        let g_stamp = |row: u32, col: u32, factor: f64| Stamp {
            target: Target::G,
            row,
            col,
            factor,
        };

        let mut stamps: Vec<Vec<Stamp>> = Vec::with_capacity(circuit.element_count());
        let mut value_stamps = Vec::with_capacity(circuit.element_count());
        let mut rhs_stamps = Vec::new();
        for (id, e) in circuit.iter() {
            let mut constant = Vec::new();
            // Branch-voltage coupling pattern: ±1 at (i,k), (k,i), (j,k), (k,j).
            let branch_coupling = |constant: &mut Vec<Stamp>, k: u32, np: NodeId, nn: NodeId| {
                if let Some(i) = row(np) {
                    constant.push(g_stamp(i, k, 1.0));
                    constant.push(g_stamp(k, i, 1.0));
                }
                if let Some(j) = row(nn) {
                    constant.push(g_stamp(j, k, -1.0));
                    constant.push(g_stamp(k, j, -1.0));
                }
            };
            let value_stamp = match e.kind {
                ElementKind::Resistor { .. } | ElementKind::Capacitor { .. } => {
                    // Admittance `y·(e_a − e_b)(e_a − e_b)ᵀ`.
                    let u = incidence(e.nodes[0], e.nodes[1]);
                    let resistor = matches!(e.kind, ElementKind::Resistor { .. });
                    ValueStamp {
                        target: if resistor { Target::G } else { Target::C },
                        inverse: resistor,
                        p: u.clone(),
                        q: u,
                    }
                }
                ElementKind::Inductor { .. } => {
                    // Branch formulation: V(a) − V(b) − s·L·I = 0
                    let k = branch_row[&id];
                    branch_coupling(&mut constant, k, e.nodes[0], e.nodes[1]);
                    ValueStamp {
                        target: Target::C,
                        inverse: false,
                        p: vec![(k, 1.0)],
                        q: vec![(k, -1.0)],
                    }
                }
                ElementKind::VoltageSource { dc, .. } => {
                    let k = branch_row[&id];
                    branch_coupling(&mut constant, k, e.nodes[0], e.nodes[1]);
                    rhs_stamps.push((id, RhsStamp::Branch { row: k }, dc));
                    ValueStamp::none()
                }
                ElementKind::CurrentSource { dc, .. } => {
                    rhs_stamps.push((
                        id,
                        RhsStamp::Nodal {
                            plus: row(e.nodes[0]),
                            minus: row(e.nodes[1]),
                        },
                        dc,
                    ));
                    ValueStamp::none()
                }
                ElementKind::Vcvs { .. } => {
                    // V(p) − V(n) − gain·(V(cp) − V(cn)) = 0
                    let k = branch_row[&id];
                    branch_coupling(&mut constant, k, e.nodes[0], e.nodes[1]);
                    ValueStamp {
                        target: Target::G,
                        inverse: false,
                        p: vec![(k, 1.0)],
                        q: incidence(e.nodes[3], e.nodes[2]),
                    }
                }
                ElementKind::OpAmp { model } => {
                    // Output current is the branch unknown, injected at `out`.
                    let k = branch_row[&id];
                    let (inp, inn, out) = (e.nodes[0], e.nodes[1], e.nodes[2]);
                    if let Some(o) = row(out) {
                        constant.push(g_stamp(o, k, 1.0));
                    }
                    match model {
                        OpAmpModel::Ideal => {
                            // Constraint: V(in+) − V(in−) = 0
                            for (i, factor) in incidence(inp, inn) {
                                constant.push(g_stamp(k, i, factor));
                            }
                            ValueStamp::none()
                        }
                        OpAmpModel::FiniteGain { pole_hz, .. } => {
                            // V(out) = A(s)·(V(in+) − V(in−)) with
                            // A(s) = a0 / (1 + s/(2π·pole_hz)).  Multiplying
                            // the row by the denominator keeps the system in
                            // G + s·C form without changing the solution:
                            // (1 + s/ω)·V(out) − a0·(V(in+) − V(in−)) = 0.
                            if let Some(o) = row(out) {
                                constant.push(g_stamp(k, o, 1.0));
                                constant.push(Stamp {
                                    target: Target::C,
                                    row: k,
                                    col: o,
                                    factor: 1.0 / (TAU * pole_hz),
                                });
                            }
                            // The element "value" is a0 (see ElementKind::value).
                            ValueStamp {
                                target: Target::G,
                                inverse: false,
                                p: vec![(k, 1.0)],
                                q: incidence(inn, inp),
                            }
                        }
                    }
                }
            };
            stamps.push(constant);
            value_stamps.push(value_stamp);
        }

        let nominal: Vec<f64> = circuit.iter().map(|(id, _)| circuit.value(id)).collect();
        let mut g = vec![0.0; n * n];
        let mut c = vec![0.0; n * n];
        for ((constant, stamp), &value) in stamps.iter().zip(&value_stamps).zip(&nominal) {
            let mut add = |target: Target, row: u32, col: u32, x: f64| {
                let slot = row as usize * n + col as usize;
                match target {
                    Target::G => g[slot] += x,
                    Target::C => c[slot] += x,
                }
            };
            for s in constant {
                add(s.target, s.row, s.col, s.factor);
            }
            let scale = stamp.scale(value);
            for &(i, pi) in &stamp.p {
                for &(j, qj) in &stamp.q {
                    add(stamp.target, i, j, pi * qj * scale);
                }
            }
        }
        let engine = Engine {
            values: nominal.clone(),
            deviated: Vec::new(),
            systems: SystemCache::new(),
            grid: GridTable::default(),
            rhs: vec![Complex::ZERO; n],
            scratch: UpdateScratch {
                terms: Vec::new(),
                capacitance: Vec::new(),
                weights: Vec::new(),
                capacitance_lu: LuFactor::new(0),
            },
            stats: SolverStats::default(),
        };

        Mna {
            circuit,
            branch_elements,
            n_nodes,
            n,
            g,
            c,
            nominal,
            value_stamps,
            rhs_stamps,
            engine: RefCell::new(engine),
        }
    }

    /// The circuit this engine was built for.
    pub fn circuit(&self) -> &'a Circuit {
        self.circuit
    }

    /// Number of unknowns in the MNA system.
    pub fn unknown_count(&self) -> usize {
        self.n
    }

    /// Current (possibly deviated) scalar value of an element.
    pub fn value(&self, element: ElementId) -> f64 {
        self.engine.borrow().values[element.index()]
    }

    /// Replaces the scalar value of an element.  Only the value is
    /// recorded: the nominal matrices and their cached factorizations are
    /// never touched, and later solves answer the deviated system as a
    /// low-rank update of the nominal one (see the [module docs](self)).
    /// The bound circuit is never modified, and the engine's answers depend
    /// only on the current values — never on the order in which they were
    /// set.
    ///
    /// A value whose stamp is not finite (a resistor set to exactly `0.0`
    /// has infinite conductance), or a deviation that makes the update's
    /// capacitance matrix singular, makes solves report
    /// [`AnalogError::SingularMatrix`] until another value is set.  Since
    /// every solve starts from the nominal factorization, a circuit whose
    /// nominal system is singular stays singular whatever values are set.
    pub fn set_value(&self, element: ElementId, new_value: f64) {
        let idx = element.index();
        let mut engine = self.engine.borrow_mut();
        engine.values[idx] = new_value;
        if !self.value_stamps[idx].is_active() {
            return;
        }
        match (
            engine.deviated.binary_search(&idx),
            new_value == self.nominal[idx],
        ) {
            (Ok(pos), true) => {
                engine.deviated.remove(pos);
            }
            (Err(pos), false) => engine.deviated.insert(pos, idx),
            _ => {}
        }
    }

    /// Multiplies the scalar value of an element by `factor` (see
    /// [`Mna::set_value`]).
    pub fn scale_value(&self, element: ElementId, factor: f64) {
        self.set_value(element, self.value(element) * factor);
    }

    /// Restores every element to its nominal (circuit) value.
    pub fn reset_values(&self) {
        let mut engine = self.engine.borrow_mut();
        engine.values.copy_from_slice(&self.nominal);
        engine.deviated.clear();
    }

    /// Counters for solves, assemblies, factorizations and low-rank updates
    /// since the engine was built.
    pub fn solver_stats(&self) -> SolverStats {
        self.engine.borrow().stats
    }

    /// Number of per-frequency factorizations currently cached.
    pub fn cached_system_count(&self) -> usize {
        self.engine.borrow().systems.len()
    }

    /// Drops all cached per-frequency factorizations and the grid table
    /// (they are rebuilt on demand).
    pub fn clear_system_cache(&self) {
        let mut engine = self.engine.borrow_mut();
        engine.systems.clear();
        engine.grid = GridTable::default();
    }

    /// Solves the DC operating point (all capacitors open, inductors
    /// shorted, sources at their DC values).
    ///
    /// # Errors
    ///
    /// Returns an error if the MNA matrix is singular.
    pub fn solve_dc(&self) -> Result<Solution, AnalogError> {
        self.solve(0.0, &Drive::AllDc)
    }

    /// Solves the AC small-signal response at `freq_hz` with every source at
    /// its AC magnitude.
    ///
    /// # Errors
    ///
    /// Returns an error if the MNA matrix is singular.
    pub fn solve_ac(&self, freq_hz: f64) -> Result<Solution, AnalogError> {
        self.solve(freq_hz, &Drive::AllAc)
    }

    /// Solves at `freq_hz` with only the named source active at the given
    /// magnitude (other sources are zeroed); `freq_hz = 0` performs a DC
    /// solve.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::UnknownElement`] if the source does not exist,
    /// or a singular-matrix error.
    pub fn solve_single_source(
        &self,
        source: &str,
        magnitude: f64,
        freq_hz: f64,
    ) -> Result<Solution, AnalogError> {
        self.solve(
            freq_hz,
            &Drive::Single {
                source: source.to_owned(),
                magnitude,
            },
        )
    }

    /// Complex transfer function `V(output) / stimulus` from the named
    /// source to `output` at `freq_hz` (unit-magnitude stimulus).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Mna::solve_single_source`].
    pub fn transfer(
        &self,
        source: &str,
        output: NodeId,
        freq_hz: f64,
    ) -> Result<Complex, AnalogError> {
        let id = self.source_id(source)?;
        let engine = self.solve_into(freq_hz, ActiveDrive::Single(id, 1.0))?;
        Ok(match output.index() {
            0 => Complex::ZERO,
            node => engine.rhs[node - 1],
        })
    }

    /// Gain magnitude `|V(output) / stimulus|` at `freq_hz`.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Mna::transfer`].
    pub fn gain(&self, source: &str, output: NodeId, freq_hz: f64) -> Result<f64, AnalogError> {
        Ok(self.transfer(source, output, freq_hz)?.abs())
    }

    /// `(frequency, gain)` at every point of the sweep grid of `config`,
    /// ascending: the same values, bit for bit, as [`Mna::gain`] at each of
    /// [`SweepConfig::frequencies`], and the same first error.  With
    /// exactly one deviated element, the points come from the engine's grid
    /// table in O(1) each (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Mna::transfer`].
    pub fn sweep_gains(
        &self,
        source: &str,
        output: NodeId,
        config: &SweepConfig,
    ) -> Result<Vec<(f64, f64)>, AnalogError> {
        let grid = [
            config.start_hz.to_bits(),
            config.stop_hz.to_bits(),
            config.points_per_decade as u64,
        ];
        self.grid_gains(source, output, grid, || config.frequencies())
    }

    /// [`Mna::sweep_gains`] over the grid `frequencies` yields, which the
    /// key `grid` identifies.
    fn grid_gains(
        &self,
        source: &str,
        output: NodeId,
        grid: [u64; 3],
        frequencies: impl FnOnce() -> Vec<f64>,
    ) -> Result<Vec<(f64, f64)>, AnalogError> {
        let per_point = |freqs: Vec<f64>| {
            freqs
                .into_iter()
                .map(|f| Ok((f, self.gain(source, output, f)?)))
                .collect()
        };
        let source = self.source_id(source)?;
        let mut guard = self.engine.borrow_mut();
        let engine = &mut *guard;
        let (&[element], Some(row)) = (&engine.deviated[..], output.index().checked_sub(1)) else {
            drop(guard);
            return per_point(frequencies());
        };
        let key = GridKey {
            source,
            row,
            element,
            grid,
        };
        if engine.grid.key != Some(key) {
            let freqs = frequencies();
            if self.fill_grid(engine, key, &freqs).is_err() {
                // The per-point solves report the failure where it occurs.
                drop(guard);
                return per_point(freqs);
            }
        }
        self.table_gains(engine, element)
    }

    /// Fills the grid table for `key` over `freqs` from the rank-1 memo,
    /// factoring the frequencies that are not cached.
    fn fill_grid(
        &self,
        engine: &mut Engine,
        key: GridKey,
        freqs: &[f64],
    ) -> Result<(), AnalogError> {
        let stamp = &self.value_stamps[key.element];
        engine.grid.key = None;
        engine.grid.points.clear();
        for &freq in freqs {
            let slot = self.solve_nominal(engine, freq, ActiveDrive::Single(key.source, 1.0))?;
            let Engine {
                systems,
                rhs: x0,
                grid,
                ..
            } = &mut *engine;
            let CachedLu { lu, memo, .. } = &mut systems.slots[slot];
            let z = memo.columns(lu, &self.value_stamps, std::iter::once(key.element));
            grid.points.push(GridPoint {
                freq,
                omega: TAU * freq,
                h0: x0[key.row],
                u: z[key.row],
                w: stamp.q_dot(x0),
                g: stamp.q_dot(z),
                slot: slot as u32,
            });
        }
        engine.grid.key = Some(key);
        Ok(())
    }

    /// Answers every point of the filled grid table under the current
    /// value of `element`, the one deviated element: the `k = 1` update of
    /// [`Mna::apply_update`] on the table's scalars, with its checks.
    fn table_gains(
        &self,
        engine: &mut Engine,
        element: usize,
    ) -> Result<Vec<(f64, f64)>, AnalogError> {
        let Engine {
            values,
            systems,
            grid,
            stats,
            ..
        } = engine;
        let s = &self.value_stamps[element];
        let singular = || AnalogError::SingularMatrix {
            pivot: s.p[0].0 as usize,
        };
        let ds = s.scale(values[element]) - s.scale(self.nominal[element]);
        grid.points
            .iter()
            .map(|point| {
                systems.touch(point.slot, point.freq.to_bits());
                stats.solves += 1;
                stats.table_hits += 1;
                let delta = match s.target {
                    Target::G => Complex::from_real(ds),
                    Target::C => Complex::new(0.0, point.omega * ds),
                };
                if !delta.is_finite() {
                    return Err(singular());
                }
                // A `C` deviation vanishes at DC.
                if delta == Complex::ZERO {
                    return Ok((point.freq, point.h0.abs()));
                }
                stats.updates += 1;
                let capacitance = Complex::ONE + delta * point.g;
                if unusable_pivot(capacitance.abs()) {
                    return Err(singular());
                }
                let weight = (delta * point.w) / capacitance;
                if !weight.is_finite() {
                    return Err(singular());
                }
                Ok((point.freq, (point.h0 - point.u * weight).abs()))
            })
            .collect()
    }

    fn source_id(&self, source: &str) -> Result<ElementId, AnalogError> {
        self.circuit
            .find_element(source)
            .ok_or_else(|| AnalogError::UnknownElement {
                name: source.to_owned(),
            })
    }

    fn solve(&self, freq_hz: f64, drive: &Drive) -> Result<Solution, AnalogError> {
        let drive = match drive {
            Drive::AllDc => ActiveDrive::AllDc,
            Drive::AllAc => ActiveDrive::AllAc,
            Drive::Single { source, magnitude } => {
                ActiveDrive::Single(self.source_id(source)?, *magnitude)
            }
        };
        let engine = self.solve_into(freq_hz, drive)?;
        let x = &engine.rhs;
        let mut voltages = vec![Complex::ZERO; self.circuit.node_count()];
        voltages[1..].copy_from_slice(&x[..self.n_nodes]);
        let branch_currents = self
            .branch_elements
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, x[self.n_nodes + i]))
            .collect();
        Ok(Solution {
            voltages,
            branch_currents,
        })
    }

    /// Solves the current (possibly deviated) system at `freq_hz`, leaving
    /// the solution in the returned engine's `rhs` buffer.
    fn solve_into(
        &self,
        freq_hz: f64,
        drive: ActiveDrive,
    ) -> Result<RefMut<'_, Engine>, AnalogError> {
        let mut guard = self.engine.borrow_mut();
        if self.n == 0 {
            return Ok(guard);
        }
        let engine = &mut *guard;
        engine.stats.solves += 1;
        let slot = self.solve_nominal(engine, freq_hz, drive)?;
        if !engine.deviated.is_empty() {
            self.apply_update(engine, slot, TAU * freq_hz)?;
        }
        Ok(guard)
    }

    /// Leaves the nominal solution `x₀` at `freq_hz` in `engine.rhs`:
    /// factors the frequency's system unless it is cached, and reads `x₀`
    /// from the slot's memo when that holds the same single-source drive.
    /// Returns the slot.
    fn solve_nominal(
        &self,
        engine: &mut Engine,
        freq_hz: f64,
        drive: ActiveDrive,
    ) -> Result<usize, AnalogError> {
        let n = self.n;
        let omega = TAU * freq_hz;
        let (slot, claimed) = engine.systems.claim(freq_hz.to_bits(), n);
        let CachedLu { lu, memo, .. } = &mut engine.systems.slots[slot];
        if claimed || !lu.is_factored() {
            engine.stats.assemblies += 1;
            engine.stats.factorizations += 1;
            memo.drive = None;
            memo.elements.clear();
            lu.refactor_with(|a| {
                for ((a, &g), &c) in a.iter_mut().zip(&self.g).zip(&self.c) {
                    *a = Complex::new(g, omega * c);
                }
            })?;
        }

        let rhs = &mut engine.rhs;
        let single = match drive {
            ActiveDrive::Single(source, magnitude) => Some((source, magnitude.to_bits())),
            ActiveDrive::AllDc | ActiveDrive::AllAc => None,
        };
        if single.is_some() && memo.drive == single {
            engine.stats.memo_hits += 1;
            rhs.copy_from_slice(&memo.x0);
        } else {
            // Right-hand side from the source pattern (reusing the buffer).
            rhs.fill(Complex::ZERO);
            for &(id, stamp, dc) in &self.rhs_stamps {
                let value = match drive {
                    ActiveDrive::AllDc => dc,
                    ActiveDrive::AllAc => engine.values[id.index()],
                    ActiveDrive::Single(source, magnitude) if source == id => magnitude,
                    ActiveDrive::Single(..) => 0.0,
                };
                match stamp {
                    RhsStamp::Branch { row } => {
                        rhs[row as usize] = Complex::from_real(value);
                    }
                    RhsStamp::Nodal { plus, minus } => {
                        if let Some(i) = plus {
                            rhs[i as usize] -= Complex::from_real(value);
                        }
                        if let Some(j) = minus {
                            rhs[j as usize] += Complex::from_real(value);
                        }
                    }
                }
            }
            lu.solve_in_place(rhs);
            if single.is_some() {
                memo.drive = single;
                memo.x0.clear();
                memo.x0.extend_from_slice(rhs);
            }
        }
        Ok(slot)
    }

    /// Turns the nominal solution `x₀` in `engine.rhs` into the solution of
    /// the deviated system (Sherman–Morrison–Woodbury, see the
    /// [module docs](self)).  The columns `Z = A₀⁻¹·P` come from the slot's
    /// memo, solved into it only when the deviated set changed.
    fn apply_update(
        &self,
        engine: &mut Engine,
        slot: usize,
        omega: f64,
    ) -> Result<(), AnalogError> {
        let n = self.n;
        let Engine {
            values,
            deviated,
            systems,
            rhs: x,
            scratch,
            stats,
            ..
        } = engine;
        let CachedLu { lu, memo, .. } = &mut systems.slots[slot];
        let stamp = |e: usize| &self.value_stamps[e];
        // A non-finite or failed update reports the row the element's
        // stamp lands on, where a direct elimination would have failed.
        let singular = |e: usize| AnalogError::SingularMatrix {
            pivot: stamp(e).p[0].0 as usize,
        };
        scratch.terms.clear();
        for &e in deviated.iter() {
            let s = stamp(e);
            let ds = s.scale(values[e]) - s.scale(self.nominal[e]);
            let delta = match s.target {
                Target::G => Complex::from_real(ds),
                Target::C => Complex::new(0.0, omega * ds),
            };
            if !delta.is_finite() {
                return Err(singular(e));
            }
            // A `C` deviation vanishes at DC.
            if delta != Complex::ZERO {
                scratch.terms.push((e, delta));
            }
        }
        let k = scratch.terms.len();
        if k == 0 {
            return Ok(());
        }
        stats.updates += 1;
        let z = memo.columns(
            lu,
            &self.value_stamps,
            scratch.terms.iter().map(|&(e, _)| e),
        );
        scratch.capacitance.resize(k * k, Complex::ZERO);
        scratch.weights.resize(k, Complex::ZERO);
        for (l, &(e, delta)) in scratch.terms.iter().enumerate() {
            let s = stamp(e);
            scratch.weights[l] = delta * s.q_dot(x);
            for (m, z) in z.chunks_exact(n).enumerate() {
                let identity = if l == m { Complex::ONE } else { Complex::ZERO };
                scratch.capacitance[l * k + m] = identity + delta * s.q_dot(z);
            }
        }
        if scratch.capacitance_lu.dim() != k {
            scratch.capacitance_lu = LuFactor::new(k);
        }
        if let Err(AnalogError::SingularMatrix { pivot }) =
            scratch.capacitance_lu.refactor_slice(&scratch.capacitance)
        {
            return Err(singular(scratch.terms[pivot].0));
        }
        scratch.capacitance_lu.solve_in_place(&mut scratch.weights);
        for (&(e, _), w) in scratch.terms.iter().zip(&scratch.weights) {
            if !w.is_finite() {
                return Err(singular(e));
            }
        }
        for (z, &w) in z.chunks_exact(n).zip(&scratch.weights) {
            for (xi, &zi) in x.iter_mut().zip(z) {
                *xi -= zi * w;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::OpAmpModel;

    fn rc_lowpass() -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.voltage_source("Vin", vin, Circuit::GROUND, 1.0, 1.0);
        c.resistor("R", vin, vout, 1.0e3);
        c.capacitor("C", vout, Circuit::GROUND, 159.154943e-9); // fc ≈ 1 kHz
        (c, vout)
    }

    #[test]
    fn voltage_divider_dc() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let mid = c.node("mid");
        c.voltage_source("Vin", vin, Circuit::GROUND, 10.0, 1.0);
        c.resistor("R1", vin, mid, 2.0e3);
        c.resistor("R2", mid, Circuit::GROUND, 3.0e3);
        let sol = Mna::new(&c).solve_dc().unwrap();
        assert!((sol.voltage(mid).re - 6.0).abs() < 1e-9);
        // Source current: 10 V across 5 kΩ = 2 mA flowing out of + terminal.
        let i = sol.branch_current(c.find_element("Vin").unwrap()).unwrap();
        assert!((i.re.abs() - 2.0e-3).abs() < 1e-9);
    }

    #[test]
    fn rc_lowpass_cutoff() {
        let (c, vout) = rc_lowpass();
        let mna = Mna::new(&c);
        // Well below cutoff: gain ≈ 1.  At cutoff: 1/sqrt(2).  Well above: small.
        let g_low = mna.gain("Vin", vout, 1.0).unwrap();
        let g_fc = mna.gain("Vin", vout, 1000.0).unwrap();
        let g_high = mna.gain("Vin", vout, 100_000.0).unwrap();
        assert!((g_low - 1.0).abs() < 1e-3);
        assert!((g_fc - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        assert!(g_high < 0.02);
    }

    #[test]
    fn inverting_amplifier_with_ideal_opamp() {
        // Gain = -Rf/Rin = -10
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vminus = c.node("vminus");
        let vout = c.node("vout");
        c.voltage_source("Vin", vin, Circuit::GROUND, 0.0, 1.0);
        c.resistor("Rin", vin, vminus, 1.0e3);
        c.resistor("Rf", vminus, vout, 10.0e3);
        c.opamp("A1", Circuit::GROUND, vminus, vout, OpAmpModel::Ideal);
        let mna = Mna::new(&c);
        let h = mna.transfer("Vin", vout, 100.0).unwrap();
        assert!((h.re + 10.0).abs() < 1e-6);
        assert!(h.im.abs() < 1e-9);
    }

    #[test]
    fn inverting_amplifier_with_finite_gain_opamp() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vminus = c.node("vminus");
        let vout = c.node("vout");
        c.voltage_source("Vin", vin, Circuit::GROUND, 0.0, 1.0);
        c.resistor("Rin", vin, vminus, 1.0e3);
        c.resistor("Rf", vminus, vout, 10.0e3);
        c.opamp(
            "A1",
            Circuit::GROUND,
            vminus,
            vout,
            OpAmpModel::FiniteGain {
                a0: 1.0e6,
                pole_hz: 10.0,
            },
        );
        let mna = Mna::new(&c);
        let h = mna.transfer("Vin", vout, 1.0).unwrap();
        // Finite but large gain: very close to -10.
        assert!((h.abs() - 10.0).abs() < 0.01);
    }

    #[test]
    fn finite_gain_opamp_rolls_off_above_the_pole() {
        // Open-loop follower behaviour: closed-loop bandwidth of the
        // inverting amp is a0·pole/(1+Rf/Rin) ≈ 0.9 MHz; well above it the
        // gain must fall clearly below the low-frequency value.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vminus = c.node("vminus");
        let vout = c.node("vout");
        c.voltage_source("Vin", vin, Circuit::GROUND, 0.0, 1.0);
        c.resistor("Rin", vin, vminus, 1.0e3);
        c.resistor("Rf", vminus, vout, 10.0e3);
        c.opamp(
            "A1",
            Circuit::GROUND,
            vminus,
            vout,
            OpAmpModel::FiniteGain {
                a0: 1.0e5,
                pole_hz: 10.0,
            },
        );
        let mna = Mna::new(&c);
        let g_low = mna.gain("Vin", vout, 100.0).unwrap();
        let g_high = mna.gain("Vin", vout, 10.0e6).unwrap();
        assert!((g_low - 10.0).abs() < 0.1, "low-frequency gain {g_low}");
        assert!(g_high < g_low / 5.0, "high-frequency gain {g_high}");
    }

    #[test]
    fn vcvs_gain_stage() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.voltage_source("Vin", vin, Circuit::GROUND, 0.0, 1.0);
        c.vcvs("E1", vout, Circuit::GROUND, vin, Circuit::GROUND, 5.0);
        c.resistor("Rload", vout, Circuit::GROUND, 1.0e3);
        let mna = Mna::new(&c);
        let h = mna.transfer("Vin", vout, 50.0).unwrap();
        assert!((h.re - 5.0).abs() < 1e-9);
    }

    #[test]
    fn rl_highpass_behaviour() {
        // Series R from source, inductor to ground: V(out) rises with f.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.voltage_source("Vin", vin, Circuit::GROUND, 0.0, 1.0);
        c.resistor("R", vin, vout, 1.0e3);
        c.inductor("L", vout, Circuit::GROUND, 0.1);
        let mna = Mna::new(&c);
        let g_low = mna.gain("Vin", vout, 10.0).unwrap();
        let g_high = mna.gain("Vin", vout, 100_000.0).unwrap();
        assert!(g_low < 0.01);
        assert!(g_high > 0.98);
        // DC: inductor is a short.
        let dc = mna.solve_dc().unwrap();
        assert!(dc.voltage(vout).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        let n1 = c.node("n1");
        c.current_source("I1", Circuit::GROUND, n1, 1.0e-3, 1.0e-3);
        c.resistor("R1", n1, Circuit::GROUND, 1.0e3);
        let sol = Mna::new(&c).solve_dc().unwrap();
        // 1 mA into 1 kΩ = 1 V.
        assert!((sol.voltage(n1).re - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_source_drive_zeroes_other_sources() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let bnode = c.node("b");
        c.voltage_source("V1", a, Circuit::GROUND, 1.0, 1.0);
        c.voltage_source("V2", bnode, Circuit::GROUND, 1.0, 1.0);
        c.resistor("R1", a, bnode, 1.0e3);
        let mna = Mna::new(&c);
        let sol = mna.solve_single_source("V1", 2.0, 0.0).unwrap();
        assert!((sol.voltage(a).re - 2.0).abs() < 1e-12);
        assert!(sol.voltage(bnode).abs() < 1e-12);
        assert!(mna.solve_single_source("nope", 1.0, 0.0).is_err());
    }

    #[test]
    fn unknown_count_matches_structure() {
        let (c, _) = rc_lowpass();
        let mna = Mna::new(&c);
        // 2 non-ground nodes + 1 voltage-source branch.
        assert_eq!(mna.unknown_count(), 3);
    }

    #[test]
    fn value_patching_matches_a_rebuilt_circuit() {
        let (c, vout) = rc_lowpass();
        let r = c.find_element("R").unwrap();
        let cap = c.find_element("C").unwrap();
        let mna = Mna::new(&c);
        // Patch R to 2 kΩ and C to half: cutoff stays at ~1 kHz.
        mna.set_value(r, 2.0e3);
        mna.scale_value(cap, 0.5);
        assert_eq!(mna.value(r), 2.0e3);
        let mut rebuilt = c.clone();
        rebuilt.set_value(r, 2.0e3);
        rebuilt.scale_value(cap, 0.5);
        let reference = Mna::new(&rebuilt);
        for freq in [1.0, 500.0, 1000.0, 20_000.0] {
            let a = mna.gain("Vin", vout, freq).unwrap();
            let b = reference.gain("Vin", vout, freq).unwrap();
            assert!(
                (a - b).abs() < 1e-12,
                "gain mismatch at {freq} Hz: {a} vs {b}"
            );
        }
        // Restoring the nominal values restores the nominal response.
        mna.reset_values();
        let nominal = Mna::new(&c);
        for freq in [1.0, 1000.0, 20_000.0] {
            let a = mna.gain("Vin", vout, freq).unwrap();
            let b = nominal.gain("Vin", vout, freq).unwrap();
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn patching_updates_cached_frequency_systems() {
        let (c, vout) = rc_lowpass();
        let cap = c.find_element("C").unwrap();
        let mna = Mna::new(&c);
        // Populate the per-frequency cache at nominal values...
        let g_nominal = mna.gain("Vin", vout, 1000.0).unwrap();
        assert!(mna.cached_system_count() >= 1);
        // ...then patch: the cached system must be updated, not stale.
        mna.scale_value(cap, 10.0);
        let g_patched = mna.gain("Vin", vout, 1000.0).unwrap();
        assert!(
            g_patched < g_nominal / 2.0,
            "10× capacitor must pull the 1 kHz gain well down ({g_nominal} -> {g_patched})"
        );
        let mut shifted = c.clone();
        shifted.scale_value(cap, 10.0);
        let reference = Mna::new(&shifted).gain("Vin", vout, 1000.0).unwrap();
        assert!((g_patched - reference).abs() < 1e-12);
    }

    #[test]
    fn deviated_solves_reuse_the_nominal_factorization() {
        let (c, vout) = rc_lowpass();
        let r = c.find_element("R").unwrap();
        let cap = c.find_element("C").unwrap();
        let mna = Mna::new(&c);
        let _ = mna.gain("Vin", vout, 1000.0).unwrap();
        let _ = mna.gain("Vin", vout, 0.0).unwrap();
        let warm = mna.solver_stats();
        mna.scale_value(r, 3.0);
        mna.scale_value(cap, 0.5);
        let _ = mna.gain("Vin", vout, 1000.0).unwrap();
        // At DC only the resistor deviation enters the matrix.
        let _ = mna.gain("Vin", vout, 0.0).unwrap();
        let stats = mna.solver_stats();
        assert_eq!(stats.factorizations, warm.factorizations);
        assert_eq!(stats.assemblies, warm.assemblies);
        assert_eq!(stats.updates, warm.updates + 2);
        // Back at nominal, solves take the plain path again.
        mna.reset_values();
        let _ = mna.gain("Vin", vout, 1000.0).unwrap();
        assert_eq!(mna.solver_stats().updates, stats.updates);
    }

    #[test]
    fn repeated_probes_at_cached_frequencies_hit_the_memo() {
        let (c, vout) = rc_lowpass();
        let cap = c.find_element("C").unwrap();
        let mna = Mna::new(&c);
        let freqs = [10.0, 1000.0, 1.0e5];
        // The first solve per frequency factors and fills the memo.
        for f in freqs {
            let _ = mna.gain("Vin", vout, f).unwrap();
        }
        let warm = mna.solver_stats();
        assert_eq!(warm.factorizations, 3);
        assert_eq!(warm.memo_hits, 0);
        let probes = [0.5, 1.7, 3.0, 0.9];
        for factor in probes {
            mna.set_value(cap, c.value(cap) * factor);
            for f in freqs {
                let fast = mna.gain("Vin", vout, f).unwrap();
                let mut deviated = c.clone();
                deviated.set_value(cap, c.value(cap) * factor);
                let fresh = Mna::new(&deviated).gain("Vin", vout, f).unwrap();
                assert!((fast - fresh).abs() < 1e-12 * fresh, "{factor} at {f} Hz");
            }
        }
        mna.reset_values();
        let stats = mna.solver_stats();
        let solves = (probes.len() * freqs.len()) as u64;
        assert_eq!(stats.factorizations, warm.factorizations);
        assert_eq!(stats.solves, warm.solves + solves);
        assert_eq!(stats.memo_hits, warm.memo_hits + solves);
        assert_eq!(stats.updates, warm.updates + solves);
        // Another drive misses the memo once, then hits it again.
        let _ = mna.solve_single_source("Vin", 2.0, 1000.0).unwrap();
        let _ = mna.solve_single_source("Vin", 2.0, 1000.0).unwrap();
        // All-source drives are never memoized.
        let _ = mna.solve_ac(1000.0).unwrap();
        assert_eq!(mna.solver_stats().memo_hits, stats.memo_hits + 1);
    }

    #[test]
    fn zero_valued_element_is_singular_not_poisonous() {
        // Setting a resistor to exactly 0.0 makes its conductance infinite;
        // solving in that state must be a clean singular-matrix error, and
        // restoring a finite value must fully recover the engine (no NaN
        // left behind by the inf − inf delta).
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let mid = c.node("mid");
        c.voltage_source("Vin", vin, Circuit::GROUND, 10.0, 1.0);
        c.resistor("R1", vin, mid, 2.0e3);
        c.resistor("R2", mid, Circuit::GROUND, 3.0e3);
        let r1 = c.find_element("R1").unwrap();
        let mna = Mna::new(&c);
        let nominal = mna.solve_dc().unwrap().voltage(mid).re;
        mna.set_value(r1, 0.0);
        assert!(matches!(
            mna.solve_dc(),
            Err(AnalogError::SingularMatrix { .. })
        ));
        mna.set_value(r1, 2.0e3);
        let restored = mna.solve_dc().unwrap().voltage(mid).re;
        assert!(
            (restored - nominal).abs() < 1e-12,
            "engine must recover exactly after a through-zero patch: {restored} vs {nominal}"
        );
    }

    #[test]
    fn cache_eviction_is_lru_not_wholesale() {
        let (c, vout) = rc_lowpass();
        let mna = Mna::new(&c);
        // Fill well past capacity with distinct frequencies.
        let total = MAX_CACHED_SYSTEMS + 88;
        for i in 0..total {
            let _ = mna.gain("Vin", vout, 100.0 + i as f64).unwrap();
        }
        assert_eq!(
            mna.cached_system_count(),
            MAX_CACHED_SYSTEMS,
            "cache stays bounded at capacity"
        );
        // The most recent frequency is still warm: re-solving it must not
        // assemble a new system.
        let assemblies = mna.solver_stats().assemblies;
        let _ = mna.gain("Vin", vout, 100.0 + (total - 1) as f64).unwrap();
        assert_eq!(mna.solver_stats().assemblies, assemblies);
        // The oldest frequency was the LRU victim: re-solving it assembles.
        let _ = mna.gain("Vin", vout, 100.0).unwrap();
        assert_eq!(mna.solver_stats().assemblies, assemblies + 1);
        // A wholesale clear would have evicted the warm tail too; LRU keeps
        // it — every recent frequency re-solves without assembly.
        let assemblies = mna.solver_stats().assemblies;
        for i in (total - 100)..total {
            let _ = mna.gain("Vin", vout, 100.0 + i as f64).unwrap();
        }
        assert_eq!(
            mna.solver_stats().assemblies,
            assemblies,
            "the recent working set must survive eviction pressure"
        );
    }

    /// Per-point reference for [`Mna::sweep_gains`]: one [`Mna::gain`] per
    /// grid frequency, as bits, up to the first error.
    fn point_bits(
        mna: &Mna<'_>,
        output: NodeId,
        freqs: &[f64],
    ) -> Result<Vec<(u64, u64)>, AnalogError> {
        freqs
            .iter()
            .map(|&f| Ok((f.to_bits(), mna.gain("Vin", output, f)?.to_bits())))
            .collect()
    }

    fn bits(gains: Result<Vec<(f64, f64)>, AnalogError>) -> Result<Vec<(u64, u64)>, AnalogError> {
        gains.map(|g| g.iter().map(|(f, g)| (f.to_bits(), g.to_bits())).collect())
    }

    /// Every passive element of the Figure-8 board, the Figure-2 band-pass
    /// and the Table-3 Chebyshev filter, deviated alone, at every output
    /// the filter's parameters observe: the grid table answers each sweep
    /// point bit-identically to a per-point solve — on the parameter sweep
    /// and on the same grid with DC in front, where a `C` deviation drops
    /// out of the matrix.
    #[test]
    fn grid_table_matches_per_point_gains_bit_for_bit() {
        const DEVIATIONS: [f64; 6] = [-0.999, -0.5, -0.01, 0.01, 0.3, 5.0];
        for filter in [
            crate::filters::state_variable_filter(),
            crate::filters::second_order_band_pass(),
            crate::filters::fifth_order_chebyshev(),
        ] {
            let circuit = filter.circuit();
            let sweep = filter.parameters()[0].sweep;
            let freqs = sweep.frequencies();
            let with_dc: Vec<f64> = [0.0].into_iter().chain(freqs.iter().copied()).collect();
            let mut outputs: Vec<NodeId> = filter
                .parameters()
                .iter()
                .map(|p| p.output_node(circuit).unwrap())
                .collect();
            outputs.sort();
            outputs.dedup();
            let mna = Mna::new(circuit);
            for element in circuit.passive_elements() {
                for deviation in DEVIATIONS {
                    mna.set_value(element, circuit.value(element) * (1.0 + deviation));
                    for &output in &outputs {
                        let hits = mna.solver_stats().table_hits;
                        assert_eq!(
                            bits(mna.sweep_gains("Vin", output, &sweep)),
                            point_bits(&mna, output, &freqs),
                            "{} {} {deviation}",
                            filter.name(),
                            circuit.element(element).name
                        );
                        let dc = mna.grid_gains("Vin", output, [u64::MAX; 3], || with_dc.clone());
                        assert_eq!(
                            bits(dc),
                            point_bits(&mna, output, &with_dc),
                            "{} {} {deviation} with DC",
                            filter.name(),
                            circuit.element(element).name
                        );
                        let answered = mna.solver_stats().table_hits - hits;
                        assert_eq!(answered, (freqs.len() + with_dc.len()) as u64);
                    }
                }
                mna.reset_values();
            }
        }
    }

    /// The table fails where the per-point solve fails, with the same
    /// error, and hands every case it does not cover — no deviation, two
    /// deviated elements, a ground output — to the per-point solves.
    #[test]
    fn grid_table_errors_and_fallbacks_match_the_per_point_path() {
        let board = crate::filters::state_variable_filter();
        let circuit = board.circuit();
        let sweep = board.parameters()[0].sweep;
        let freqs = sweep.frequencies();
        let v2 = circuit.find_node("v2").unwrap();
        let r8 = circuit.find_element("R8").unwrap();
        let c1 = circuit.find_element("C1").unwrap();
        let mna = Mna::new(circuit);
        // A zero-valued resistor has an infinite conductance deviation.
        mna.set_value(r8, 0.0);
        let table = mna.sweep_gains("Vin", v2, &sweep);
        assert!(matches!(table, Err(AnalogError::SingularMatrix { .. })));
        assert_eq!(bits(table), point_bits(&mna, v2, &freqs));
        // Fallbacks answer per point and leave the table alone.
        let hits = mna.solver_stats().table_hits;
        mna.reset_values();
        assert_eq!(
            bits(mna.sweep_gains("Vin", v2, &sweep)),
            point_bits(&mna, v2, &freqs)
        );
        mna.set_value(r8, circuit.value(r8) * 1.3);
        mna.set_value(c1, circuit.value(c1) * 0.8);
        assert_eq!(
            bits(mna.sweep_gains("Vin", v2, &sweep)),
            point_bits(&mna, v2, &freqs)
        );
        mna.set_value(c1, circuit.value(c1));
        assert_eq!(
            bits(mna.sweep_gains("Vin", Circuit::GROUND, &sweep)),
            point_bits(&mna, Circuit::GROUND, &freqs)
        );
        assert_eq!(mna.solver_stats().table_hits, hits);
        assert!(matches!(
            mna.sweep_gains("nope", v2, &sweep),
            Err(AnalogError::UnknownElement { .. })
        ));
    }

    /// A new element, output or sweep refills the table; the same key
    /// under another value re-uses it.
    #[test]
    fn grid_table_is_refilled_on_a_key_change() {
        let board = crate::filters::state_variable_filter();
        let circuit = board.circuit();
        let sweep = board.parameters()[0].sweep;
        let coarse = SweepConfig {
            points_per_decade: 10,
            ..sweep
        };
        let v1 = circuit.find_node("v1").unwrap();
        let v2 = circuit.find_node("v2").unwrap();
        let r8 = circuit.find_element("R8").unwrap();
        let c2 = circuit.find_element("C2").unwrap();
        let mna = Mna::new(circuit);
        let key = || mna.engine.borrow().grid.key;
        let mut keys = Vec::new();
        for (element, factor, output, config) in [
            (r8, 1.2, v2, sweep),
            (r8, 0.7, v2, sweep),
            (c2, 0.7, v2, sweep),
            (c2, 0.7, v1, sweep),
            (c2, 0.7, v1, coarse),
        ] {
            mna.reset_values();
            mna.set_value(element, circuit.value(element) * factor);
            assert_eq!(
                bits(mna.sweep_gains("Vin", output, &config)),
                point_bits(&mna, output, &config.frequencies())
            );
            keys.push(key().unwrap());
        }
        assert_eq!(keys[0], keys[1]);
        for pair in keys[1..].windows(2) {
            assert_ne!(pair[0], pair[1]);
        }
        assert_eq!(keys[4].grid[2], 10);
        mna.clear_system_cache();
        assert_eq!(key(), None);
    }

    /// Table answers keep the grid's factors most recently used, so the
    /// off-grid solves of peak and cut-off refinements evict each other,
    /// not the grid: the next element's table needs no new factorization.
    #[test]
    fn grid_table_keeps_its_factors_resident() {
        let board = crate::filters::state_variable_filter();
        let circuit = board.circuit();
        let sweep = board.parameters()[0].sweep;
        let v2 = circuit.find_node("v2").unwrap();
        let r8 = circuit.find_element("R8").unwrap();
        let c1 = circuit.find_element("C1").unwrap();
        let mna = Mna::new(circuit);
        mna.set_value(r8, circuit.value(r8) * 1.1);
        mna.sweep_gains("Vin", v2, &sweep).unwrap();
        let grid = mna.solver_stats().factorizations;
        assert_eq!(grid, sweep.frequencies().len() as u64);
        // 20 probes × 40 fresh off-grid frequencies: more than the cache
        // holds beside the grid.
        for probe in 0..20 {
            mna.set_value(r8, circuit.value(r8) * (1.0 + 0.01 * (probe + 1) as f64));
            mna.sweep_gains("Vin", v2, &sweep).unwrap();
            for i in 0..40 {
                let f = 1234.5 + (40 * probe + i) as f64;
                mna.gain("Vin", v2, f).unwrap();
            }
        }
        let stats = mna.solver_stats();
        assert_eq!(stats.factorizations, grid + 800);
        mna.reset_values();
        mna.set_value(c1, circuit.value(c1) * 0.9);
        mna.sweep_gains("Vin", v2, &sweep).unwrap();
        assert_eq!(mna.solver_stats().factorizations, stats.factorizations);
    }

    #[test]
    fn repeated_solves_reuse_assembly_and_factorization() {
        let (c, vout) = rc_lowpass();
        let mna = Mna::new(&c);
        for _ in 0..5 {
            let _ = mna.gain("Vin", vout, 1000.0).unwrap();
            let _ = mna.solve_ac(1000.0).unwrap();
        }
        let stats = mna.solver_stats();
        assert_eq!(stats.solves, 10);
        // One distinct frequency: one assembly, one factorization.
        assert_eq!(stats.assemblies, 1);
        assert_eq!(stats.factorizations, 1);
        assert_eq!(mna.cached_system_count(), 1);
        mna.clear_system_cache();
        assert_eq!(mna.cached_system_count(), 0);
        // Next solve re-assembles.
        let _ = mna.solve_ac(1000.0).unwrap();
        assert_eq!(mna.solver_stats().assemblies, 2);
    }
}
