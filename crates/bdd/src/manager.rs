//! The BDD manager: complement-edged arena node store, open-addressed
//! unique table, fixed-size lossy operation caches and a mark-and-sweep
//! node-level garbage collector.
//!
//! ## Engine layout
//!
//! * **Complement edges** — a [`Bdd`] is a tagged pointer: bit 0 negates the
//!   referenced function.  Only one polarity of each function is stored
//!   (canonical invariant: the high/then edge of a stored node is never
//!   complemented), which roughly halves unique-table population on
//!   negation-heavy workloads and makes [`BddManager::not`] an O(1) bit
//!   flip.  There is a single terminal node; `false` is its complement.
//! * **Node arena** — every internal node lives in one contiguous
//!   `Vec<Node>` indexed by [`Bdd::index`]; index 0 is the terminal.  Child
//!   lookups are a single bounds-checked array access.  Nodes freed by the
//!   garbage collector go onto a free list and their slots are reused, so
//!   live handles are never renumbered.
//! * **Unique table** — hash consing uses an open-addressed, linear-probed
//!   table of node indices keyed by an FNV-1a hash of `(var, low, high)`
//!   (rsdd/OBDDimal style) instead of a SipHash `HashMap<Node, Bdd>`: no
//!   per-entry heap boxes, no DoS-resistant (slow) hashing, and resizing
//!   rehashes plain `u32`s.  [`BddManager::gc`] rebuilds it over the
//!   surviving nodes.
//! * **Apply / ITE caches** — memoization uses direct-mapped, fixed-size
//!   lossy caches: a colliding entry simply overwrites the previous one.
//!   This bounds cache memory for arbitrarily long ATPG runs while keeping
//!   the hit rate high for the clustered access patterns of `apply`/`ite`
//!   recursions.  Restriction ([`BddManager::restrict`]) and the one-pass
//!   Boolean difference ([`BddManager::boolean_difference`]) share the
//!   apply cache under their own op codes, so every cofactoring recursion
//!   visits each node once instead of each path.
//!   [`BddManager::try_sat_one_and`] reads the cache to answer operand
//!   pairs and stores each pair it proves disjoint as `And(f, g) → 0`, a
//!   true AND fact.  Hit/miss counters are exposed
//!   through [`BddManager::stats`]; the caches are invalidated wholesale by
//!   [`BddManager::gc`] (freed node indices may be reused) and can be reset
//!   manually with [`BddManager::clear_caches`].
//!
//! ## Garbage collection
//!
//! External [`Bdd`] handles are plain `Copy` indices, so the manager cannot
//! observe drops; instead, long-lived functions are registered as **counted
//! roots** with [`BddManager::protect`] / [`BddManager::unprotect`].
//! [`BddManager::gc`] marks every node reachable from the registered roots
//! and sweeps the rest onto the free list.  Collection runs only at the
//! *safe points* the caller chooses: explicit [`BddManager::gc`] /
//! [`BddManager::gc_if_above`] calls and sifting
//! ([`BddManager::try_sift`]).  No Boolean operation ever collects, so
//! every handle stays valid until the caller requests one of those; across
//! such a call, any handle the caller keeps must be protected (or
//! reachable from a protected root).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use msatpg_exec::CancelToken;

use crate::budget::{BddBudget, BddError};
use crate::cube::{Assignment, Cube, CubeIter};
use crate::node::{Bdd, Node, VarId};

/// Operation codes used as keys of the apply cache.
///
/// `Or` is not in the list: with complement edges it is derived as
/// `!(AND(!f, !g))` for free, so conjunction and disjunction share one set
/// of cache entries.  `Restrict` and `Diff` are unary in `f`; their second
/// key word encodes the variable (`(var << 1) | value` for a restriction,
/// `var` for a Boolean difference).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Op {
    And,
    Xor,
    Restrict,
    Diff,
}

/// log2 of the number of slots in the apply cache.
const APPLY_CACHE_BITS: usize = 14;
/// log2 of the number of slots in the ITE cache.
const ITE_CACHE_BITS: usize = 14;
/// Initial capacity (slots) of the unique table; always a power of two.
const UNIQUE_INITIAL_SLOTS: usize = 1 << 10;
/// Sentinel marking an empty cache slot / unique-table slot.
const EMPTY: u32 = u32::MAX;
/// How many recursion steps pass between polls of an armed
/// [`CancelToken`] (amortizes the atomic load / deadline clock read).
const CANCEL_POLL_INTERVAL: u64 = 256;
/// `Node::var` sentinel of a swept (free-listed) arena slot.
pub(crate) const FREED: VarId = VarId::MAX - 1;

/// FNV-1a over a few words, with a final avalanche so the low bits (used to
/// index power-of-two tables) depend on every input bit.
#[inline]
fn fnv_mix(words: [u32; 3]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        h ^= u64::from(w);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 29;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^ (h >> 32)
}

/// Unwraps a fallible-operation result on behalf of the infallible wrapper
/// APIs.  With no budget and no cancel token armed the error is impossible;
/// with one armed, calling an infallible operation is a contract violation
/// (the caller opted into resource governance but ignored the fallible
/// API), reported as a panic at the caller's site.
#[track_caller]
fn expect_ok(result: Result<Bdd, BddError>) -> Bdd {
    match result {
        Ok(f) => f,
        Err(err) => panic!(
            "infallible BDD operation interrupted: {err}; \
             use the try_* APIs when a budget or cancel token is armed"
        ),
    }
}

/// Hit/miss counters of one memoization cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of cache probes.
    pub lookups: u64,
    /// Number of probes that returned a previously computed result.
    pub hits: u64,
}

impl CacheStats {
    /// Number of probes that missed.
    pub fn misses(&self) -> u64 {
        self.lookups - self.hits
    }

    /// Fraction of lookups served from the cache (`0.0` when unused).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Statistics about the state of a [`BddManager`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BddStats {
    /// Number of live internal nodes (excluding the terminal).
    pub node_count: usize,
    /// High-water mark of `node_count` over the manager's lifetime (the
    /// peak unique-table population).
    pub peak_live_nodes: usize,
    /// Total internal nodes ever created (free-list reuses count again).
    pub created_nodes: u64,
    /// Arena slots currently on the free list (swept, awaiting reuse).
    pub free_nodes: usize,
    /// Number of completed [`BddManager::gc`] passes.
    pub gc_runs: u64,
    /// Total nodes reclaimed across all GC passes.
    pub gc_reclaimed: u64,
    /// Number of registered root entries (distinct protected nodes).
    pub protected_roots: usize,
    /// Number of declared variables.
    pub var_count: usize,
    /// Number of entries currently stored in the apply and ITE caches.
    pub cache_entries: usize,
    /// Total slot capacity of the apply and ITE caches (fixed).
    pub cache_capacity: usize,
    /// Slot capacity of the unique (hash-consing) table.
    pub unique_capacity: usize,
    /// Apply-cache hit/miss counters.
    pub apply_cache: CacheStats,
    /// ITE-cache hit/miss counters.
    pub ite_cache: CacheStats,
}

impl fmt::Display for BddStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes live (peak {}), {} variables, {} GC runs ({} reclaimed), \
             {}/{} cached results (apply {:.0}% / ite {:.0}% hits)",
            self.node_count,
            self.peak_live_nodes,
            self.var_count,
            self.gc_runs,
            self.gc_reclaimed,
            self.cache_entries,
            self.cache_capacity,
            self.apply_cache.hit_rate() * 100.0,
            self.ite_cache.hit_rate() * 100.0,
        )
    }
}

/// Outcome of one [`BddManager::gc`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Live internal nodes before the pass.
    pub live_before: usize,
    /// Live internal nodes after the pass.
    pub live_after: usize,
    /// Nodes swept onto the free list by this pass
    /// (`live_before - live_after`).
    pub reclaimed: usize,
}

/// One slot of the direct-mapped apply cache.
#[derive(Clone, Copy)]
struct ApplyEntry {
    f: u32,
    g: u32,
    op: u8,
    result: u32,
}

const APPLY_EMPTY: ApplyEntry = ApplyEntry {
    f: EMPTY,
    g: EMPTY,
    op: u8::MAX,
    result: EMPTY,
};

/// One slot of the direct-mapped ITE cache.
#[derive(Clone, Copy)]
struct IteEntry {
    f: u32,
    g: u32,
    h: u32,
    result: u32,
}

const ITE_EMPTY: IteEntry = IteEntry {
    f: EMPTY,
    g: EMPTY,
    h: EMPTY,
    result: EMPTY,
};

/// Hasher of the memo keys of [`BddManager::products_equal`]: [`fnv_mix`]
/// over the key words instead of SipHash, which would cost more than the
/// search step it memoizes.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        let h = self.0;
        self.0 = fnv_mix([
            h as u32 ^ (h >> 32) as u32,
            word as u32,
            (word >> 32) as u32,
        ]);
    }
}

/// Quadruples `(p, q, r, s)`, packed two handles per word, proven to satisfy
/// `p · q = r · s` by one [`BddManager::try_sat_one_and`] call.
type EqualProducts = HashSet<(u64, u64), BuildHasherDefault<WordHasher>>;

/// One assignment of the walk of [`BddManager::try_sat_one_and`], in level
/// order.
#[derive(Clone, Copy)]
struct WalkStep {
    var: VarId,
    value: bool,
    /// `Some([a0, b0, a1, b1])` for a provisional `var = 1` taken at the
    /// pair `(a, b)` because `a1 · b1 ≠ 0`: the canonical product skips
    /// `var`, and `sat_one` leaves it open, exactly when `a0 · b0 = a1 · b1`.
    cofactors: Option<[Bdd; 4]>,
}

/// Open-addressed, linear-probed hash-consing table mapping node contents to
/// their arena index.
pub(crate) struct UniqueTable {
    /// Node indices; `EMPTY` marks a vacant slot.  Length is a power of two.
    slots: Vec<u32>,
    pub(crate) len: usize,
}

impl UniqueTable {
    fn new() -> Self {
        Self::with_slots(UNIQUE_INITIAL_SLOTS)
    }

    fn with_slots(slots: usize) -> Self {
        UniqueTable {
            slots: vec![EMPTY; slots],
            len: 0,
        }
    }

    /// A fresh table sized so `live` entries sit under 50 % load.
    pub(crate) fn for_live(live: usize) -> Self {
        let want = (live.max(1) * 2).next_power_of_two();
        Self::with_slots(want.max(UNIQUE_INITIAL_SLOTS))
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Finds the node `(var, low, high)` in the table, or the vacant slot
    /// where it belongs.  Returns `Ok(node_index)` or `Err(slot_index)`.
    #[inline]
    pub(crate) fn probe(
        &self,
        nodes: &[Node],
        var: VarId,
        low: Bdd,
        high: Bdd,
    ) -> Result<u32, usize> {
        let mask = self.mask();
        let mut slot = fnv_mix([var, low.0, high.0]) as usize & mask;
        loop {
            let idx = self.slots[slot];
            if idx == EMPTY {
                return Err(slot);
            }
            let node = &nodes[idx as usize];
            if node.var == var && node.low == low && node.high == high {
                return Ok(idx);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Inserts a node index at a vacant slot previously returned by
    /// [`UniqueTable::probe`], growing (and rehashing) at 75 % load.
    fn insert(&mut self, nodes: &[Node], slot: usize, idx: u32) {
        self.slots[slot] = idx;
        self.len += 1;
        if self.len * 4 >= self.slots.len() * 3 {
            self.grow(nodes);
        }
    }

    /// Inserts a node index into whatever slot its hash chain ends at (used
    /// when rebuilding after a sweep; the caller sizes the table up front).
    pub(crate) fn insert_rehash(&mut self, nodes: &[Node], idx: u32) {
        let node = &nodes[idx as usize];
        let mask = self.mask();
        let mut slot = fnv_mix([node.var, node.low.0, node.high.0]) as usize & mask;
        while self.slots[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = idx;
        self.len += 1;
    }

    fn grow(&mut self, nodes: &[Node]) {
        let new_cap = self.slots.len() * 2;
        let mut new_slots = vec![EMPTY; new_cap];
        let mask = new_cap - 1;
        for &idx in self.slots.iter().filter(|&&i| i != EMPTY) {
            let node = &nodes[idx as usize];
            let mut slot = fnv_mix([node.var, node.low.0, node.high.0]) as usize & mask;
            while new_slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            new_slots[slot] = idx;
        }
        self.slots = new_slots;
    }
}

/// A reduced ordered BDD node store with complement edges, memoized Boolean
/// operations and a mark-and-sweep garbage collector.
///
/// Variables are declared with [`BddManager::var`] (by name) or
/// [`BddManager::new_var`], and their declaration order is the *initial*
/// global variable ordering.  Reordering (adjacent-level swap and sifting,
/// see [`BddManager::try_sift`]) permutes the variable-to-level maps
/// without renumbering any [`VarId`] or invalidating any handle.  Handles
/// stay valid for the manager's lifetime unless garbage collection is
/// requested; see the crate docs for the root registry.
///
/// # Example
///
/// ```
/// use msatpg_bdd::BddManager;
///
/// let mut m = BddManager::new();
/// let x = m.var("x");
/// let y = m.var("y");
/// let f = m.or(x, y);
/// let g = m.not(f); // O(1): complement edges store only one polarity
/// let h = m.nor(x, y);
/// assert_eq!(g, h); // canonical representation
///
/// // Reclaim everything not reachable from a registered root.
/// m.protect(f);
/// let report = m.gc();
/// assert_eq!(report.live_after, m.size(f));
/// ```
pub struct BddManager {
    pub(crate) nodes: Vec<Node>,
    /// Arena indices swept by the collector, ready for reuse.
    pub(crate) free: Vec<u32>,
    pub(crate) unique: UniqueTable,
    apply_cache: Vec<ApplyEntry>,
    ite_cache: Vec<IteEntry>,
    apply_stats: CacheStats,
    ite_stats: CacheStats,
    names: Vec<String>,
    by_name: HashMap<String, VarId>,
    /// Ordering position of each declared variable (`var2level[var]`);
    /// identity until a reorder permutes it.
    pub(crate) var2level: Vec<u32>,
    /// Inverse permutation: the variable sitting at each ordering position.
    pub(crate) level2var: Vec<VarId>,
    /// Counted external roots: node index -> registration count.
    roots: HashMap<u32, usize>,
    /// Resource quotas enforced by the fallible (`try_*`) operations.
    budget: BddBudget,
    /// Recursion steps counted since the last [`BddManager::reset_steps`].
    steps_used: u64,
    /// Cooperative cancellation signal polled at operation entry and every
    /// [`CANCEL_POLL_INTERVAL`] recursion steps.
    cancel: Option<CancelToken>,
    /// Walk buffer of [`BddManager::try_sat_one_and`], reused across calls.
    walk: Vec<WalkStep>,
    /// Value of each variable on the current walk (`0` unassigned, `1`
    /// false, `2` true); all `0` between calls.
    walk_values: Vec<u8>,
    peak_live: usize,
    created: u64,
    gc_runs: u64,
    gc_reclaimed: u64,
}

impl fmt::Debug for BddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BddManager")
            .field("live_nodes", &self.live_node_count())
            .field("vars", &self.names.len())
            .field("gc_runs", &self.gc_runs)
            .finish()
    }
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Creates an empty manager containing only the terminal node.
    pub fn new() -> Self {
        let terminal = Node {
            var: VarId::MAX,
            low: Bdd::ZERO,
            high: Bdd::ONE,
        };
        // Index 0 is the single terminal; its stored contents are never
        // inspected, but the arena slot must exist.
        BddManager {
            nodes: vec![terminal],
            free: Vec::new(),
            unique: UniqueTable::new(),
            apply_cache: vec![APPLY_EMPTY; 1 << APPLY_CACHE_BITS],
            ite_cache: vec![ITE_EMPTY; 1 << ITE_CACHE_BITS],
            apply_stats: CacheStats::default(),
            ite_stats: CacheStats::default(),
            names: Vec::new(),
            by_name: HashMap::new(),
            var2level: Vec::new(),
            level2var: Vec::new(),
            roots: HashMap::new(),
            budget: BddBudget::UNLIMITED,
            steps_used: 0,
            cancel: None,
            walk: Vec::new(),
            walk_values: Vec::new(),
            peak_live: 0,
            created: 0,
            gc_runs: 0,
            gc_reclaimed: 0,
        }
    }

    /// The constant-false function.
    #[inline]
    pub fn zero(&self) -> Bdd {
        Bdd::ZERO
    }

    /// The constant-true function.
    #[inline]
    pub fn one(&self) -> Bdd {
        Bdd::ONE
    }

    /// Converts a `bool` into the corresponding constant function.
    #[inline]
    pub fn constant(&self, value: bool) -> Bdd {
        if value {
            Bdd::ONE
        } else {
            Bdd::ZERO
        }
    }

    /// Number of declared variables.
    #[inline]
    pub fn var_count(&self) -> usize {
        self.names.len()
    }

    /// Number of live internal nodes (the current unique-table population).
    #[inline]
    pub fn live_node_count(&self) -> usize {
        self.nodes.len() - 1 - self.free.len()
    }

    /// Returns statistics about the manager, including cache hit rates and
    /// garbage-collection counters.
    pub fn stats(&self) -> BddStats {
        let apply_entries = self.apply_cache.iter().filter(|e| e.op != u8::MAX).count();
        let ite_entries = self.ite_cache.iter().filter(|e| e.f != EMPTY).count();
        BddStats {
            node_count: self.live_node_count(),
            peak_live_nodes: self.peak_live,
            created_nodes: self.created,
            free_nodes: self.free.len(),
            gc_runs: self.gc_runs,
            gc_reclaimed: self.gc_reclaimed,
            protected_roots: self.roots.len(),
            var_count: self.names.len(),
            cache_entries: apply_entries + ite_entries,
            cache_capacity: self.apply_cache.len() + self.ite_cache.len(),
            unique_capacity: self.unique.slots.len(),
            apply_cache: self.apply_stats,
            ite_cache: self.ite_stats,
        }
    }

    /// Empties the apply and ITE caches (the node arena and unique table are
    /// untouched, so every existing [`Bdd`] stays valid).  [`BddManager::gc`]
    /// does this implicitly; calling it directly mainly serves to drop stale
    /// entries and restart hit-rate measurement via
    /// [`BddManager::reset_cache_stats`].
    pub fn clear_caches(&mut self) {
        self.apply_cache.fill(APPLY_EMPTY);
        self.ite_cache.fill(ITE_EMPTY);
    }

    /// Resets the cache hit/miss counters to zero.
    pub fn reset_cache_stats(&mut self) {
        self.apply_stats = CacheStats::default();
        self.ite_stats = CacheStats::default();
    }

    // ------------------------------------------------------------------
    // Root registry and garbage collection
    // ------------------------------------------------------------------

    /// Registers `f` as an external root: the node (and everything reachable
    /// from it) survives every garbage collection until a matching
    /// [`BddManager::unprotect`].  Registrations are counted, so protecting
    /// the same function twice requires two unprotects.  Terminals need no
    /// protection and are ignored.
    pub fn protect(&mut self, f: Bdd) {
        if !f.is_terminal() {
            *self.roots.entry(f.index()).or_insert(0) += 1;
        }
    }

    /// Releases one registration of `f` made by [`BddManager::protect`].
    ///
    /// # Panics
    ///
    /// Panics if `f` is not currently registered (an unbalanced unprotect is
    /// always a caller bug that would otherwise surface as a dangling handle
    /// much later).
    pub fn unprotect(&mut self, f: Bdd) {
        if f.is_terminal() {
            return;
        }
        let count = self
            .roots
            .get_mut(&f.index())
            .expect("unprotect of a handle that was never protected");
        *count -= 1;
        if *count == 0 {
            self.roots.remove(&f.index());
        }
    }

    /// Number of distinct nodes currently registered as roots.
    pub fn protected_count(&self) -> usize {
        self.roots.len()
    }

    // ------------------------------------------------------------------
    // Resource governance: budgets and cancellation
    // ------------------------------------------------------------------

    /// Arms (or, with [`BddBudget::UNLIMITED`], disarms) resource quotas for
    /// the fallible `try_*` operations and resets the step counter.
    ///
    /// With a node quota armed, collect dead nodes at the caller's safe
    /// points ([`BddManager::gc_if_above`] with a watermark at or below the
    /// quota) so only reachable nodes count against it (see
    /// [`crate::budget`]).  While any quota (or a cancel token) is armed,
    /// use the `try_*` operations: the infallible ones panic when
    /// interrupted.
    pub fn set_budget(&mut self, budget: BddBudget) {
        self.budget = budget;
        self.steps_used = 0;
    }

    /// The currently armed budget.
    pub fn budget(&self) -> BddBudget {
        self.budget
    }

    /// Recursion steps consumed since the last [`BddManager::reset_steps`]
    /// (or [`BddManager::set_budget`]).
    pub fn steps_used(&self) -> u64 {
        self.steps_used
    }

    /// Resets the recursion-step counter, re-opening the full
    /// [`BddBudget::max_steps`] quota — the per-fault-target reset point of
    /// the ATPG drivers.
    pub fn reset_steps(&mut self) {
        self.steps_used = 0;
    }

    /// Arms (or disarms) a cooperative [`CancelToken`]: fallible operations
    /// poll it at entry and every `CANCEL_POLL_INTERVAL` (256) recursion steps,
    /// returning [`BddError::Cancelled`] once it has fired.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// The currently armed cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Per-recursion-step bookkeeping of the fallible operations: counts the
    /// step against [`BddBudget::max_steps`] and periodically polls the
    /// cancel token.
    #[inline]
    pub(crate) fn step(&mut self) -> Result<(), BddError> {
        self.steps_used += 1;
        if let Some(limit) = self.budget.max_steps {
            if self.steps_used > limit {
                return Err(BddError::StepBudgetExceeded { limit });
            }
        }
        if self.cancel.is_some() && self.steps_used % CANCEL_POLL_INTERVAL == 0 {
            self.poll_cancel()?;
        }
        Ok(())
    }

    /// Operation-entry poll of the armed cancel token.
    #[inline]
    pub(crate) fn poll_cancel(&self) -> Result<(), BddError> {
        match &self.cancel {
            Some(token) if token.is_cancelled() => Err(BddError::Cancelled),
            _ => Ok(()),
        }
    }

    /// Runs [`BddManager::gc`] only if the live-node count is at or above
    /// `watermark`; the cheap safe-point check for drivers that collect
    /// between operations.
    pub fn gc_if_above(&mut self, watermark: usize) -> Option<GcReport> {
        if self.live_node_count() >= watermark {
            Some(self.gc())
        } else {
            None
        }
    }

    /// Mark-and-sweep collection: marks every node reachable from the
    /// registered roots, sweeps all other internal nodes onto the free
    /// list, rebuilds the unique table over the survivors and invalidates
    /// the apply/ITE caches (freed indices may be reused, so stale cache
    /// entries would alias).
    ///
    /// Live handles are never renumbered: a protected function compares
    /// equal to itself, and to any post-collection rebuild of the same
    /// function, across arbitrarily many passes.
    pub fn gc(&mut self) -> GcReport {
        let live_before = self.live_node_count();
        let mut marked = vec![false; self.nodes.len()];
        marked[0] = true;
        let mut stack: Vec<u32> = self.roots.keys().copied().collect();
        while let Some(idx) = stack.pop() {
            if marked[idx as usize] {
                continue;
            }
            marked[idx as usize] = true;
            let node = self.nodes[idx as usize];
            if !node.low.is_terminal() {
                stack.push(node.low.index());
            }
            if !node.high.is_terminal() {
                stack.push(node.high.index());
            }
        }
        let mut reclaimed = 0usize;
        for idx in 1..self.nodes.len() {
            if !marked[idx] && self.nodes[idx].var != FREED {
                self.nodes[idx] = Node {
                    var: FREED,
                    low: Bdd::ONE,
                    high: Bdd::ONE,
                };
                self.free.push(idx as u32);
                reclaimed += 1;
            }
        }
        let live_after = live_before - reclaimed;
        self.unique = UniqueTable::for_live(live_after);
        for idx in 1..self.nodes.len() {
            if marked[idx] {
                self.unique.insert_rehash(&self.nodes, idx as u32);
            }
        }
        self.clear_caches();
        self.gc_runs += 1;
        self.gc_reclaimed += reclaimed as u64;
        GcReport {
            live_before,
            live_after,
            reclaimed,
        }
    }

    // ------------------------------------------------------------------
    // Variables and literals
    // ------------------------------------------------------------------

    /// Declares a new variable with an auto-generated name and returns the
    /// BDD of its positive literal.
    pub fn new_var(&mut self) -> Bdd {
        let name = format!("v{}", self.names.len());
        self.var(&name)
    }

    /// Returns the positive literal of the named variable, declaring the
    /// variable if it does not exist yet.
    ///
    /// Variables are ordered by declaration order.
    pub fn var(&mut self, name: &str) -> Bdd {
        let id = self.var_id(name);
        self.literal(id, true)
    }

    /// Returns (declaring if necessary) the [`VarId`] of the named variable.
    pub fn var_id(&mut self, name: &str) -> VarId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.names.len() as VarId;
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        // New variables enter the ordering at the bottom (deepest level),
        // which extends any reordered permutation without disturbing it.
        self.var2level.push(self.level2var.len() as u32);
        self.level2var.push(id);
        id
    }

    /// Looks up a variable id by name without declaring it.
    pub fn var_index(&self, name: &str) -> Option<VarId> {
        self.by_name.get(name).copied()
    }

    /// Name of a declared variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` was not declared by this manager.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.names[var as usize]
    }

    /// Names of all declared variables in ordering position.
    pub fn var_names(&self) -> &[String] {
        &self.names
    }

    /// Returns the literal `var` (if `positive`) or `!var`.
    ///
    /// With complement edges both polarities share one stored node, so this
    /// never allocates more than one node per variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` has not been declared.
    pub fn literal(&mut self, var: VarId, positive: bool) -> Bdd {
        assert!(
            (var as usize) < self.names.len(),
            "literal of undeclared variable {var}"
        );
        // One hash-consed node per variable: charge it against the node
        // quota like any other allocation, but stay infallible (a budget
        // too small for the variables themselves is a configuration bug).
        let positive_literal = expect_ok(self.mk_node(var, Bdd::ZERO, Bdd::ONE));
        if positive {
            positive_literal
        } else {
            !positive_literal
        }
    }

    /// Root variable of `f` (its identity, *not* its ordering position), or
    /// `VarId::MAX` for terminals.  Use [`BddManager::level_of`] to map a
    /// variable to its current position in the ordering.
    #[inline]
    pub fn root_var(&self, f: Bdd) -> VarId {
        if f.is_terminal() {
            VarId::MAX
        } else {
            self.nodes[f.index() as usize].var
        }
    }

    /// Current ordering position (level) of a declared variable: level 0 is
    /// the root end of the order.  Declaration order is the initial order;
    /// reordering permutes levels without renumbering [`VarId`]s.
    ///
    /// # Panics
    ///
    /// Panics if `var` was not declared by this manager.
    #[inline]
    pub fn level_of(&self, var: VarId) -> u32 {
        self.var2level[var as usize]
    }

    /// The variable currently sitting at ordering position `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not in `0..var_count()`.
    #[inline]
    pub fn var_at_level(&self, level: u32) -> VarId {
        self.level2var[level as usize]
    }

    /// The current variable order, root end first.
    pub fn var_order(&self) -> &[VarId] {
        &self.level2var
    }

    /// Level of the root variable of `f`, or `u32::MAX` for terminals (which
    /// sit below every variable).
    #[inline]
    pub(crate) fn root_level(&self, f: Bdd) -> u32 {
        if f.is_terminal() {
            u32::MAX
        } else {
            self.var2level[self.nodes[f.index() as usize].var as usize]
        }
    }

    /// Low (else) cofactor of a non-terminal node, with the handle's
    /// complement flag resolved (this is the *semantic* child: the function
    /// of `f` under `root_var(f) = 0`).
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal.
    pub fn low(&self, f: Bdd) -> Bdd {
        assert!(!f.is_terminal(), "terminal nodes have no children");
        self.children(f).0
    }

    /// High (then) cofactor of a non-terminal node, with the handle's
    /// complement flag resolved.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal.
    pub fn high(&self, f: Bdd) -> Bdd {
        assert!(!f.is_terminal(), "terminal nodes have no children");
        self.children(f).1
    }

    /// Semantic `(low, high)` cofactors of a non-terminal handle: the stored
    /// children with the handle's complement flag pushed down.
    #[inline]
    pub(crate) fn children(&self, f: Bdd) -> (Bdd, Bdd) {
        let node = self.nodes[f.index() as usize];
        let flip = f.is_complement();
        (node.low.toggled_if(flip), node.high.toggled_if(flip))
    }

    pub(crate) fn mk_node(&mut self, var: VarId, low: Bdd, high: Bdd) -> Result<Bdd, BddError> {
        if low == high {
            return Ok(low);
        }
        // Canonical complement form: the high edge is never complemented.
        // A would-be complemented then-edge stores the negated node instead
        // and returns its complement, so f and !f share one arena slot.
        if high.is_complement() {
            return Ok(!self.mk_raw(var, !low, !high)?);
        }
        self.mk_raw(var, low, high)
    }

    fn mk_raw(&mut self, var: VarId, low: Bdd, high: Bdd) -> Result<Bdd, BddError> {
        debug_assert!(!high.is_complement(), "canonical high edge is regular");
        match self.unique.probe(&self.nodes, var, low, high) {
            Ok(idx) => Ok(Bdd(idx << 1)),
            Err(slot) => {
                // The node-allocation point is where the node quota is
                // enforced: hash-consed hits above never grow the
                // population, so they stay infallible.
                if let Some(limit) = self.budget.max_live_nodes {
                    if self.live_node_count() >= limit {
                        return Err(BddError::NodeBudgetExceeded { limit });
                    }
                }
                let node = Node { var, low, high };
                let idx = match self.free.pop() {
                    Some(idx) => {
                        self.nodes[idx as usize] = node;
                        idx
                    }
                    None => {
                        let idx = self.nodes.len() as u32;
                        assert!(idx < u32::MAX >> 1, "BDD arena exhausted");
                        self.nodes.push(node);
                        idx
                    }
                };
                self.unique.insert(&self.nodes, slot, idx);
                self.created += 1;
                self.peak_live = self.peak_live.max(self.live_node_count());
                Ok(Bdd(idx << 1))
            }
        }
    }

    // ------------------------------------------------------------------
    // Boolean operations
    // ------------------------------------------------------------------

    /// Logical negation of `f` — an O(1) complement-flag flip (also
    /// available as `!f` on the handle itself).
    #[inline]
    pub fn not(&self, f: Bdd) -> Bdd {
        !f
    }

    /// Logical conjunction `f AND g`.
    ///
    /// Infallible wrapper over [`BddManager::try_and`]; panics if a budget
    /// or cancel token interrupts the operation.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        expect_ok(self.try_and(f, g))
    }

    /// Fallible conjunction: `Err` when the armed [`BddBudget`] or
    /// [`CancelToken`] interrupts the operation (the partial build is
    /// abandoned; manager and operands stay valid).
    pub fn try_and(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, BddError> {
        self.poll_cancel()?;
        self.and_rec(f, g)
    }

    /// Logical disjunction `f OR g` (derived: `!(!f AND !g)`, sharing the
    /// conjunction's cache entries).
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        !self.and(!f, !g)
    }

    /// Fallible disjunction (see [`BddManager::try_and`]).
    pub fn try_or(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, BddError> {
        Ok(!self.try_and(!f, !g)?)
    }

    /// Exclusive or `f XOR g`.
    ///
    /// Infallible wrapper over [`BddManager::try_xor`]; panics if a budget
    /// or cancel token interrupts the operation.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        expect_ok(self.try_xor(f, g))
    }

    /// Fallible exclusive or (see [`BddManager::try_and`]).
    pub fn try_xor(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, BddError> {
        self.poll_cancel()?;
        self.xor_rec(f, g)
    }

    /// `NOT (f AND g)`.
    pub fn nand(&mut self, f: Bdd, g: Bdd) -> Bdd {
        !self.and(f, g)
    }

    /// Fallible NAND (see [`BddManager::try_and`]).
    pub fn try_nand(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, BddError> {
        Ok(!self.try_and(f, g)?)
    }

    /// `NOT (f OR g)`.
    pub fn nor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.and(!f, !g)
    }

    /// Fallible NOR (see [`BddManager::try_and`]).
    pub fn try_nor(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, BddError> {
        self.try_and(!f, !g)
    }

    /// `NOT (f XOR g)` (logical equivalence).
    pub fn xnor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        !self.xor(f, g)
    }

    /// Fallible XNOR (see [`BddManager::try_and`]).
    pub fn try_xnor(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, BddError> {
        Ok(!self.try_xor(f, g)?)
    }

    /// Conjunction of an iterator of functions (`one()` for an empty input).
    pub fn and_all<I: IntoIterator<Item = Bdd>>(&mut self, fs: I) -> Bdd {
        expect_ok(self.try_and_all(fs))
    }

    /// Fallible conjunction of an iterator of functions (see
    /// [`BddManager::try_and`]).
    pub fn try_and_all<I: IntoIterator<Item = Bdd>>(&mut self, fs: I) -> Result<Bdd, BddError> {
        let mut acc = Bdd::ONE;
        for f in fs {
            acc = self.try_and(acc, f)?;
            if acc.is_zero() {
                break;
            }
        }
        Ok(acc)
    }

    /// Disjunction of an iterator of functions (`zero()` for an empty input).
    pub fn or_all<I: IntoIterator<Item = Bdd>>(&mut self, fs: I) -> Bdd {
        expect_ok(self.try_or_all(fs))
    }

    /// Fallible disjunction of an iterator of functions (see
    /// [`BddManager::try_and`]).
    pub fn try_or_all<I: IntoIterator<Item = Bdd>>(&mut self, fs: I) -> Result<Bdd, BddError> {
        let mut acc = Bdd::ZERO;
        for f in fs {
            acc = self.try_or(acc, f)?;
            if acc.is_one() {
                break;
            }
        }
        Ok(acc)
    }

    /// If-then-else: `(f AND g) OR (NOT f AND h)`.
    ///
    /// Infallible wrapper over [`BddManager::try_ite`]; panics if a budget
    /// or cancel token interrupts the operation.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        expect_ok(self.try_ite(f, g, h))
    }

    /// Fallible if-then-else (see [`BddManager::try_and`]).
    pub fn try_ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Result<Bdd, BddError> {
        self.poll_cancel()?;
        self.ite_rec(f, g, h)
    }

    /// Probes the apply cache for the key `(op, f, g)`: `Ok` with the
    /// memoized result on a hit, `Err` with the slot to fill on a miss.
    #[inline]
    fn apply_probe(&mut self, op: Op, f: u32, g: u32) -> Result<Bdd, usize> {
        let op = op as u8;
        let slot = (fnv_mix([f, g, u32::from(op)]) as usize) & (self.apply_cache.len() - 1);
        self.apply_stats.lookups += 1;
        let entry = self.apply_cache[slot];
        if entry.f == f && entry.g == g && entry.op == op {
            self.apply_stats.hits += 1;
            return Ok(Bdd(entry.result));
        }
        Err(slot)
    }

    /// Memoizes `result` for `(op, f, g)` in the slot [`Self::apply_probe`]
    /// returned.  Direct-mapped and lossy: colliding keys overwrite each
    /// other.
    #[inline]
    fn apply_store(&mut self, slot: usize, op: Op, f: u32, g: u32, result: Bdd) {
        self.apply_cache[slot] = ApplyEntry {
            f,
            g,
            op: op as u8,
            result: result.0,
        };
    }

    fn and_rec(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, BddError> {
        // Terminal short-circuits, including the complement-edge rule
        // f AND !f = 0 that needs no recursion at all.
        if f.is_zero() || g.is_zero() || f == !g {
            return Ok(Bdd::ZERO);
        }
        if f.is_one() || f == g {
            return Ok(g);
        }
        if g.is_one() {
            return Ok(f);
        }
        self.step()?;
        // Commutative: normalize operand order for better cache hit rate.
        let (f, g) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        let slot = match self.apply_probe(Op::And, f.0, g.0) {
            Ok(hit) => return Ok(hit),
            Err(slot) => slot,
        };
        // The split variable is the one at the shallower *level*; with a
        // reordered manager the numerically smaller VarId need not be it.
        let top = if self.root_level(f) <= self.root_level(g) {
            self.root_var(f)
        } else {
            self.root_var(g)
        };
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        let low = self.and_rec(f0, g0)?;
        let high = self.and_rec(f1, g1)?;
        let result = self.mk_node(top, low, high)?;
        self.apply_store(slot, Op::And, f.0, g.0, result);
        Ok(result)
    }

    fn xor_rec(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, BddError> {
        if f == g {
            return Ok(Bdd::ZERO);
        }
        if f == !g {
            return Ok(Bdd::ONE);
        }
        if f.is_zero() {
            return Ok(g);
        }
        if f.is_one() {
            return Ok(!g);
        }
        if g.is_zero() {
            return Ok(f);
        }
        if g.is_one() {
            return Ok(!f);
        }
        self.step()?;
        // XOR ignores complements up to output parity: strip both flags so
        // all four polarities of a pair share one cache entry.
        let parity = f.is_complement() != g.is_complement();
        let (f, g) = (f.regular(), g.regular());
        let (f, g) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        let slot = match self.apply_probe(Op::Xor, f.0, g.0) {
            Ok(hit) => return Ok(hit.toggled_if(parity)),
            Err(slot) => slot,
        };
        let top = if self.root_level(f) <= self.root_level(g) {
            self.root_var(f)
        } else {
            self.root_var(g)
        };
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        let low = self.xor_rec(f0, g0)?;
        let high = self.xor_rec(f1, g1)?;
        let result = self.mk_node(top, low, high)?;
        self.apply_store(slot, Op::Xor, f.0, g.0, result);
        Ok(result.toggled_if(parity))
    }

    fn ite_rec(&mut self, f: Bdd, mut g: Bdd, mut h: Bdd) -> Result<Bdd, BddError> {
        // Terminal cases.
        if f.is_one() {
            return Ok(g);
        }
        if f.is_zero() {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        // Operand coincidences reduce the triple to a binary operation that
        // shares the apply cache.
        if f == g {
            g = Bdd::ONE;
        } else if f == !g {
            g = Bdd::ZERO;
        }
        if f == h {
            h = Bdd::ZERO;
        } else if f == !h {
            h = Bdd::ONE;
        }
        if g.is_one() && h.is_zero() {
            return Ok(f);
        }
        if g.is_zero() && h.is_one() {
            return Ok(!f);
        }
        if g == h {
            return Ok(g);
        }
        if g.is_one() {
            return Ok(!self.and_rec(!f, !h)?); // f OR h
        }
        if g.is_zero() {
            return self.and_rec(!f, h);
        }
        if h.is_zero() {
            return self.and_rec(f, g);
        }
        if h.is_one() {
            return Ok(!self.and_rec(f, !g)?); // !f OR g
        }
        self.step()?;
        // Complement normalization for the cache: the condition and the
        // then-branch are stored regular, the result carries the parity.
        let (mut f, mut g, mut h) = (f, g, h);
        if f.is_complement() {
            std::mem::swap(&mut g, &mut h);
            f = !f;
        }
        let flip = g.is_complement();
        if flip {
            g = !g;
            h = !h;
        }
        let slot = (fnv_mix([f.0, g.0, h.0]) as usize) & (self.ite_cache.len() - 1);
        self.ite_stats.lookups += 1;
        let entry = self.ite_cache[slot];
        if entry.f == f.0 && entry.g == g.0 && entry.h == h.0 {
            self.ite_stats.hits += 1;
            return Ok(Bdd(entry.result).toggled_if(flip));
        }
        let (lf, lg, lh) = (self.root_level(f), self.root_level(g), self.root_level(h));
        let top = if lf <= lg && lf <= lh {
            self.root_var(f)
        } else if lg <= lh {
            self.root_var(g)
        } else {
            self.root_var(h)
        };
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        let (h0, h1) = self.cofactors_at(h, top);
        let low = self.ite_rec(f0, g0, h0)?;
        let high = self.ite_rec(f1, g1, h1)?;
        let result = self.mk_node(top, low, high)?;
        // Direct-mapped and lossy: colliding keys overwrite each other.
        self.ite_cache[slot] = IteEntry {
            f: f.0,
            g: g.0,
            h: h.0,
            result: result.0,
        };
        Ok(result.toggled_if(flip))
    }

    pub(crate) fn cofactors_at(&self, f: Bdd, var: VarId) -> (Bdd, Bdd) {
        if f.is_terminal() || self.root_var(f) != var {
            (f, f)
        } else {
            self.children(f)
        }
    }

    // ------------------------------------------------------------------
    // Cofactors and the Boolean difference
    // ------------------------------------------------------------------

    /// Restriction (cofactor) of `f` with variable `var` fixed to `value`.
    pub fn restrict(&mut self, f: Bdd, var: VarId, value: bool) -> Bdd {
        expect_ok(self.try_restrict(f, var, value))
    }

    /// Fallible restriction (see [`BddManager::try_and`]).
    pub fn try_restrict(&mut self, f: Bdd, var: VarId, value: bool) -> Result<Bdd, BddError> {
        self.poll_cancel()?;
        self.restrict_rec(f, var, value)
    }

    fn restrict_rec(&mut self, f: Bdd, var: VarId, value: bool) -> Result<Bdd, BddError> {
        if f.is_terminal() {
            return Ok(f);
        }
        let target_level = match self.var2level.get(var as usize) {
            Some(&level) => level,
            // An undeclared variable is tested nowhere: identity.
            None => return Ok(f),
        };
        let node_var = self.nodes[f.index() as usize].var;
        if self.var2level[node_var as usize] > target_level {
            return Ok(f);
        }
        if node_var == var {
            let (low, high) = self.children(f);
            return Ok(if value { high } else { low });
        }
        self.step()?;
        // Restriction commutes with complement: memoize on the regular node
        // and let the handle's flag toggle the cached result.
        let flip = f.is_complement();
        let f = f.regular();
        let key = (var << 1) | u32::from(value);
        let slot = match self.apply_probe(Op::Restrict, f.0, key) {
            Ok(hit) => return Ok(hit.toggled_if(flip)),
            Err(slot) => slot,
        };
        let (low, high) = self.children(f);
        let low = self.restrict_rec(low, var, value)?;
        let high = self.restrict_rec(high, var, value)?;
        let result = self.mk_node(node_var, low, high)?;
        self.apply_store(slot, Op::Restrict, f.0, key, result);
        Ok(result.toggled_if(flip))
    }

    /// Restriction of `f` under a partial assignment.
    pub fn restrict_all(&mut self, f: Bdd, assignment: &Assignment) -> Bdd {
        expect_ok(self.try_restrict_all(f, assignment))
    }

    /// Fallible restriction under a partial assignment (see
    /// [`BddManager::try_and`]).
    pub fn try_restrict_all(&mut self, f: Bdd, assignment: &Assignment) -> Result<Bdd, BddError> {
        let mut acc = f;
        for (var, value) in assignment.iter() {
            acc = self.try_restrict(acc, var, value)?;
        }
        Ok(acc)
    }

    /// Boolean difference of `f` with respect to `var`:
    /// `df/dvar = f|var=0 XOR f|var=1`.
    ///
    /// The Boolean difference is `1` exactly for the input combinations under
    /// which the value of `var` is observable at `f` — the propagation
    /// condition used by the BDD-based test generator.  It is computed in
    /// one memoized pass (linear in the size of `f`), without building the
    /// two cofactors; an undeclared `var` yields `0`.
    pub fn boolean_difference(&mut self, f: Bdd, var: VarId) -> Bdd {
        expect_ok(self.try_boolean_difference(f, var))
    }

    /// Fallible Boolean difference (see [`BddManager::try_and`]).
    pub fn try_boolean_difference(&mut self, f: Bdd, var: VarId) -> Result<Bdd, BddError> {
        self.poll_cancel()?;
        match self.var2level.get(var as usize) {
            Some(&level) => self.diff_rec(f.regular(), var, level),
            // An undeclared variable is tested nowhere: nothing observes it.
            None => Ok(Bdd::ZERO),
        }
    }

    /// One-pass Boolean difference of the *regular* edge `f` (`∂(¬f) = ∂f`)
    /// at `var`, which sits at `level`: the XOR of the two children at each
    /// node of `var`, rebuilt above it, with no full cofactor intermediates.
    fn diff_rec(&mut self, f: Bdd, var: VarId, level: u32) -> Result<Bdd, BddError> {
        if f.is_terminal() {
            return Ok(Bdd::ZERO);
        }
        let node = self.nodes[f.index() as usize];
        if self.var2level[node.var as usize] > level {
            return Ok(Bdd::ZERO);
        }
        if node.var == var {
            return self.xor_rec(node.low, node.high);
        }
        self.step()?;
        let slot = match self.apply_probe(Op::Diff, f.0, var) {
            Ok(hit) => return Ok(hit),
            Err(slot) => slot,
        };
        let low = self.diff_rec(node.low.regular(), var, level)?;
        let high = self.diff_rec(node.high, var, level)?;
        let result = self.mk_node(node.var, low, high)?;
        self.apply_store(slot, Op::Diff, f.0, var, result);
        Ok(result)
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Evaluates `f` under a total assignment (missing variables default to
    /// `false`).
    pub fn eval(&self, f: Bdd, assignment: &Assignment) -> bool {
        let mut cur = f;
        while !cur.is_terminal() {
            let var = self.nodes[cur.index() as usize].var;
            let (low, high) = self.children(cur);
            let value = assignment.get(var).unwrap_or(false);
            cur = if value { high } else { low };
        }
        cur.is_one()
    }

    /// Returns `true` if `f` contains a test of variable `var`.
    pub fn depends_on(&self, f: Bdd, var: VarId) -> bool {
        self.support(f).contains(&var)
    }

    /// Set of variables tested anywhere inside `f`, sorted by current
    /// ordering position (root end first).
    pub fn support(&self, f: Bdd) -> Vec<VarId> {
        let mut seen = std::collections::HashSet::new();
        let mut vars = std::collections::BTreeSet::new();
        let mut stack = vec![f.regular()];
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !seen.insert(n.index()) {
                continue;
            }
            let node = self.nodes[n.index() as usize];
            vars.insert(node.var);
            stack.push(node.low.regular());
            stack.push(node.high.regular());
        }
        let mut vars: Vec<VarId> = vars.into_iter().collect();
        vars.sort_by_key(|&v| self.var2level[v as usize]);
        vars
    }

    /// Number of internal nodes reachable from `f` (the BDD's size).  With
    /// complement edges `f` and `!f` share every node, so their sizes are
    /// equal.
    pub fn size(&self, f: Bdd) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f.regular()];
        let mut count = 0usize;
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !seen.insert(n.index()) {
                continue;
            }
            count += 1;
            let node = self.nodes[n.index() as usize];
            stack.push(node.low.regular());
            stack.push(node.high.regular());
        }
        count
    }

    /// Finds one satisfying assignment of `f`, or `None` if `f` is
    /// unsatisfiable.  Variables not mentioned in the returned [`Cube`] are
    /// don't-cares.
    pub fn sat_one(&self, f: Bdd) -> Option<Cube> {
        if f.is_zero() {
            return None;
        }
        let mut cube = Cube::new();
        let mut cur = f;
        while !cur.is_terminal() {
            let var = self.nodes[cur.index() as usize].var;
            let (low, high) = self.children(cur);
            if !high.is_zero() {
                cube.set(var, true);
                cur = high;
            } else {
                cube.set(var, false);
                cur = low;
            }
        }
        Some(cube)
    }

    /// [`BddManager::sat_one`] of `f · g` without building the product:
    /// `None` exactly when `f · g = 0`, and otherwise the very cube
    /// `sat_one(and(f, g))` returns, don't-cares included.  No node is
    /// created.
    ///
    /// A depth-first search over the pair `(a, b)`, starting at `(f, g)`,
    /// splits at the shallower top level `x` and walks the high pair first,
    /// as `sat_one` does: `x = 1` when `a1 · b1 ≠ 0`, else `x = 0`.  Once the
    /// pair is a single function (`a = 1`, `b = 1`, `a = b`, or a product
    /// found in the apply cache) its own `sat_one` path ends the walk.  A
    /// pair proven disjoint is an AND fact and is memoized as `And(a, b) →
    /// 0` in the apply cache.  The canonical product tests `x` unless
    /// `a1 · b1 = a0 · b0`, so every `x = 1` of the walk is then checked:
    /// kept when `a0` or `b0` is `0` on the walk (the walk satisfies
    /// `a1 · b1`, so the products differ), else left open exactly when a
    /// memoized four-operand search proves `a0 · b0 = a1 · b1`.  The walk
    /// never depends on these checks: where `x` is skipped, both cofactor
    /// pairs denote the same function.
    ///
    /// Steps are charged per visited pair, as [`BddManager::try_and`] does.
    ///
    /// # Errors
    ///
    /// [`BddError::StepBudgetExceeded`] when the armed step quota is
    /// exhausted, [`BddError::Cancelled`] when the armed cancel token has
    /// fired.
    pub fn try_sat_one_and(&mut self, f: Bdd, g: Bdd) -> Result<Option<Cube>, BddError> {
        self.poll_cancel()?;
        if self.walk_values.len() < self.names.len() {
            self.walk_values.resize(self.names.len(), 0);
        }
        let mut walk = std::mem::take(&mut self.walk);
        walk.clear();
        let cube = self.sat_one_and_walk(f, g, &mut walk);
        for step in &walk {
            self.walk_values[step.var as usize] = 0;
        }
        self.walk = walk;
        cube
    }

    /// Body of [`BddManager::try_sat_one_and`]: the walk, then its cube with
    /// every provisional `x = 1` whose cofactor products are equal left open.
    fn sat_one_and_walk(
        &mut self,
        f: Bdd,
        g: Bdd,
        walk: &mut Vec<WalkStep>,
    ) -> Result<Option<Cube>, BddError> {
        if !self.witness_rec(f, g, walk)? {
            return Ok(None);
        }
        for step in walk.iter() {
            self.walk_values[step.var as usize] = 1 + u8::from(step.value);
        }
        let mut literals = Vec::with_capacity(walk.len());
        let mut equal_products = EqualProducts::default();
        for step in walk.iter() {
            // The walk satisfies `a1 · b1`, so an operand that does not
            // depend on `x` holds on it already.
            let open = match step.cofactors {
                Some([a0, b0, a1, b1]) => {
                    (a0 == a1 || self.holds_on_walk(a0))
                        && (b0 == b1 || self.holds_on_walk(b0))
                        && self.products_equal(a0, b0, a1, b1, &mut equal_products)?
                }
                None => false,
            };
            if !open {
                literals.push((step.var, step.value));
            }
        }
        Ok(Some(literals.into_iter().collect()))
    }

    /// Depth-first search for a path to `1` in `a · b`, appending its
    /// assignments to `walk`; `Ok(false)` (with `walk` as it was) when the
    /// pair is disjoint.
    fn witness_rec(&mut self, a: Bdd, b: Bdd, walk: &mut Vec<WalkStep>) -> Result<bool, BddError> {
        let (a, b) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        let slot = match self.known_and(a, b) {
            Ok(product) if product.is_zero() => return Ok(false),
            Ok(product) => {
                self.push_sat_path(product, walk);
                return Ok(true);
            }
            Err(slot) => slot,
        };
        self.step()?;
        let top = if self.root_level(a) <= self.root_level(b) {
            self.root_var(a)
        } else {
            self.root_var(b)
        };
        let (a0, a1) = self.cofactors_at(a, top);
        let (b0, b1) = self.cofactors_at(b, top);
        let mark = walk.len();
        walk.push(WalkStep {
            var: top,
            value: true,
            cofactors: Some([a0, b0, a1, b1]),
        });
        if self.witness_rec(a1, b1, walk)? {
            return Ok(true);
        }
        walk[mark] = WalkStep {
            var: top,
            value: false,
            cofactors: None,
        };
        if self.witness_rec(a0, b0, walk)? {
            return Ok(true);
        }
        walk.truncate(mark);
        self.apply_store(slot, Op::And, a.0, b.0, Bdd::ZERO);
        Ok(false)
    }

    /// Appends the [`BddManager::sat_one`] path of `f ≠ 0` to `walk`.
    fn push_sat_path(&self, f: Bdd, walk: &mut Vec<WalkStep>) {
        let mut cur = f;
        while !cur.is_terminal() {
            let var = self.nodes[cur.index() as usize].var;
            let (low, high) = self.children(cur);
            let value = !high.is_zero();
            walk.push(WalkStep {
                var,
                value,
                cofactors: None,
            });
            cur = if value { high } else { low };
        }
    }

    /// Evaluates `f` on the current walk, reading unassigned variables as
    /// `0` (every completion of a walk satisfies the product it found).
    fn holds_on_walk(&self, f: Bdd) -> bool {
        let mut cur = f;
        while !cur.is_terminal() {
            let var = self.nodes[cur.index() as usize].var;
            let (low, high) = self.children(cur);
            cur = if self.walk_values[var as usize] == 2 {
                high
            } else {
                low
            };
        }
        cur.is_one()
    }

    /// `a · b` when it is known without recursion: a terminal rule of
    /// [`BddManager::try_and`] or an apply-cache hit.  On a miss, the
    /// apply-cache slot of the ordered pair.
    fn known_and(&mut self, a: Bdd, b: Bdd) -> Result<Bdd, usize> {
        if a.is_zero() || b.is_zero() || a == !b {
            return Ok(Bdd::ZERO);
        }
        if a.is_one() || a == b {
            return Ok(b);
        }
        if b.is_one() {
            return Ok(a);
        }
        let (a, b) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.apply_probe(Op::And, a.0, b.0)
    }

    /// Decides `p · q = r · s` without building either product: both sides
    /// are split at their shallowest top level until each is known (see
    /// [`BddManager::known_and`]), returning at the first differing pair.
    /// `equal` memoizes the quadruples already proven equal.
    fn products_equal(
        &mut self,
        p: Bdd,
        q: Bdd,
        r: Bdd,
        s: Bdd,
        equal: &mut EqualProducts,
    ) -> Result<bool, BddError> {
        let (left, right) = (self.known_and(p, q).ok(), self.known_and(r, s).ok());
        if let (Some(u), Some(w)) = (left, right) {
            return Ok(u == w);
        }
        // A known side becomes the pair (1, product); pairs and sides are
        // ordered so each quadruple has one memo key.
        let ordered = |x: Bdd, y: Bdd| if x.0 <= y.0 { [x, y] } else { [y, x] };
        let left = left.map_or_else(|| ordered(p, q), |u| [Bdd::ONE, u]);
        let right = right.map_or_else(|| ordered(r, s), |w| [Bdd::ONE, w]);
        let [p, q, r, s] = if left <= right {
            [left[0], left[1], right[0], right[1]]
        } else {
            [right[0], right[1], left[0], left[1]]
        };
        let pack = |x: Bdd, y: Bdd| (u64::from(x.0) << 32) | u64::from(y.0);
        let key = (pack(p, q), pack(r, s));
        if equal.contains(&key) {
            return Ok(true);
        }
        self.step()?;
        let mut top = p;
        for f in [q, r, s] {
            if self.root_level(f) < self.root_level(top) {
                top = f;
            }
        }
        let top = self.root_var(top);
        let (p0, p1) = self.cofactors_at(p, top);
        let (q0, q1) = self.cofactors_at(q, top);
        let (r0, r1) = self.cofactors_at(r, top);
        let (s0, s1) = self.cofactors_at(s, top);
        let same = self.products_equal(p0, q0, r0, s0, equal)?
            && self.products_equal(p1, q1, r1, s1, equal)?;
        if same {
            equal.insert(key);
        }
        Ok(same)
    }

    /// Counts satisfying assignments of `f` over the full set of declared
    /// variables.
    pub fn sat_count(&self, f: Bdd) -> u128 {
        let n = self.var_count() as u32;
        let mut memo: HashMap<Bdd, u128> = HashMap::new();
        self.sat_count_rec(f, 0, n, &mut memo)
    }

    fn sat_count_rec(
        &self,
        f: Bdd,
        from_level: u32,
        total_vars: u32,
        memo: &mut HashMap<Bdd, u128>,
    ) -> u128 {
        // Number of assignments below `f` assuming its root sits at
        // ordering position `from_level`.
        let level = if f.is_terminal() {
            total_vars
        } else {
            self.root_level(f)
        };
        let skipped = level - from_level;
        let base = if f.is_zero() {
            0
        } else if f.is_one() {
            1
        } else if let Some(&c) = memo.get(&f) {
            c
        } else {
            let (low, high) = self.children(f);
            let low = self.sat_count_rec(low, level + 1, total_vars, memo);
            let high = self.sat_count_rec(high, level + 1, total_vars, memo);
            let c = low + high;
            memo.insert(f, c);
            c
        };
        base << skipped
    }

    /// Iterator over the prime-free cube cover of `f` (one cube per path from
    /// the root to the `1` terminal).
    pub fn cubes(&self, f: Bdd) -> CubeIter<'_> {
        CubeIter::new(self, f)
    }

    /// Root variable of a non-terminal handle (stored form, for the
    /// DOT/text exporters).
    pub(crate) fn node_var(&self, f: Bdd) -> VarId {
        self.nodes[f.index() as usize].var
    }

    /// Stored (canonical-form) children of a non-terminal handle, *without*
    /// resolving the handle's own complement flag — exporters render the
    /// stored structure and mark complement arcs explicitly.
    pub(crate) fn stored_children(&self, f: Bdd) -> (Bdd, Bdd) {
        let node = self.nodes[f.index() as usize];
        (node.low, node.high)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_vars(m: &mut BddManager) -> (Bdd, Bdd, Bdd) {
        (m.var("a"), m.var("b"), m.var("c"))
    }

    #[test]
    fn constants_and_literals() {
        let mut m = BddManager::new();
        assert!(m.zero().is_zero());
        assert!(m.one().is_one());
        assert_eq!(m.constant(true), m.one());
        assert_eq!(m.constant(false), m.zero());
        let a = m.var("a");
        let not_a = m.not(a);
        let a_again = m.not(not_a);
        assert_eq!(a, a_again);
    }

    #[test]
    fn complement_edges_store_one_polarity() {
        let mut m = BddManager::new();
        let (a, b, _) = three_vars(&mut m);
        let f = m.and(a, b);
        let nodes_before = m.live_node_count();
        // Negation is a bit flip: no new nodes, shared arena slot.
        let nf = m.not(f);
        assert_eq!(m.live_node_count(), nodes_before);
        assert_eq!(nf.index(), f.index());
        assert_ne!(nf, f);
        assert_eq!(m.size(f), m.size(nf));
        // Materializing !f through the ordinary operations allocates
        // nothing either: the canonical form reuses f's nodes.
        let na = m.not(a);
        let nb = m.not(b);
        let nf2 = m.or(na, nb);
        assert_eq!(nf2, nf);
        assert_eq!(m.live_node_count(), nodes_before);
    }

    #[test]
    fn and_or_terminal_rules() {
        let mut m = BddManager::new();
        let (a, _, _) = three_vars(&mut m);
        assert_eq!(m.and(a, m.one()), a);
        assert_eq!(m.and(a, m.zero()), m.zero());
        assert_eq!(m.or(a, m.zero()), a);
        assert_eq!(m.or(a, m.one()), m.one());
        assert_eq!(m.xor(a, a), m.zero());
        assert_eq!(m.xor(a, m.zero()), a);
        // Complement-edge short circuits.
        let na = m.not(a);
        assert_eq!(m.and(a, na), m.zero());
        assert_eq!(m.or(a, na), m.one());
        assert_eq!(m.xor(a, na), m.one());
    }

    #[test]
    fn de_morgan() {
        let mut m = BddManager::new();
        let (a, b, _) = three_vars(&mut m);
        let lhs = {
            let ab = m.and(a, b);
            m.not(ab)
        };
        let rhs = {
            let na = m.not(a);
            let nb = m.not(b);
            m.or(na, nb)
        };
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn ite_matches_definition() {
        let mut m = BddManager::new();
        let (a, b, c) = three_vars(&mut m);
        let ite = m.ite(a, b, c);
        let expected = {
            let ab = m.and(a, b);
            let na = m.not(a);
            let nac = m.and(na, c);
            m.or(ab, nac)
        };
        assert_eq!(ite, expected);
        // Complemented condition and branches.
        let na = m.not(a);
        let nb = m.not(b);
        let ite2 = m.ite(na, nb, c);
        let expected2 = {
            let t = m.and(na, nb);
            let e = m.and(a, c);
            m.or(t, e)
        };
        assert_eq!(ite2, expected2);
    }

    #[test]
    fn restrict_fixes_one_variable() {
        let mut m = BddManager::new();
        let (a, b, c) = three_vars(&mut m);
        let f = {
            let ab = m.and(a, b);
            m.or(ab, c)
        };
        let va = m.var_index("a").unwrap();
        let f_a1 = m.restrict(f, va, true);
        let expected = m.or(b, c);
        assert_eq!(f_a1, expected);
        let f_a0 = m.restrict(f, va, false);
        assert_eq!(f_a0, c);
    }

    #[test]
    fn boolean_difference_detects_observability() {
        let mut m = BddManager::new();
        let (a, b, c) = three_vars(&mut m);
        // f = (a AND b) OR c : a is observable iff b=1 AND c=0.
        let f = {
            let ab = m.and(a, b);
            m.or(ab, c)
        };
        let va = m.var_index("a").unwrap();
        let diff = m.boolean_difference(f, va);
        let expected = {
            let nc = m.not(c);
            m.and(b, nc)
        };
        assert_eq!(diff, expected);
    }

    #[test]
    fn eval_and_sat() {
        let mut m = BddManager::new();
        let (a, b, c) = three_vars(&mut m);
        let f = {
            let ab = m.and(a, b);
            m.or(ab, c)
        };
        let mut asg = Assignment::new();
        asg.set(0, true);
        asg.set(1, true);
        asg.set(2, false);
        assert!(m.eval(f, &asg));
        asg.set(1, false);
        assert!(!m.eval(f, &asg));
        let cube = m.sat_one(f).expect("satisfiable");
        let full = cube.to_assignment();
        assert!(m.eval(f, &full));
        assert_eq!(m.sat_one(m.zero()), None);
        // Negated function: sat_one must satisfy !f.
        let nf = m.not(f);
        let ncube = m.sat_one(nf).expect("satisfiable");
        assert!(!m.eval(f, &ncube.to_assignment()));
    }

    #[test]
    fn sat_count_small_function() {
        let mut m = BddManager::new();
        let (a, b, c) = three_vars(&mut m);
        let f = {
            let ab = m.and(a, b);
            m.or(ab, c)
        };
        // Truth table over 3 variables: (a&b)|c has 5 minterms.
        assert_eq!(m.sat_count(f), 5);
        assert_eq!(m.sat_count(m.one()), 8);
        assert_eq!(m.sat_count(m.zero()), 0);
        // Complement: the negation covers the remaining minterms.
        let nf = m.not(f);
        assert_eq!(m.sat_count(nf), 3);
    }

    #[test]
    fn support_and_size() {
        let mut m = BddManager::new();
        let (a, b, c) = three_vars(&mut m);
        let _ = c;
        let f = m.and(a, b);
        assert_eq!(m.support(f), vec![0, 1]);
        assert_eq!(m.size(f), 2);
        assert_eq!(m.size(m.one()), 0);
        assert!(m.depends_on(f, 0));
        assert!(!m.depends_on(f, 2));
    }

    #[test]
    fn canonical_equality_of_equivalent_formulas() {
        let mut m = BddManager::new();
        let (a, b, c) = three_vars(&mut m);
        // (a XOR b) XOR c is associative/commutative.
        let l = {
            let ab = m.xor(a, b);
            m.xor(ab, c)
        };
        let r = {
            let bc = m.xor(b, c);
            m.xor(a, bc)
        };
        assert_eq!(l, r);
    }

    #[test]
    fn stats_reports_nodes() {
        let mut m = BddManager::new();
        let (a, b, _) = three_vars(&mut m);
        let _f = m.and(a, b);
        let stats = m.stats();
        assert!(stats.node_count >= 3);
        assert_eq!(stats.var_count, 3);
        assert!(stats.peak_live_nodes >= stats.node_count);
        assert!(format!("{stats}").contains("nodes"));
    }

    #[test]
    fn cache_stats_are_consistent_after_mixed_workload() {
        // Build a 12-bit adder carry chain, negate, restrict, count — a mix
        // of apply, ite and restrict traffic — then check the counters are
        // coherent with one another and with a cache clear.
        let mut m = BddManager::new();
        let mut carry = m.zero();
        for i in 0..12 {
            let a = m.var(&format!("a{i}"));
            let b = m.var(&format!("b{i}"));
            let ab = m.and(a, b);
            let axb = m.xor(a, b);
            let ac = m.and(axb, carry);
            carry = m.or(ab, ac);
        }
        let not_carry = m.not(carry);
        let v0 = m.var_index("a0").unwrap();
        let _ = m.restrict(carry, v0, true);
        let _ = m.boolean_difference(carry, v0);
        // Distinct, non-coincident operands so the ternary recursion
        // actually probes the ite cache (operand coincidences reduce to
        // the apply cache).
        let sel = m.var("a0");
        let other = m.var("b3");
        let _ = m.ite(carry, sel, other);
        let stats = m.stats();
        // Counters are coherent.
        assert!(stats.apply_cache.lookups > 0);
        assert!(stats.apply_cache.hits <= stats.apply_cache.lookups);
        assert_eq!(
            stats.apply_cache.hits + stats.apply_cache.misses(),
            stats.apply_cache.lookups
        );
        assert!(stats.ite_cache.lookups > 0);
        assert!(stats.ite_cache.hits <= stats.ite_cache.lookups);
        assert!(stats.apply_cache.hit_rate() >= 0.0 && stats.apply_cache.hit_rate() <= 1.0);
        // Occupancy is bounded by the fixed capacity.
        assert!(stats.cache_entries > 0);
        assert!(stats.cache_entries <= stats.cache_capacity);
        // A recomputation after clearing produces the same canonical node
        // (clearing only drops memoized results, never nodes).
        m.clear_caches();
        assert_eq!(m.stats().cache_entries, 0);
        let recomputed = m.not(carry);
        assert_eq!(recomputed, not_carry);
        // Stats survive the clear; resetting zeroes them.
        assert!(m.stats().apply_cache.lookups >= stats.apply_cache.lookups);
        m.reset_cache_stats();
        assert_eq!(m.stats().apply_cache.lookups, 0);
        assert_eq!(m.stats().ite_cache.hits, 0);
    }

    #[test]
    fn unique_table_grows_and_stays_canonical() {
        // Create far more nodes than the initial unique-table capacity and
        // verify hash consing still deduplicates: rebuilding the same
        // function yields the identical handle.
        let mut m = BddManager::new();
        let mut acc = m.zero();
        for i in 0..2_000u32 {
            let v = m.var(&format!("x{}", i % 64));
            let k = m.constant(i % 3 == 0);
            let t = m.xor(v, k);
            acc = m.or(acc, t);
        }
        let stats = m.stats();
        assert!(stats.unique_capacity >= UNIQUE_INITIAL_SLOTS);
        let a = m.var("x1");
        let b = m.var("x2");
        let f1 = m.and(a, b);
        let f2 = m.and(a, b);
        assert_eq!(f1, f2);
    }

    #[test]
    #[should_panic(expected = "undeclared")]
    fn literal_of_undeclared_variable_panics() {
        let mut m = BddManager::new();
        let _ = m.literal(3, true);
    }

    fn carry_chain(m: &mut BddManager, bits: usize) -> Bdd {
        let mut carry = m.zero();
        for i in 0..bits {
            let a = m.var(&format!("a{i}"));
            let b = m.var(&format!("b{i}"));
            let ab = m.and(a, b);
            let axb = m.xor(a, b);
            let ac = m.and(axb, carry);
            carry = m.or(ab, ac);
        }
        carry
    }

    #[test]
    fn gc_reclaims_everything_unreachable_from_roots() {
        let mut m = BddManager::new();
        let carry = carry_chain(&mut m, 12);
        let live_before = m.live_node_count();
        assert!(
            live_before > m.size(carry),
            "the build leaves intermediates"
        );
        m.protect(carry);
        let report = m.gc();
        assert_eq!(report.live_before, live_before);
        assert_eq!(report.live_after, m.size(carry));
        assert_eq!(report.reclaimed, live_before - m.size(carry));
        assert_eq!(m.live_node_count(), m.size(carry));
        assert_eq!(m.stats().gc_runs, 1);
        assert_eq!(m.stats().gc_reclaimed, report.reclaimed as u64);
        // The protected function is untouched and still canonical: a full
        // rebuild reproduces the identical handle.
        let rebuilt = carry_chain(&mut m, 12);
        assert_eq!(rebuilt, carry);
        m.unprotect(carry);
    }

    #[test]
    fn gc_reuses_freed_slots() {
        let mut m = BddManager::new();
        let f = carry_chain(&mut m, 8);
        m.protect(f);
        let report = m.gc();
        assert!(report.reclaimed > 0);
        let arena_slots = m.nodes.len();
        assert_eq!(m.stats().free_nodes, report.reclaimed);
        // Rebuilding the collected intermediates reuses the free list
        // instead of growing the arena.
        let _ = carry_chain(&mut m, 8);
        assert_eq!(m.nodes.len(), arena_slots, "free slots are reused");
        assert!(m.stats().free_nodes < report.reclaimed);
    }

    #[test]
    fn protect_is_counted_and_unprotect_balances() {
        let mut m = BddManager::new();
        let (a, b, _) = three_vars(&mut m);
        let f = m.and(a, b);
        m.protect(f);
        m.protect(f);
        assert_eq!(m.protected_count(), 1);
        m.unprotect(f);
        assert_eq!(m.protected_count(), 1, "still one registration left");
        let report = m.gc();
        assert!(m.live_node_count() >= m.size(f));
        let _ = report;
        m.unprotect(f);
        assert_eq!(m.protected_count(), 0);
        let report = m.gc();
        assert_eq!(report.live_after, 0, "nothing is protected any more");
        // Terminals never need protection and are silently ignored.
        m.protect(Bdd::ONE);
        m.unprotect(Bdd::ZERO);
        assert_eq!(m.protected_count(), 0);
    }

    #[test]
    #[should_panic(expected = "never protected")]
    fn unbalanced_unprotect_panics() {
        let mut m = BddManager::new();
        let a = m.var("a");
        let b = m.var("b");
        let f = m.and(a, b);
        m.unprotect(f);
    }

    #[test]
    fn gc_if_above_only_fires_past_the_watermark() {
        let mut m = BddManager::new();
        let f = carry_chain(&mut m, 10);
        m.protect(f);
        assert!(m.gc_if_above(usize::MAX).is_none());
        assert_eq!(m.stats().gc_runs, 0);
        let report = m.gc_if_above(1).expect("watermark crossed");
        assert!(report.reclaimed > 0);
        assert_eq!(m.stats().gc_runs, 1);
    }

    #[test]
    fn node_budget_fails_structurally_and_leaves_the_manager_usable() {
        let mut m = BddManager::new();
        let f = carry_chain(&mut m, 8);
        m.protect(f);
        let baseline = m.live_node_count();
        // A ceiling just above the current population: the next big build
        // must fail with a structured error instead of growing the arena.
        m.set_budget(BddBudget::UNLIMITED.with_max_live_nodes(baseline + 4));
        let mut acc = f;
        let mut failed = None;
        for i in 0..16 {
            let v = m.var(&format!("c{i}"));
            match m.try_xor(acc, v) {
                Ok(next) => acc = next,
                Err(err) => {
                    failed = Some(err);
                    break;
                }
            }
        }
        assert_eq!(
            failed,
            Some(BddError::NodeBudgetExceeded {
                limit: baseline + 4
            })
        );
        // The manager and the protected function both survive the failure.
        assert!(m.live_node_count() <= baseline + 4 + 16);
        // Disarming restores infallibility; the protected function is
        // untouched (a rebuild reproduces the identical handle).
        m.set_budget(BddBudget::UNLIMITED);
        assert_eq!(carry_chain(&mut m, 8), f);
        let v = m.var("later");
        let _ = m.xor(f, v);
        m.unprotect(f);
    }

    #[test]
    fn node_budget_composes_with_gc() {
        // Dead intermediates must not count against the quota after a
        // collection: the same build succeeds under a budget that the
        // intermediate garbage alone would exceed.
        let mut m = BddManager::new();
        let f = carry_chain(&mut m, 10);
        m.protect(f);
        let garbage_heavy = m.live_node_count();
        let live = m.size(f);
        assert!(garbage_heavy > live * 2, "the build leaves garbage");
        m.gc();
        m.set_budget(BddBudget::UNLIMITED.with_max_live_nodes(live + 64));
        // Rebuilding a collected function under the tight budget works:
        // hash consing revives mostly shared nodes.
        let rebuilt = {
            let a = m.var("a0");
            let b = m.var("b0");
            m.try_and(a, b)
        };
        assert!(rebuilt.is_ok());
        m.unprotect(f);
    }

    #[test]
    fn step_budget_fails_deterministically() {
        let run = |budget: Option<u64>| -> (Result<Bdd, BddError>, u64) {
            let mut m = BddManager::new();
            if let Some(steps) = budget {
                m.set_budget(BddBudget::UNLIMITED.with_max_steps(steps));
            }
            let mut acc = m.zero();
            let mut result = Ok(acc);
            for i in 0..10 {
                let a = m.var(&format!("a{i}"));
                let b = m.var(&format!("b{i}"));
                result = m
                    .try_and(a, b)
                    .and_then(|ab| m.try_xor(ab, acc))
                    .and_then(|t| m.try_or(acc, t));
                match result {
                    Ok(next) => acc = next,
                    Err(_) => break,
                }
            }
            (result, m.steps_used())
        };
        let (unbounded, total_steps) = run(None);
        assert!(unbounded.is_ok());
        assert!(total_steps > 0);
        let limit = total_steps / 2;
        let (bounded_a, steps_a) = run(Some(limit));
        let (bounded_b, steps_b) = run(Some(limit));
        assert_eq!(
            bounded_a,
            Err(BddError::StepBudgetExceeded { limit }),
            "half the steps cannot finish the build"
        );
        assert_eq!(bounded_a, bounded_b, "abort point is deterministic");
        assert_eq!(steps_a, steps_b);
        // A full quota completes.
        let (full, _) = run(Some(total_steps));
        assert_eq!(full, unbounded);
    }

    #[test]
    fn reset_steps_reopens_the_quota() {
        let mut m = BddManager::new();
        m.set_budget(BddBudget::UNLIMITED.with_max_steps(10_000));
        let f = carry_chain(&mut m, 6);
        assert!(m.steps_used() > 0);
        m.reset_steps();
        assert_eq!(m.steps_used(), 0);
        assert_eq!(m.budget().max_steps, Some(10_000));
        let _ = f;
    }

    #[test]
    fn cancel_token_interrupts_at_operation_entry() {
        let mut m = BddManager::new();
        let (a, b, _) = three_vars(&mut m);
        let token = msatpg_exec::CancelToken::new();
        m.set_cancel_token(Some(token.clone()));
        assert_eq!(m.try_and(a, b), Ok(m.and(a, b)));
        token.cancel();
        assert_eq!(m.try_and(a, b), Err(BddError::Cancelled));
        assert_eq!(m.try_ite(a, b, a), Err(BddError::Cancelled));
        assert_eq!(m.try_restrict(a, 0, true), Err(BddError::Cancelled));
        m.set_cancel_token(None);
        let _ = m.try_and(a, b).expect("disarmed manager is infallible");
    }

    #[test]
    #[should_panic(expected = "infallible BDD operation interrupted")]
    fn infallible_wrapper_panics_when_budget_fires() {
        let mut m = BddManager::new();
        let f = carry_chain(&mut m, 8);
        m.set_budget(BddBudget::UNLIMITED.with_max_steps(1));
        let v = m.var("x");
        let _ = m.xor(f, v); // must panic: quota of one step cannot finish
    }

    #[test]
    fn failed_operation_leaves_no_pins_behind() {
        let mut m = BddManager::new();
        let f = carry_chain(&mut m, 8);
        m.protect(f);
        m.set_budget(BddBudget::UNLIMITED.with_max_steps(3));
        let v = m.var_index("a3").unwrap();
        assert!(m.try_boolean_difference(f, v).is_err());
        assert!(m.try_restrict(f, v, true).is_err());
        m.set_budget(BddBudget::UNLIMITED);
        // Interrupted operations hold nothing: a GC reclaims everything
        // except the root.
        let report = m.gc();
        assert_eq!(report.live_after, m.size(f), "no stray roots kept garbage");
        m.unprotect(f);
    }

    /// A carry chain and a parity of its `b` inputs: a product that takes
    /// the witness search many steps.
    fn carry_and_parity(m: &mut BddManager) -> (Bdd, Bdd) {
        let carry = carry_chain(m, 10);
        let mut parity = m.zero();
        for i in 0..10 {
            let b = m.var(&format!("b{i}"));
            parity = m.xor(parity, b);
        }
        (carry, parity)
    }

    #[test]
    fn sat_one_and_step_budget_fails_deterministically() {
        let run = |budget: Option<u64>| -> (Result<Option<Cube>, BddError>, u64) {
            let mut m = BddManager::new();
            let (f, g) = carry_and_parity(&mut m);
            m.clear_caches();
            m.set_budget(budget.map_or(BddBudget::UNLIMITED, |steps| {
                BddBudget::UNLIMITED.with_max_steps(steps)
            }));
            (m.try_sat_one_and(f, g), m.steps_used())
        };
        let (unbounded, total_steps) = run(None);
        assert!(matches!(unbounded, Ok(Some(_))));
        assert!(total_steps > 100, "the search takes steps: {total_steps}");
        let limit = total_steps / 2;
        let (bounded_a, steps_a) = run(Some(limit));
        let (bounded_b, steps_b) = run(Some(limit));
        assert_eq!(bounded_a, Err(BddError::StepBudgetExceeded { limit }));
        assert_eq!(bounded_a, bounded_b, "abort point is deterministic");
        assert_eq!(steps_a, steps_b);
        let (full, _) = run(Some(total_steps));
        assert_eq!(full, unbounded);
    }

    #[test]
    fn sat_one_and_polls_the_cancel_token_at_entry() {
        let mut m = BddManager::new();
        let (f, g) = carry_and_parity(&mut m);
        let product = m.and(f, g);
        let expected = m.sat_one(product);
        let token = msatpg_exec::CancelToken::new();
        m.set_cancel_token(Some(token.clone()));
        assert_eq!(m.try_sat_one_and(f, g), Ok(expected.clone()));
        token.cancel();
        assert_eq!(m.try_sat_one_and(f, g), Err(BddError::Cancelled));
        m.set_cancel_token(None);
        assert_eq!(m.try_sat_one_and(f, g), Ok(expected));
    }

    #[test]
    fn failed_sat_one_and_leaves_no_pins_behind() {
        let mut m = BddManager::new();
        let (f, g) = carry_and_parity(&mut m);
        m.protect(f);
        m.protect(g);
        let baseline = m.gc().live_after;
        m.set_budget(BddBudget::UNLIMITED.with_max_steps(3));
        assert!(m.try_sat_one_and(f, g).is_err());
        m.set_budget(BddBudget::UNLIMITED);
        // The interrupted search holds nothing, and the manager answers the
        // next call as if the failure never happened.
        assert_eq!(m.gc().live_after, baseline, "no stray roots kept garbage");
        let found = m.try_sat_one_and(f, g).expect("disarmed manager");
        let product = m.and(f, g);
        assert_eq!(found, m.sat_one(product));
        m.unprotect(f);
        m.unprotect(g);
    }

    #[test]
    fn gc_invalidates_caches_and_preserves_semantics() {
        let mut m = BddManager::new();
        let carry = carry_chain(&mut m, 10);
        let n = m.sat_count(carry);
        m.protect(carry);
        m.gc();
        assert_eq!(m.stats().cache_entries, 0, "caches are invalidated");
        // Recomputations after the sweep agree with pre-sweep results.
        assert_eq!(m.sat_count(carry), n);
        let v = m.var_index("a3").unwrap();
        let diff = m.boolean_difference(carry, v);
        let mut fresh = BddManager::new();
        let carry2 = carry_chain(&mut fresh, 10);
        let diff2 = fresh.boolean_difference(carry2, v);
        assert_eq!(m.sat_count(diff), fresh.sat_count(diff2));
        m.unprotect(carry);
    }
}
