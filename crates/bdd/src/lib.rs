//! Ordered binary decision diagrams (OBDDs) for the mixed-signal ATPG.
//!
//! This crate provides the reduced, ordered BDD package that the
//! backtrack-free test generator of Ayari, BenHamida & Kaminska (DATE 1995)
//! relies on.  The central type is [`BddManager`], a hash-consing node store
//! with memoized `apply`/`ite` operations, cofactoring, quantification,
//! Boolean difference, satisfying-assignment enumeration, and
//! [`BddManager::try_sat_one_and`], which reads `sat_one` of a product off
//! its two operands without building it.
//!
//! # Engine
//!
//! The manager follows the arena layout of modern BDD packages
//! (rsdd, OBDDimal, CUDD), with two memory-focused additions:
//!
//! * **complement edges** — a [`Bdd`] handle is a tagged pointer whose low
//!   bit negates the referenced function.  Only one polarity of each
//!   function is stored (the high edge of a node is never complemented),
//!   so `f` and `!f` share every node, [`BddManager::not`] is an O(1) bit
//!   flip, and the unique-table population of negation-heavy constraint
//!   builds roughly halves (measured in the `bdd_memory` section of
//!   `BENCH_kernels.json`);
//! * **node-level garbage collection** — long-lived functions are
//!   registered as counted roots ([`BddManager::protect`] /
//!   [`BddManager::unprotect`]); [`BddManager::gc`] mark-and-sweeps
//!   everything unreachable onto a free list, rebuilds the open-addressed
//!   unique table and invalidates the lossy operation caches.  Live
//!   handles are never renumbered, so cube enumeration, DOT export and
//!   every `TestPlan` built on top are byte-identical with collection on
//!   or off.  Collection runs only where the caller asks for it
//!   ([`BddManager::gc`], [`BddManager::gc_if_above`], sifting), never
//!   inside a Boolean operation;
//! * **dynamic variable reordering** — the global order is a permutation
//!   (`var` ↔ level) maintained beside the arena, so [`VarId`]s are never
//!   renumbered.  Adjacent-level swap ([`BddManager::try_swap_adjacent`])
//!   rewrites the affected nodes in place (handles stay valid) and
//!   sifting ([`BddManager::try_sift`]) walks every variable to a locally
//!   optimal level under a growth cap, governed by the same budget and
//!   cancellation machinery; see [`reorder`] for the swap mechanics on
//!   complement edges;
//!
//! and the performance plumbing carried over from the arena overhaul:
//!
//! * nodes live in a contiguous arena indexed by [`Bdd::index`] — child
//!   traversal is an array access;
//! * hash consing goes through an open-addressed, linear-probed unique
//!   table keyed by an FNV-1a hash of `(var, low, high)` — `mk_node` is one
//!   probe with no heap allocation and no cryptographic hashing;
//! * `apply`/`ite` memoization uses fixed-size, direct-mapped **lossy**
//!   caches: a collision overwrites the resident entry, bounding cache
//!   memory for arbitrarily long runs.  [`BddManager::stats`] reports
//!   occupancy, hit/miss counters ([`CacheStats`]) and the GC counters
//!   (peak live nodes, reclaim totals).
//!
//! Operations are `O(|f|·|g|)` as usual for reduced OBDDs; complement
//! edges change the constants (and `not` to O(1)), not the asymptotics —
//! see `BENCH_kernels.json`.
//!
//! # Resource governance
//!
//! Symbolic blow-up is survivable: a [`BddBudget`] caps the live node
//! count and/or the number of apply steps, and an external
//! `CancelToken` (from `msatpg-exec`, attached via
//! [`BddManager::set_cancel_token`]) imposes deadlines and shared step
//! quotas.  The fallible `try_*` operation variants ([`BddManager::try_and`],
//! [`BddManager::try_ite`], …) return a structured [`BddError`] —
//! `NodeBudgetExceeded`, `StepBudgetExceeded` or `Cancelled`, each carrying
//! the limit and the observed value — instead of panicking or growing
//! without bound.  The manager stays fully usable after any such error:
//! call [`BddManager::gc`] and [`BddManager::reset_steps`] to return to the
//! protected baseline and retry or move on.  The infallible API is
//! unchanged for ungoverned clients ([`BddBudget::UNLIMITED`] is the
//! default).
//!
//! # Example
//!
//! ```
//! use msatpg_bdd::BddManager;
//!
//! let mut m = BddManager::new();
//! let a = m.var("a");
//! let b = m.var("b");
//! let f = m.and(a, b);
//! // Boolean difference with respect to `a`: df/da = f|a=0 XOR f|a=1 = b.
//! let diff = m.boolean_difference(f, m.var_index("a").unwrap());
//! assert_eq!(diff, b);
//!
//! // Negation is free, and only one polarity is ever stored.
//! let nf = m.not(f);
//! assert_eq!(m.size(f), m.size(nf));
//!
//! // Reclaim everything not reachable from a protected root.
//! m.protect(f);
//! let report = m.gc();
//! assert_eq!(report.live_after, m.size(f));
//! ```
//!
//! The terminals are exposed as [`BddManager::zero`] and [`BddManager::one`];
//! every other node is created through the manager and is automatically
//! reduced (no duplicate nodes, no redundant tests, one polarity per
//! function).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
mod cube;
mod dot;
mod expr;
mod manager;
mod node;
pub mod reorder;
pub mod store;

pub use budget::{BddBudget, BddError};
pub use cube::{Assignment, Cube, CubeIter};
pub use dot::{to_dot, to_text_tree};
pub use expr::Expr;
pub use manager::{BddManager, BddStats, CacheStats, GcReport};
pub use node::{Bdd, VarId};
pub use reorder::SiftReport;
pub use store::{export_bdd, import_bdd, BddStoreError};
