//! Dynamic variable ordering: adjacent-level swap, sifting and the
//! structural invariant validator.
//!
//! The manager keeps the global variable order as a permutation
//! (`var2level` / `level2var`) beside the arena, so reordering never
//! renumbers a [`VarId`] and never invalidates a handle: an adjacent-level
//! swap rewrites the affected nodes *in place*, which means every
//! protected root and every handle a caller holds keeps denoting exactly
//! the same Boolean function before and after.
//!
//! ## Swap mechanics on complement edges
//!
//! Exchanging levels `l` (variable `u`) and `l+1` (variable `v`) rewrites
//! each live `u`-node `F = (u, L, H)` that tests `v` in a child.  With the
//! cofactors `L = (L0, L1)` and `H = (H0, H1)` at `v`, the same function
//! re-rooted at `v` is
//!
//! ```text
//! F = (v,  (u, L0, H0),  (u, L1, H1))
//! ```
//!
//! The canonical complement form survives without any polarity fix-up: the
//! stored high edge `H` is regular, so its `v=1` cofactor `H1` is regular,
//! and `mk_node(u, L1, H1)` therefore never flips — the rewritten high
//! edge is regular by construction.  `u`-nodes that do not test `v`, and
//! `v`-nodes reachable from elsewhere, are left untouched (they simply sit
//! at the exchanged level).  Hash-consing during the rewrite cannot alias
//! a node of the rewrite set (their children test `v`; the rebuilt
//! children never do), and two distinct rewritten nodes cannot collide
//! (identical rewritten content would imply identical functions, which
//! canonicity rules out before the swap).  After the in-place rewrites the
//! unique table is rebuilt wholesale and the memo caches are dropped.
//!
//! ## When and under what governance
//!
//! The manager never reorders on its own.  Callers sift at a safe point
//! of their choosing: the construction-time drivers in `msatpg-core` call
//! [`BddManager::try_sift_until_convergence`] right after a symbolic
//! build, at a point where every kept function is a protected root.
//!
//! Sifting is governed like every other operation: each rewritten node
//! charges one [`crate::BddBudget`] step (polling the `CancelToken` on the
//! usual cadence), and fresh cofactor nodes are charged against the node
//! quota.  An interrupted sift abandons the current swap *before* any node
//! is modified, so the manager is left fully consistent at whatever order
//! the walk had reached — only unreferenced garbage from the partial
//! rewrite remains, reclaimed by the next collection.

use crate::budget::BddError;
use crate::manager::{BddManager, UniqueTable, FREED};
use crate::node::{Bdd, Node, VarId};

/// Upper bound on [`BddManager::try_sift_until_convergence`] passes — a
/// safety stop far above the two or three passes real workloads need.
const MAX_SIFT_PASSES: usize = 8;

/// Outcome of one [`BddManager::try_sift`] /
/// [`BddManager::try_sift_until_convergence`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiftReport {
    /// Live nodes before sifting (after the entry collection).
    pub nodes_before: usize,
    /// Live nodes at the final order.
    pub nodes_after: usize,
    /// Adjacent-level swaps performed.
    pub swaps: usize,
    /// Full sift passes performed (always 1 for [`BddManager::try_sift`]).
    pub passes: usize,
}

impl SiftReport {
    /// Node reduction factor (`nodes_before / nodes_after`, 1.0 when
    /// nothing shrank or the arena is empty).
    pub fn reduction(&self) -> f64 {
        if self.nodes_after == 0 || self.nodes_before <= self.nodes_after {
            1.0
        } else {
            self.nodes_before as f64 / self.nodes_after as f64
        }
    }
}

impl BddManager {
    /// Exchanges the variables at ordering positions `level` and
    /// `level + 1`, preserving every function and every handle.  Returns
    /// the number of nodes rewritten in place.
    ///
    /// The swap touches only nodes of the upper variable that actually
    /// test the lower one; all other nodes (and all handles) are
    /// untouched.  The apply/ITE caches are invalidated and the unique
    /// table is rebuilt.  On error (budget, cancellation) the swap is
    /// abandoned *before* any node is modified: the order, every node and
    /// every handle are exactly as before, plus some unreferenced garbage
    /// from the partial rewrite.
    ///
    /// # Panics
    ///
    /// Panics if `level + 1` is not a valid ordering position.
    pub fn try_swap_adjacent(&mut self, level: u32) -> Result<usize, BddError> {
        let n = self.level2var.len() as u32;
        assert!(
            level.checked_add(1).is_some_and(|next| next < n),
            "swap of levels {level}/{} with only {n} variables",
            level.wrapping_add(1),
        );
        let u = self.level2var[level as usize];
        let v = self.level2var[level as usize + 1];

        // Phase 1a: collect the rewrite set — `u`-nodes testing `v` in a
        // child.  Contents stay untouched until phase 2 and slot indices
        // are stable, so the collected list survives the interleaved
        // allocations of phase 1b.
        let mut candidates: Vec<u32> = Vec::new();
        for idx in 1..self.nodes.len() {
            let node = self.nodes[idx];
            if node.var == u && (self.root_var(node.low) == v || self.root_var(node.high) == v) {
                candidates.push(idx as u32);
            }
        }

        // Phase 1b (fallible): hash-cons the re-rooted children.  Nothing
        // has been modified yet, so an early return leaves a consistent
        // manager at the old order.
        let mut rewrites: Vec<(u32, Bdd, Bdd)> = Vec::with_capacity(candidates.len());
        for &idx in &candidates {
            self.step()?;
            let Node { low, high, .. } = self.nodes[idx as usize];
            let (l0, l1) = self.cofactors_at(low, v);
            let (h0, h1) = self.cofactors_at(high, v);
            let g0 = self.mk_node(u, l0, h0)?;
            let g1 = self.mk_node(u, l1, h1)?;
            rewrites.push((idx, g0, g1));
        }

        // Phase 2 (infallible): rewrite in place, exchange the level maps,
        // rebuild the unique table over the live slots and drop the memo
        // caches (entries may reference nodes that just became garbage).
        for &(idx, g0, g1) in &rewrites {
            debug_assert!(
                !g1.is_complement(),
                "swap must preserve the canonical (regular) high edge"
            );
            self.nodes[idx as usize] = Node {
                var: v,
                low: g0,
                high: g1,
            };
        }
        self.level2var.swap(level as usize, level as usize + 1);
        self.var2level[u as usize] = level + 1;
        self.var2level[v as usize] = level;
        self.rebuild_unique();
        self.clear_caches();
        Ok(rewrites.len())
    }

    /// Infallible wrapper over [`BddManager::try_swap_adjacent`]; panics if
    /// a budget or cancel token interrupts the swap.
    pub fn swap_adjacent(&mut self, level: u32) -> usize {
        match self.try_swap_adjacent(level) {
            Ok(rewritten) => rewritten,
            Err(err) => panic!(
                "infallible swap interrupted: {err}; \
                 use try_swap_adjacent when a budget or cancel token is armed"
            ),
        }
    }

    /// One pass of Rudell-style sifting: every variable (most populous
    /// level first) is walked to both ends of the order by adjacent swaps
    /// and settled at the position where the arena was smallest, with a 2x
    /// growth cap per direction.
    ///
    /// The pass garbage-collects on entry and after every swap, so every
    /// handle held across the call must be protected (or reachable from a
    /// protected root).  Handles are never renumbered; only unprotected
    /// garbage is reclaimed.
    ///
    /// On error (budget, cancellation) the manager is left fully
    /// consistent at whatever order the walk had reached.
    pub fn try_sift(&mut self) -> Result<SiftReport, BddError> {
        self.poll_cancel()?;
        self.gc();
        let nodes_before = self.live_node_count();
        let n = self.level2var.len();
        let mut report = SiftReport {
            nodes_before,
            nodes_after: nodes_before,
            swaps: 0,
            passes: 1,
        };
        if n < 2 {
            return Ok(report);
        }
        // Deterministic schedule: most populous variable first, VarId as
        // the tie-break.
        let mut population = vec![0usize; n];
        for idx in 1..self.nodes.len() {
            let var = self.nodes[idx].var;
            if var != FREED {
                population[var as usize] += 1;
            }
        }
        let mut worklist: Vec<VarId> = (0..n as VarId).collect();
        worklist.sort_by_key(|&v| (std::cmp::Reverse(population[v as usize]), v));
        for var in worklist {
            report.swaps += self.sift_one(var)?;
        }
        report.nodes_after = self.live_node_count();
        Ok(report)
    }

    /// Repeats [`BddManager::try_sift`] until a pass stops shrinking the
    /// arena (or a safety cap of passes is reached), accumulating the
    /// swap count across passes.
    pub fn try_sift_until_convergence(&mut self) -> Result<SiftReport, BddError> {
        let mut total = SiftReport::default();
        loop {
            let pass = self.try_sift()?;
            if total.passes == 0 {
                total.nodes_before = pass.nodes_before;
            }
            total.nodes_after = pass.nodes_after;
            total.swaps += pass.swaps;
            total.passes += 1;
            if pass.nodes_after >= pass.nodes_before || total.passes >= MAX_SIFT_PASSES {
                return Ok(total);
            }
        }
    }

    /// Infallible wrapper over [`BddManager::try_sift_until_convergence`];
    /// panics if a budget or cancel token interrupts the pass.
    pub fn sift(&mut self) -> SiftReport {
        match self.try_sift_until_convergence() {
            Ok(report) => report,
            Err(err) => panic!(
                "infallible sift interrupted: {err}; \
                 use try_sift when a budget or cancel token is armed"
            ),
        }
    }

    /// Sifts one variable to its locally optimal level; returns the number
    /// of swaps spent.
    fn sift_one(&mut self, var: VarId) -> Result<usize, BddError> {
        let n = self.level2var.len() as u32;
        let start = self.var2level[var as usize];
        let mut pos = start;
        let mut best_size = self.live_node_count();
        let mut best_pos = start;
        let mut swaps = 0usize;
        // Walk toward the nearer end first so the full sweep (down, then
        // all the way up, then back to the best level) stays short.
        let down_first = (n - 1 - start) <= start;
        let directions: [i32; 2] = if down_first { [1, -1] } else { [-1, 1] };
        for dir in directions {
            loop {
                if dir > 0 {
                    if pos + 1 >= n {
                        break;
                    }
                    self.try_swap_adjacent(pos)?;
                    pos += 1;
                } else {
                    if pos == 0 {
                        break;
                    }
                    self.try_swap_adjacent(pos - 1)?;
                    pos -= 1;
                }
                swaps += 1;
                // Collect after every swap: the live count is then an
                // exact reachable-size metric, not inflated by the dead
                // cofactor nodes the swap left behind.
                self.gc();
                let size = self.live_node_count();
                if size < best_size {
                    best_size = size;
                    best_pos = pos;
                }
                // Growth cap: abandon the direction once the arena
                // doubles relative to the best order seen so far.
                if size > best_size.saturating_mul(2) {
                    break;
                }
            }
        }
        while pos > best_pos {
            self.try_swap_adjacent(pos - 1)?;
            swaps += 1;
            pos -= 1;
        }
        while pos < best_pos {
            self.try_swap_adjacent(pos)?;
            swaps += 1;
            pos += 1;
        }
        self.gc();
        Ok(swaps)
    }

    /// Rebuilds the unique table from scratch over every live arena slot.
    fn rebuild_unique(&mut self) {
        let mut table = UniqueTable::for_live(self.live_node_count());
        for idx in 1..self.nodes.len() {
            if self.nodes[idx].var != FREED {
                table.insert_rehash(&self.nodes, idx as u32);
            }
        }
        self.unique = table;
    }

    /// Validates every structural invariant of the manager, returning a
    /// description of the first violation found.
    ///
    /// Checked per live node: the stored high edge is regular (canonical
    /// complement form), the node is not a redundant test (`low != high`),
    /// both children are live, child levels are strictly greater than the
    /// node's level, and the unique table resolves the node's contents to
    /// exactly its own slot (which rules out both missing entries and
    /// duplicates).  Checked globally: `var2level`/`level2var` are inverse
    /// permutations and the unique-table population matches the live-node
    /// count.
    ///
    /// Intended for tests and debugging — it walks the entire arena.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n_vars = self.level2var.len();
        if self.var2level.len() != n_vars {
            return Err(format!(
                "var2level has {} entries for {} levels",
                self.var2level.len(),
                n_vars
            ));
        }
        for (level, &var) in self.level2var.iter().enumerate() {
            if var as usize >= n_vars || self.var2level[var as usize] != level as u32 {
                return Err(format!(
                    "level maps are not inverse permutations at level {level} (var {var})"
                ));
            }
        }
        let mut live = 0usize;
        for idx in 1..self.nodes.len() {
            let node = self.nodes[idx];
            if node.var == FREED {
                continue;
            }
            live += 1;
            if node.var as usize >= n_vars {
                return Err(format!("node {idx} tests undeclared variable {}", node.var));
            }
            if node.high.is_complement() {
                return Err(format!("node {idx} stores a complemented high edge"));
            }
            if node.low == node.high {
                return Err(format!("node {idx} is a redundant test"));
            }
            let level = self.var2level[node.var as usize];
            for (edge, child) in [("low", node.low), ("high", node.high)] {
                if child.is_terminal() {
                    continue;
                }
                let child_node = self.nodes[child.index() as usize];
                if child_node.var == FREED {
                    return Err(format!("node {idx} {edge} edge points at a freed slot"));
                }
                if self.var2level[child_node.var as usize] <= level {
                    return Err(format!(
                        "node {idx} (var {}, level {level}) {edge} child tests var {} at a \
                         level that is not strictly greater",
                        node.var, child_node.var
                    ));
                }
            }
            match self
                .unique
                .probe(&self.nodes, node.var, node.low, node.high)
            {
                Ok(found) if found == idx as u32 => {}
                Ok(found) => {
                    return Err(format!(
                        "duplicate unique-table entry: nodes {idx} and {found} share contents"
                    ));
                }
                Err(_) => {
                    return Err(format!("node {idx} is missing from the unique table"));
                }
            }
        }
        if self.unique.len != live {
            return Err(format!(
                "unique table holds {} entries for {live} live nodes",
                self.unique.len
            ));
        }
        if live != self.live_node_count() {
            return Err(format!(
                "free list inconsistent: {live} unswept slots vs live_node_count {}",
                self.live_node_count()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::BddBudget;
    use crate::cube::Assignment;

    /// All 2^n assignments over the first `n` declared variables.
    fn truth_table(m: &BddManager, f: Bdd, n: u32) -> Vec<bool> {
        (0..1u32 << n)
            .map(|bits| {
                let mut a = Assignment::new();
                for v in 0..n {
                    a.set(v, bits & (1 << v) != 0);
                }
                m.eval(f, &a)
            })
            .collect()
    }

    fn majority_of_three(m: &mut BddManager) -> Bdd {
        let a = m.var("a");
        let b = m.var("b");
        let c = m.var("c");
        let ab = m.and(a, b);
        let ac = m.and(a, c);
        let bc = m.and(b, c);
        let t = m.or(ab, ac);
        m.or(t, bc)
    }

    #[test]
    fn swap_preserves_functions_and_invariants() {
        let mut m = BddManager::new();
        let f = majority_of_three(&mut m);
        let before = truth_table(&m, f, 3);
        for level in [0u32, 1, 0, 1, 0] {
            m.swap_adjacent(level);
            m.check_invariants().expect("invariants after swap");
            assert_eq!(truth_table(&m, f, 3), before);
        }
    }

    #[test]
    fn swap_is_an_involution_on_the_order() {
        let mut m = BddManager::new();
        let _ = majority_of_three(&mut m);
        let order_before: Vec<VarId> = m.var_order().to_vec();
        m.swap_adjacent(1);
        assert_ne!(m.var_order(), order_before.as_slice());
        m.swap_adjacent(1);
        assert_eq!(m.var_order(), order_before.as_slice());
        assert_eq!(m.level_of(0), 0);
        assert_eq!(m.var_at_level(2), 2);
    }

    #[test]
    fn sifting_shrinks_an_interleaving_blowup() {
        // f = (a0 AND b0) OR (a1 AND b1) OR ... with all a's declared
        // before all b's: exponential under declaration order, linear once
        // the pairs are adjacent.
        let mut m = BddManager::new();
        let n = 6u32;
        let a_vars: Vec<Bdd> = (0..n).map(|i| m.var(&format!("a{i}"))).collect();
        let b_vars: Vec<Bdd> = (0..n).map(|i| m.var(&format!("b{i}"))).collect();
        let mut f = m.zero();
        for i in 0..n as usize {
            let pair = m.and(a_vars[i], b_vars[i]);
            f = m.or(f, pair);
        }
        m.protect(f);
        let before = m.gc().live_after;
        let report = m.sift();
        m.check_invariants().expect("invariants after sifting");
        assert_eq!(report.nodes_after, m.live_node_count());
        assert!(
            report.nodes_after * 2 < before,
            "sifting should at least halve {before} nodes, got {}",
            report.nodes_after
        );
        // The function is untouched.
        let expected: u128 = {
            // Count satisfying assignments of OR of n disjoint pairs by
            // inclusion-exclusion over the complement: 4^n - 3^n.
            let total = 1u128 << (2 * n);
            let off = 3u128.pow(n);
            total - off
        };
        assert_eq!(m.sat_count(f), expected);
    }

    #[test]
    fn sift_respects_step_budget() {
        let mut m = BddManager::new();
        let n = 6u32;
        let a_vars: Vec<Bdd> = (0..n).map(|i| m.var(&format!("a{i}"))).collect();
        let b_vars: Vec<Bdd> = (0..n).map(|i| m.var(&format!("b{i}"))).collect();
        let mut f = m.zero();
        for i in 0..n as usize {
            let pair = m.and(a_vars[i], b_vars[i]);
            f = m.or(f, pair);
        }
        m.protect(f);
        let table_before = truth_table(&m, f, 2 * n);
        m.set_budget(BddBudget::default().with_max_steps(5));
        let err = m.try_sift().expect_err("5 steps cannot sift this");
        assert!(matches!(err, BddError::StepBudgetExceeded { .. }));
        // The manager is still consistent and the function intact.
        m.set_budget(BddBudget::UNLIMITED);
        m.gc();
        m.check_invariants()
            .expect("invariants after interrupted sift");
        assert_eq!(truth_table(&m, f, 2 * n), table_before);
    }
}
