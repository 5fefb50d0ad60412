//! Property-based tests on the core substrates: BDD algebra against
//! brute-force truth tables, ATPG vectors against fault simulation, logic
//! simulation against the D-algebra, analog solver against circuit theory,
//! and the conversion block's code space.
//!
//! The properties are exercised with an in-tree deterministic generator
//! (SplitMix64) instead of the `proptest` crate so the workspace builds
//! without network access; every run checks the same fixed case set.

use msatpg::bdd::{Assignment, BddManager};
use msatpg::conversion::constraints::thermometer_codes;
use msatpg::conversion::{FlashAdc, ResistorLadder};
use msatpg::core::digital_atpg::{AtpgReport, DigitalAtpg, TestOutcome};
use msatpg::digital::circuits;
use msatpg::digital::fault::{FaultList, StuckAtFault};
use msatpg::digital::fault_sim::FaultSimulator;
use msatpg::digital::logic::Logic;
use msatpg::digital::prng::SplitMix64;
use msatpg::digital::sim::{CompositeSimulator, Simulator};
use msatpg::exec::ExecPolicy;

const CASES: usize = 64;

/// A tiny Boolean expression AST for generating random formulas.
#[derive(Clone, Debug)]
enum Formula {
    Var(usize),
    Not(Box<Formula>),
    And(Box<Formula>, Box<Formula>),
    Or(Box<Formula>, Box<Formula>),
    Xor(Box<Formula>, Box<Formula>),
}

impl Formula {
    fn eval(&self, inputs: &[bool]) -> bool {
        match self {
            Formula::Var(i) => inputs[*i],
            Formula::Not(a) => !a.eval(inputs),
            Formula::And(a, b) => a.eval(inputs) && b.eval(inputs),
            Formula::Or(a, b) => a.eval(inputs) || b.eval(inputs),
            Formula::Xor(a, b) => a.eval(inputs) ^ b.eval(inputs),
        }
    }

    fn build(&self, m: &mut BddManager) -> msatpg::bdd::Bdd {
        match self {
            Formula::Var(i) => m.var(&format!("x{i}")),
            Formula::Not(a) => {
                let ba = a.build(m);
                m.not(ba)
            }
            Formula::And(a, b) => {
                let (ba, bb) = (a.build(m), b.build(m));
                m.and(ba, bb)
            }
            Formula::Or(a, b) => {
                let (ba, bb) = (a.build(m), b.build(m));
                m.or(ba, bb)
            }
            Formula::Xor(a, b) => {
                let (ba, bb) = (a.build(m), b.build(m));
                m.xor(ba, bb)
            }
        }
    }
}

/// Generates a random formula of bounded depth over `vars` variables.
fn random_formula(rng: &mut SplitMix64, vars: usize, depth: usize) -> Formula {
    if depth == 0 || rng.below(5) == 0 {
        return Formula::Var(rng.below(vars));
    }
    match rng.below(4) {
        0 => Formula::Not(Box::new(random_formula(rng, vars, depth - 1))),
        1 => Formula::And(
            Box::new(random_formula(rng, vars, depth - 1)),
            Box::new(random_formula(rng, vars, depth - 1)),
        ),
        2 => Formula::Or(
            Box::new(random_formula(rng, vars, depth - 1)),
            Box::new(random_formula(rng, vars, depth - 1)),
        ),
        _ => Formula::Xor(
            Box::new(random_formula(rng, vars, depth - 1)),
            Box::new(random_formula(rng, vars, depth - 1)),
        ),
    }
}

fn random_pattern(rng: &mut SplitMix64, width: usize) -> Vec<bool> {
    (0..width).map(|_| rng.bool()).collect()
}

const FORMULA_VARS: usize = 5;

/// The BDD of a random formula agrees with brute-force evaluation on every
/// input assignment, and its satisfying-assignment count matches.
#[test]
fn bdd_matches_truth_table() {
    let mut rng = SplitMix64::new(0xB00);
    for _ in 0..CASES {
        let formula = random_formula(&mut rng, FORMULA_VARS, 4);
        let mut m = BddManager::new();
        // Declare variables in a fixed order so eval positions match.
        for i in 0..FORMULA_VARS {
            m.var(&format!("x{i}"));
        }
        let bdd = formula.build(&mut m);
        let mut count = 0u128;
        for bits in 0..1u32 << FORMULA_VARS {
            let inputs: Vec<bool> = (0..FORMULA_VARS).map(|b| (bits >> b) & 1 == 1).collect();
            let mut asg = Assignment::new();
            for (i, &v) in inputs.iter().enumerate() {
                asg.set(i as u32, v);
            }
            let expected = formula.eval(&inputs);
            assert_eq!(
                m.eval(bdd, &asg),
                expected,
                "formula {formula:?} at {bits:05b}"
            );
            if expected {
                count += 1;
            }
        }
        assert_eq!(m.sat_count(bdd), count);
        // Every cube of the BDD satisfies the formula.
        for cube in m.cubes(bdd) {
            let mut inputs = vec![false; FORMULA_VARS];
            for (var, value) in cube.iter() {
                inputs[var as usize] = value;
            }
            assert!(formula.eval(&inputs));
        }
    }
}

/// Builds `f` on a manager while interleaving full garbage collections at
/// pseudo-random points of the build sequence.  Only the handles a correct
/// client would keep alive are protected: the pending sibling of a binary
/// node while its brother builds, and the freshly built result across the
/// collection itself.
fn build_with_gc(f: &Formula, m: &mut BddManager, rng: &mut SplitMix64) -> msatpg::bdd::Bdd {
    let result = match f {
        Formula::Var(i) => m.var(&format!("x{i}")),
        Formula::Not(a) => {
            let ba = build_with_gc(a, m, rng);
            m.not(ba)
        }
        Formula::And(a, b) => {
            let ba = build_with_gc(a, m, rng);
            m.protect(ba);
            let bb = build_with_gc(b, m, rng);
            m.unprotect(ba);
            m.and(ba, bb)
        }
        Formula::Or(a, b) => {
            let ba = build_with_gc(a, m, rng);
            m.protect(ba);
            let bb = build_with_gc(b, m, rng);
            m.unprotect(ba);
            m.or(ba, bb)
        }
        Formula::Xor(a, b) => {
            let ba = build_with_gc(a, m, rng);
            m.protect(ba);
            let bb = build_with_gc(b, m, rng);
            m.unprotect(ba);
            m.xor(ba, bb)
        }
    };
    if rng.below(3) == 0 {
        m.protect(result);
        let _ = m.gc();
        m.unprotect(result);
    }
    result
}

/// Garbage collection is invisible: a build interleaved with `gc()` at
/// arbitrary points agrees with an uncollected build on every evaluation,
/// on the satisfying-assignment count, on the exact cube cover and on the
/// byte-for-byte DOT rendering.
#[test]
fn bdd_gc_interleaving_is_invisible() {
    use msatpg::bdd::{to_dot, Cube};
    let mut rng = SplitMix64::new(0x6C0);
    let mut collections = 0u64;
    for _ in 0..CASES {
        let formula = random_formula(&mut rng, FORMULA_VARS, 4);
        let mut plain = BddManager::new();
        let mut collected = BddManager::new();
        for i in 0..FORMULA_VARS {
            plain.var(&format!("x{i}"));
            collected.var(&format!("x{i}"));
        }
        let reference = formula.build(&mut plain);
        let built = build_with_gc(&formula, &mut collected, &mut rng);
        collections += collected.stats().gc_runs;
        for bits in 0..1u32 << FORMULA_VARS {
            let mut asg = Assignment::new();
            for b in 0..FORMULA_VARS {
                asg.set(b as u32, (bits >> b) & 1 == 1);
            }
            assert_eq!(
                collected.eval(built, &asg),
                plain.eval(reference, &asg),
                "formula {formula:?} at {bits:05b}"
            );
        }
        assert_eq!(collected.sat_count(built), plain.sat_count(reference));
        let collected_cubes: Vec<Cube> = collected.cubes(built).collect();
        let plain_cubes: Vec<Cube> = plain.cubes(reference).collect();
        assert_eq!(collected_cubes, plain_cubes, "cube covers diverge");
        assert_eq!(
            to_dot(&collected, built, "f"),
            to_dot(&plain, reference, "f"),
            "DOT rendering diverges after GC"
        );
    }
    assert!(
        collections > 0,
        "the interleaving must actually have collected"
    );
}

/// Adjacent-level swaps are invisible to the algebra: after every swap of a
/// random adjacent level pair, the BDD of a random formula still agrees
/// with brute-force evaluation on *every* assignment (exhaustive over all
/// 2^8 inputs), the satisfying-assignment count is unchanged, and the
/// manager passes the full canonical-form validator
/// (`BddManager::check_invariants`: var↔level permutation consistency,
/// regular high edges, reduction, strictly increasing child levels, exact
/// unique-table membership).  The protected root handle is never
/// renumbered — the original `Bdd` value keeps denoting the function.
#[test]
fn bdd_swap_adjacent_preserves_semantics_and_invariants() {
    const SWAP_VARS: usize = 8;
    let mut rng = SplitMix64::new(0x5A4B);
    for case in 0..CASES {
        let formula = random_formula(&mut rng, SWAP_VARS, 4);
        let mut m = BddManager::new();
        for i in 0..SWAP_VARS {
            m.var(&format!("x{i}"));
        }
        let f = formula.build(&mut m);
        m.protect(f);
        let expected_count = m.sat_count(f);
        for swap in 0..12 {
            let level = rng.below(SWAP_VARS - 1) as u32;
            m.swap_adjacent(level);
            m.check_invariants()
                .unwrap_or_else(|e| panic!("case {case} swap {swap} level {level}: {e}"));
            for bits in 0..1u32 << SWAP_VARS {
                let inputs: Vec<bool> = (0..SWAP_VARS).map(|b| (bits >> b) & 1 == 1).collect();
                let mut asg = Assignment::new();
                for (i, &v) in inputs.iter().enumerate() {
                    asg.set(i as u32, v);
                }
                assert_eq!(
                    m.eval(f, &asg),
                    formula.eval(&inputs),
                    "case {case} swap {swap} level {level} at {bits:08b}"
                );
            }
            assert_eq!(
                m.sat_count(f),
                expected_count,
                "case {case} swap {swap}: sat count drifted"
            );
        }
        m.unprotect(f);
    }
}

/// Builds `f` while interleaving garbage collections *and* full sifting
/// passes at pseudo-random points, protecting exactly what a correct
/// client would keep alive (sifting collects internally, so it has the
/// same root-protection contract as `gc`).  Returns the built handle and
/// accumulates the number of level swaps performed into `swaps`.
fn build_with_gc_and_sift(
    f: &Formula,
    m: &mut BddManager,
    rng: &mut SplitMix64,
    swaps: &mut u64,
) -> msatpg::bdd::Bdd {
    let result = match f {
        Formula::Var(i) => m.var(&format!("x{i}")),
        Formula::Not(a) => {
            let ba = build_with_gc_and_sift(a, m, rng, swaps);
            m.not(ba)
        }
        Formula::And(a, b) => {
            let ba = build_with_gc_and_sift(a, m, rng, swaps);
            m.protect(ba);
            let bb = build_with_gc_and_sift(b, m, rng, swaps);
            m.unprotect(ba);
            m.and(ba, bb)
        }
        Formula::Or(a, b) => {
            let ba = build_with_gc_and_sift(a, m, rng, swaps);
            m.protect(ba);
            let bb = build_with_gc_and_sift(b, m, rng, swaps);
            m.unprotect(ba);
            m.or(ba, bb)
        }
        Formula::Xor(a, b) => {
            let ba = build_with_gc_and_sift(a, m, rng, swaps);
            m.protect(ba);
            let bb = build_with_gc_and_sift(b, m, rng, swaps);
            m.unprotect(ba);
            m.xor(ba, bb)
        }
    };
    if rng.below(3) == 0 {
        m.protect(result);
        if rng.bool() {
            let _ = m.gc();
        } else {
            *swaps += m.sift().swaps as u64;
        }
        m.unprotect(result);
    }
    result
}

/// Sifting interleaved with garbage collection is invisible to the
/// algebra: a build sprinkled with `gc()` and `sift()` calls agrees with
/// the never-reordered build on every evaluation and on the
/// satisfying-assignment count; two identical interleaved runs are
/// byte-identical in their DOT renderings and cube covers (reordering is
/// deterministic); and one more sift on the finished manager neither
/// renumbers the protected root nor breaks the canonical invariants.
#[test]
fn bdd_sift_and_gc_interleaving_is_invisible() {
    use msatpg::bdd::{to_dot, Cube};
    let mut swaps = 0u64;
    for case in 0..CASES {
        let seed = 0x51F7u64.wrapping_add((case as u64) << 8);
        let formula = {
            let mut frng = SplitMix64::new(seed);
            random_formula(&mut frng, FORMULA_VARS, 4)
        };
        let mut plain = BddManager::new();
        for i in 0..FORMULA_VARS {
            plain.var(&format!("x{i}"));
        }
        let reference = formula.build(&mut plain);
        let mut run = || {
            let mut rng = SplitMix64::new(seed ^ 0xABCD_EF01);
            let mut m = BddManager::new();
            for i in 0..FORMULA_VARS {
                m.var(&format!("x{i}"));
            }
            let built = build_with_gc_and_sift(&formula, &mut m, &mut rng, &mut swaps);
            (m, built)
        };
        let (mut first, built) = run();
        let (second, twin) = run();
        assert_eq!(
            to_dot(&first, built, "f"),
            to_dot(&second, twin, "f"),
            "case {case}: twin interleaved runs diverge in DOT"
        );
        let first_cubes: Vec<Cube> = first.cubes(built).collect();
        let twin_cubes: Vec<Cube> = second.cubes(twin).collect();
        assert_eq!(first_cubes, twin_cubes, "case {case}: twin cube covers");
        first
            .check_invariants()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        // One more full sift on the finished manager: the protected root
        // still denotes the same function afterwards.
        first.protect(built);
        swaps += first.sift().swaps as u64;
        first
            .check_invariants()
            .unwrap_or_else(|e| panic!("case {case} after final sift: {e}"));
        for bits in 0..1u32 << FORMULA_VARS {
            let mut asg = Assignment::new();
            for b in 0..FORMULA_VARS {
                asg.set(b as u32, (bits >> b) & 1 == 1);
            }
            assert_eq!(
                first.eval(built, &asg),
                plain.eval(reference, &asg),
                "case {case} formula {formula:?} at {bits:05b}"
            );
        }
        assert_eq!(first.sat_count(built), plain.sat_count(reference));
        first.unprotect(built);
    }
    assert!(swaps > 0, "the interleaving must actually have reordered");
}

/// Shannon expansion: f = (x AND f|x=1) OR (!x AND f|x=0) for every variable.
#[test]
fn bdd_shannon_expansion() {
    let mut rng = SplitMix64::new(0x5A);
    for _ in 0..CASES {
        let formula = random_formula(&mut rng, FORMULA_VARS, 4);
        let var = rng.below(FORMULA_VARS);
        let mut m = BddManager::new();
        for i in 0..FORMULA_VARS {
            m.var(&format!("x{i}"));
        }
        let f = formula.build(&mut m);
        let v = var as u32;
        let f1 = m.restrict(f, v, true);
        let f0 = m.restrict(f, v, false);
        let x = m.literal(v, true);
        let nx = m.literal(v, false);
        let left = m.and(x, f1);
        let right = m.and(nx, f0);
        let rebuilt = m.or(left, right);
        assert_eq!(
            rebuilt, f,
            "Shannon expansion failed for {formula:?} on x{var}"
        );
    }
}

/// Checks `boolean_difference` and `restrict` of `f` (built from
/// `formula` over `x0..x{DIFF_VARS-1}`) for every declared variable and one
/// undeclared `VarId`: the one-pass difference equals the XOR of the two
/// restrictions, ignores the root's complement flag, and agrees with
/// exhaustive evaluation of the formula; each restriction commutes with
/// complement and matches the formula with that variable fixed.  Returns
/// the difference handles, one per checked variable.
fn check_boolean_difference(
    m: &mut BddManager,
    formula: &Formula,
    f: msatpg::bdd::Bdd,
    context: &str,
) -> Vec<msatpg::bdd::Bdd> {
    const UNDECLARED: u32 = 1000;
    let vars: Vec<u32> = (0..m.var_count() as u32)
        .chain(std::iter::once(UNDECLARED))
        .collect();
    let mut diffs = Vec::with_capacity(vars.len());
    for &v in &vars {
        let diff = m.boolean_difference(f, v);
        let f0 = m.restrict(f, v, false);
        let f1 = m.restrict(f, v, true);
        let reference = m.xor(f0, f1);
        assert_eq!(diff, reference, "{context}: df/dx{v} vs cofactor XOR");
        assert_eq!(
            m.boolean_difference(!f, v),
            diff,
            "{context}: d(!f)/dx{v} must equal df/dx{v}"
        );
        assert_eq!(m.restrict(!f, v, false), !f0, "{context}: !f|x{v}=0");
        assert_eq!(m.restrict(!f, v, true), !f1, "{context}: !f|x{v}=1");
        for bits in 0..1u32 << DIFF_VARS {
            let mut inputs: Vec<bool> = (0..DIFF_VARS).map(|b| (bits >> b) & 1 == 1).collect();
            let mut asg = Assignment::new();
            for (i, &value) in inputs.iter().enumerate() {
                asg.set(i as u32, value);
            }
            let expected = match inputs.get_mut(v as usize) {
                Some(slot) => {
                    *slot = false;
                    let low = formula.eval(&inputs);
                    inputs[v as usize] = true;
                    let high = formula.eval(&inputs);
                    assert_eq!(m.eval(f0, &asg), low, "{context}: f|x{v}=0 at {bits:08b}");
                    assert_eq!(m.eval(f1, &asg), high, "{context}: f|x{v}=1 at {bits:08b}");
                    low ^ high
                }
                // Outside the formula's variables (declared but unused, or
                // undeclared): nothing observes it.
                None => false,
            };
            assert_eq!(
                m.eval(diff, &asg),
                expected,
                "{context}: df/dx{v} at {bits:08b}"
            );
        }
        diffs.push(diff);
    }
    diffs
}

const DIFF_VARS: usize = 8;

/// The one-pass Boolean difference is the XOR of the two cofactors, for
/// every variable of random formulas over 8 inputs (≤ 2^8 assignments
/// checked exhaustively), a declared variable outside the support, an
/// undeclared `VarId` and complemented roots — before and after sifting
/// permutes the order, and across a garbage collection, where the
/// recomputed results must be the very same handles.
#[test]
fn bdd_boolean_difference_matches_cofactor_xor() {
    let mut rng = SplitMix64::new(0xD1FF);
    let mut reordered = 0;
    for case in 0..CASES {
        let formula = random_formula(&mut rng, DIFF_VARS, 5);
        let mut m = BddManager::new();
        // One more variable than the formula uses: always outside the
        // support.
        for i in 0..=DIFF_VARS {
            m.var(&format!("x{i}"));
        }
        let f = formula.build(&mut m);
        let before = check_boolean_difference(&mut m, &formula, f, &format!("case {case}"));
        m.protect(f);
        for &d in &before {
            m.protect(d);
        }
        let order: Vec<u32> = m.var_order().to_vec();
        m.sift();
        if m.var_order() != order.as_slice() {
            reordered += 1;
        }
        let sifted = check_boolean_difference(&mut m, &formula, f, &format!("case {case} sifted"));
        assert_eq!(sifted, before, "case {case}: handles drifted across sift");
        m.gc();
        let collected =
            check_boolean_difference(&mut m, &formula, f, &format!("case {case} after gc"));
        assert_eq!(collected, before, "case {case}: handles drifted across gc");
    }
    assert!(reordered > 0, "sifting must have permuted some order");
}

/// Cofactoring is linear in BDD size, not in paths: on a 40-input parity
/// chain with `D` at the bottom level (2^40 paths through ~40 complement-
/// edged nodes), the Boolean difference and both restrictions at `D`
/// finish within a step quota of four steps per node.
#[test]
fn bdd_cofactoring_is_linear_in_nodes_not_paths() {
    use msatpg::bdd::BddBudget;
    const INPUTS: usize = 40;
    let mut m = BddManager::new();
    let xs: Vec<_> = (0..INPUTS).map(|i| m.var(&format!("x{i}"))).collect();
    let d = m.var_id("D");
    let d_lit = m.literal(d, true);
    let mut f = d_lit;
    for &x in xs.iter().rev() {
        f = m.xor(x, f);
    }
    let size = m.size(f);
    assert!(size > INPUTS && size <= 2 * (INPUTS + 1), "size {size}");
    let budget = BddBudget::UNLIMITED.with_max_steps(4 * size as u64);
    for root in [f, !f] {
        m.clear_caches();
        m.set_budget(budget);
        let diff = m.try_boolean_difference(root, d);
        assert_eq!(diff, Ok(m.one()), "d(parity)/dD is constant 1");
        for value in [false, true] {
            m.clear_caches();
            m.set_budget(budget);
            let cofactor = m
                .try_restrict(root, d, value)
                .expect("restriction at the bottom level within 4 steps per node");
            m.set_budget(BddBudget::UNLIMITED);
            assert_eq!(m.size(cofactor), INPUTS);
            assert_eq!(m.xor(cofactor, root), if value { !d_lit } else { d_lit });
        }
    }
}

/// The 4-bit adder circuit computes a + b + cin for all operands.
/// The product-free extraction is `sat_one` of the product: on random
/// pairs with complement edges and shared subgraphs, over the declaration
/// order, after random adjacent swaps and after sifting,
/// `try_sat_one_and(f, g)` equals `sat_one(and(f, g))` as an
/// `Option<Cube>` (don't-cares included), creates no node, and does not
/// depend on the operand order.  It runs on cold caches and again once the
/// product sits in the apply cache.
#[test]
fn bdd_sat_one_and_is_sat_one_of_the_product() {
    const VARS: usize = 8;
    let mut rng = SplitMix64::new(0x5A71);
    let mut satisfiable = 0;
    for case in 0..CASES {
        let mut m = BddManager::new();
        for i in 0..VARS {
            m.var(&format!("x{i}"));
        }
        let f = random_formula(&mut rng, VARS, 5).build(&mut m);
        let h = random_formula(&mut rng, VARS, 4).build(&mut m);
        // Three of four second operands share subgraphs with `f`.
        let g = match rng.below(4) {
            0 => h,
            1 => m.xor(f, h),
            2 => m.or(f, h),
            _ => m.and(!f, h),
        };
        m.protect(f);
        m.protect(g);
        match case % 3 {
            0 => {}
            1 => {
                for _ in 0..6 {
                    m.swap_adjacent(rng.below(VARS - 1) as u32);
                }
            }
            _ => {
                m.sift();
            }
        }
        for (a, b) in [(f, g), (f, !g), (!f, g), (f, f)] {
            let context = format!("case {case} order {:?}", m.var_order());
            m.clear_caches();
            let (created, live) = (m.stats().created_nodes, m.live_node_count());
            let found = m.try_sat_one_and(a, b).unwrap();
            assert_eq!(
                (m.stats().created_nodes, m.live_node_count()),
                (created, live),
                "{context}: the search created nodes"
            );
            m.clear_caches();
            assert_eq!(
                m.try_sat_one_and(b, a).unwrap(),
                found,
                "{context}: operand order"
            );
            let product = m.and(a, b);
            let expected = m.sat_one(product);
            assert_eq!(found, expected, "{context}: cold caches");
            assert_eq!(
                m.try_sat_one_and(a, b).unwrap(),
                expected,
                "{context}: product in the apply cache"
            );
            satisfiable += usize::from(expected.is_some());
        }
        m.unprotect(f);
        m.unprotect(g);
    }
    assert!(satisfiable > CASES, "{satisfiable} satisfiable pairs");
}

#[test]
fn adder_matches_arithmetic() {
    let adder = circuits::adder4();
    let mut rng = SplitMix64::new(0xADD);
    for _ in 0..CASES {
        let (a, b, cin) = (
            rng.below(16) as u32,
            rng.below(16) as u32,
            rng.below(2) as u32,
        );
        let mut pattern = Vec::new();
        for i in 0..4 {
            pattern.push((a >> i) & 1 == 1);
        }
        for i in 0..4 {
            pattern.push((b >> i) & 1 == 1);
        }
        pattern.push(cin == 1);
        let out = adder.evaluate(&pattern).unwrap();
        let mut value = 0u32;
        for (i, &bit) in out.iter().enumerate() {
            if bit {
                value |= 1 << i;
            }
        }
        assert_eq!(value, a + b + cin);
    }
}

/// Parallel-pattern simulation agrees with serial simulation on the Figure-3
/// circuit for arbitrary pattern batches, across lanes of a wide block.
#[test]
fn parallel_simulation_matches_serial() {
    let circuit = circuits::figure3_circuit();
    let sim = Simulator::new(&circuit);
    let mut rng = SplitMix64::new(0x9A12);
    for _ in 0..CASES {
        let batch = 1 + rng.below(200);
        let patterns: Vec<Vec<bool>> = (0..batch).map(|_| random_pattern(&mut rng, 4)).collect();
        let blocks = sim.run_parallel_blocks::<8>(&patterns).unwrap();
        for (p, pattern) in patterns.iter().enumerate() {
            let serial = circuit.evaluate(pattern).unwrap();
            for (o, po) in circuit.primary_outputs().iter().enumerate() {
                let block = &blocks[po.index()];
                assert_eq!((block[p / 64] >> (p % 64)) & 1 == 1, serial[o]);
            }
        }
    }
}

/// The five-valued composite simulation is consistent with running the good
/// and the faulty two-valued simulations separately.
#[test]
fn composite_simulation_matches_good_and_faulty() {
    let circuit = circuits::figure3_circuit();
    let mut rng = SplitMix64::new(0xD);
    for _ in 0..CASES * 4 {
        let pattern = random_pattern(&mut rng, 4);
        let line = rng.below(9);
        let stuck = rng.bool();
        let signal = circuit.signals()[line];
        // Good and faulty two-valued simulations.
        let good = circuit.evaluate_all(&pattern).unwrap();
        let fault = if stuck {
            StuckAtFault::sa1(signal)
        } else {
            StuckAtFault::sa0(signal)
        };
        let detected = FaultSimulator::new(&circuit)
            .detects(fault, &pattern)
            .unwrap();
        // Only activated faults are interesting for the composite check.
        let good_at_line = good[line];
        if good_at_line == stuck {
            continue;
        }
        let composite = Logic::from_pair(good_at_line, stuck);
        let mut sim = CompositeSimulator::new(&circuit);
        sim.force(signal, composite);
        let inputs: Vec<Logic> = pattern.iter().map(|&b| Logic::from(b)).collect();
        let propagates = sim.propagates_fault(&inputs).unwrap();
        assert_eq!(propagates, detected);
    }
}

/// Every vector produced by the OBDD ATPG for a fault of the Figure-3
/// circuit is confirmed by fault simulation.
#[test]
fn atpg_vectors_are_confirmed_by_simulation() {
    let circuit = circuits::figure3_circuit();
    let faults = FaultList::all(&circuit);
    for &fault in faults.faults() {
        let mut atpg = DigitalAtpg::new(&circuit);
        match atpg.generate(fault) {
            TestOutcome::Detected(vector) => {
                let sim = FaultSimulator::new(&circuit);
                assert!(sim.detects(fault, &vector.concretize(false)).unwrap());
                assert!(sim.detects(fault, &vector.concretize(true)).unwrap());
            }
            TestOutcome::Untestable => {
                // The stand-alone Figure-3 circuit is fully testable.
                panic!("unexpected untestable fault {fault}");
            }
            TestOutcome::PreviouslyDetected => {}
            TestOutcome::Degraded(_) | TestOutcome::Aborted(_) => {
                // No budget or cancel token is armed on this engine.
                panic!("unexpected governed outcome for fault {fault}");
            }
        }
    }
}

/// Flash-converter output codes are always thermometer codes and are
/// monotone in the input voltage.
#[test]
fn flash_codes_are_thermometer_and_monotone() {
    let adc = FlashAdc::uniform(15, 4.0).unwrap();
    let codes = thermometer_codes(15);
    let mut rng = SplitMix64::new(0xF1A5);
    for _ in 0..CASES {
        let vin_a = rng.f64() * 4.0;
        let vin_b = rng.f64() * 4.0;
        let code_a = adc.convert(vin_a);
        let code_b = adc.convert(vin_b);
        assert!(codes.allows(&code_a));
        assert!(codes.allows(&code_b));
        if vin_a <= vin_b {
            assert!(adc.convert_to_count(vin_a) <= adc.convert_to_count(vin_b));
        }
    }
}

/// Ladder tap voltages are strictly increasing and bounded by the rails, for
/// arbitrary positive resistor values.
#[test]
fn ladder_taps_are_monotone() {
    let mut rng = SplitMix64::new(0x1ADD);
    for _ in 0..CASES {
        let count = 2 + rng.below(10);
        let resistors: Vec<f64> = (0..count).map(|_| 1.0 + rng.f64() * 99.0).collect();
        let ladder = ResistorLadder::new(resistors, 5.0).unwrap();
        let taps = ladder.tap_voltages();
        for window in taps.windows(2) {
            assert!(window[0] < window[1]);
        }
        assert!(taps.first().copied().unwrap_or(0.1) > 0.0);
        assert!(taps.last().copied().unwrap_or(0.0) < 5.0);
    }
}

/// The PPSFP fault-simulation engine and the serial reference detect exactly
/// the same fault sets (and therefore report the same coverage) on the
/// ISCAS-style benchmark circuits, across pattern-set sizes that exercise
/// partial and multiple 64-pattern words.
#[test]
fn ppsfp_coverage_matches_serial_on_benchmarks() {
    use msatpg::digital::benchmarks;
    let mut rng = SplitMix64::new(0x99F5);
    for name in ["c432", "c499", "c880"] {
        let n = benchmarks::by_name(name).unwrap();
        let faults = FaultList::collapsed(&n);
        let sim = FaultSimulator::new(&n);
        for &count in &[1usize, 17, 64, 90] {
            let patterns: Vec<Vec<bool>> = (0..count)
                .map(|_| random_pattern(&mut rng, n.primary_inputs().len()))
                .collect();
            let ppsfp = sim.run(&faults, &patterns).unwrap();
            let serial = sim.run_serial(&faults, &patterns).unwrap();
            let mut d1 = ppsfp.detected().to_vec();
            let mut d2 = serial.detected().to_vec();
            d1.sort();
            d2.sort();
            assert_eq!(d1, d2, "{name}: detected sets differ for {count} patterns");
            assert_eq!(
                ppsfp.undetected().len(),
                serial.undetected().len(),
                "{name}: undetected counts differ for {count} patterns"
            );
            assert!((ppsfp.coverage() - serial.coverage()).abs() < 1e-12);
        }
    }
}

/// Patching element values through a live MNA engine gives the same
/// frequency response as stamping a freshly deviated circuit, for random
/// deviations of random elements of the band-pass filter.
#[test]
fn patched_mna_matches_rebuilt_circuit() {
    use msatpg::analog::filters;
    use msatpg::analog::mna::Mna;
    let filter = filters::second_order_band_pass();
    let circuit = filter.circuit();
    let output = filter.output_node();
    let passive = circuit.passive_elements();
    let mna = Mna::new(circuit);
    let mut rng = SplitMix64::new(0xACDC);
    for _ in 0..24 {
        let element = passive[rng.below(passive.len())];
        let factor = 0.25 + rng.f64() * 3.0; // deviations from −75 % to +225 %
        mna.scale_value(element, factor);
        let mut rebuilt = circuit.clone();
        rebuilt.scale_value(element, factor);
        let reference = Mna::new(&rebuilt);
        for &freq in &[10.0, 400.0, 1.0e3, 2.5e3, 40.0e3] {
            let a = mna.gain("Vin", output, freq).unwrap();
            let b = reference.gain("Vin", output, freq).unwrap();
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "patched {a} vs rebuilt {b} at {freq} Hz"
            );
        }
        mna.reset_values();
    }
}

/// A random linear circuit: its non-ground nodes and its deviable elements,
/// one of each kind first (`[R, C, L, VCVS, op-amp, …]`).
struct RandomAnalogCircuit {
    circuit: msatpg::analog::netlist::Circuit,
    nodes: Vec<msatpg::analog::netlist::NodeId>,
    deviable: Vec<msatpg::analog::netlist::ElementId>,
}

/// A random circuit driven by `Vin` at node `n1`: a resistor tree over
/// `n1..nK` with random loads and capacitors, one inductor to ground, a
/// VCVS buffer and a finite-gain inverting op-amp stage feeding back into
/// the tree.
fn random_analog_circuit(rng: &mut SplitMix64) -> RandomAnalogCircuit {
    use msatpg::analog::netlist::{Circuit, OpAmpModel};
    let mut c = Circuit::new();
    let value = |rng: &mut SplitMix64, base: f64| base * (0.2 + 5.0 * rng.f64());
    let nodes: Vec<_> = (1..=3 + rng.below(4))
        .map(|i| c.node(&format!("n{i}")))
        .collect();
    c.voltage_source("Vin", nodes[0], Circuit::GROUND, 1.0, 1.0);
    let mut resistors = Vec::new();
    let mut capacitors = Vec::new();
    for i in 1..nodes.len() {
        let parent = nodes[rng.below(i)];
        resistors.push(c.resistor(&format!("Rt{i}"), parent, nodes[i], value(rng, 1.0e3)));
        if rng.below(2) == 0 {
            let load = value(rng, 10.0e3);
            resistors.push(c.resistor(&format!("Rl{i}"), nodes[i], Circuit::GROUND, load));
        }
        let other = match rng.below(nodes.len()) {
            j if j == i => Circuit::GROUND,
            j => nodes[j],
        };
        capacitors.push(c.capacitor(&format!("C{i}"), nodes[i], other, value(rng, 10.0e-9)));
    }
    // The inductor never touches `n1`, which would short the source at DC.
    let tap = nodes[1 + rng.below(nodes.len() - 1)];
    let inductor = c.inductor("L1", tap, Circuit::GROUND, value(rng, 0.1));
    let buffered = c.node("e_out");
    let vcvs = c.vcvs(
        "E1",
        buffered,
        Circuit::GROUND,
        nodes[rng.below(nodes.len())],
        Circuit::GROUND,
        value(rng, 1.0),
    );
    let feedback = nodes[1 + rng.below(nodes.len() - 1)];
    resistors.push(c.resistor("Re", buffered, feedback, value(rng, 10.0e3)));
    let minus = c.node("a_minus");
    let out = c.node("a_out");
    resistors.push(c.resistor(
        "Rin",
        nodes[rng.below(nodes.len())],
        minus,
        value(rng, 1.0e3),
    ));
    resistors.push(c.resistor("Rf", minus, out, value(rng, 10.0e3)));
    resistors.push(c.resistor("Rb", out, feedback, value(rng, 10.0e3)));
    let opamp = c.opamp(
        "A1",
        Circuit::GROUND,
        minus,
        out,
        OpAmpModel::FiniteGain {
            a0: value(rng, 1.0e5),
            pole_hz: value(rng, 10.0),
        },
    );
    let mut deviable = vec![resistors[0], capacitors[0], inductor, vcvs, opamp];
    deviable.extend(&resistors[1..]);
    deviable.extend(&capacitors[1..]);
    let mut all_nodes = nodes;
    all_nodes.extend([buffered, minus, out]);
    RandomAnalogCircuit {
        circuit: c,
        nodes: all_nodes,
        deviable,
    }
}

/// The transfer from `Vin` to every node at `freq`.
fn node_transfers(
    mna: &msatpg::analog::mna::Mna<'_>,
    nodes: &[msatpg::analog::netlist::NodeId],
    freq: f64,
) -> Result<Vec<msatpg::analog::Complex>, msatpg::analog::AnalogError> {
    nodes
        .iter()
        .map(|&node| mna.transfer("Vin", node, freq))
        .collect()
}

/// Frequencies the low-rank properties probe, DC included.
const PROBE_FREQUENCIES: [f64; 5] = [0.0, 1.0, 159.0, 1.0e4, 1.0e6];

/// A deviated solve — a Sherman–Morrison(–Woodbury) update of the nominal
/// factorization — matches a freshly stamped engine of the deviated circuit
/// to 1e-9 relative, for every element kind (R, C, L, VCVS gain,
/// finite op-amp gain), deviations across [−99.9 %, +500 %], one to four
/// elements deviated at once, and frequencies from DC up.
#[test]
fn low_rank_solve_matches_fresh_stamping_on_random_circuits() {
    use msatpg::analog::mna::Mna;
    let mut rng = SplitMix64::new(0x5EED_0A0A);
    for case in 0..CASES {
        let random = random_analog_circuit(&mut rng);
        let mna = Mna::new(&random.circuit);
        // One element at a time (k = 1, the search's case): each kind at
        // both ends of the range and once in between, a few more elements
        // once each; then two to four elements at once.
        let mut deviation_sets: Vec<Vec<_>> = Vec::new();
        for (i, &element) in random.deviable.iter().take(8).enumerate() {
            if i < 5 {
                deviation_sets.push(vec![(element, -0.999)]);
                deviation_sets.push(vec![(element, 5.0)]);
            }
            deviation_sets.push(vec![(element, -0.999 + 5.999 * rng.f64())]);
        }
        for k in 2..=4 {
            deviation_sets.push(
                random.deviable[..k]
                    .iter()
                    .map(|&element| (element, -0.9 + 3.0 * rng.f64()))
                    .collect(),
            );
        }
        for set in &deviation_sets {
            let mut deviated = random.circuit.clone();
            for &(element, deviation) in set {
                let value = random.circuit.value(element) * (1.0 + deviation);
                mna.set_value(element, value);
                deviated.set_value(element, value);
            }
            let reference = Mna::new(&deviated);
            for freq in PROBE_FREQUENCIES {
                let fast = node_transfers(&mna, &random.nodes, freq).unwrap();
                let fresh = node_transfers(&reference, &random.nodes, freq).unwrap();
                // Relative to the node's own voltage, floored at 1 % of the
                // largest one: on a node the circuit pins to zero (an
                // inductor tap at DC) either solve carries only round-off of
                // the solution's scale.
                let scale = fresh.iter().fold(0.0f64, |m, x| m.max(x.abs()));
                for (a, b) in fast.iter().zip(&fresh) {
                    let rel = (*a - *b).abs() / b.abs().max(1e-2 * scale);
                    assert!(
                        rel <= 1e-9,
                        "case {case}, deviations {set:?}, {freq} Hz: \
                         low-rank {a} vs fresh {b} (relative {rel:e})"
                    );
                }
            }
            mna.reset_values();
        }
    }
}

/// The engine keeps no history: after any sequence of `set_value` calls
/// (including a resistor through exactly zero and element values put back
/// to nominal) interleaved with solves, every solve is bit-identical to a
/// freshly built engine holding the same values.
#[test]
fn mna_solves_are_independent_of_set_value_history() {
    use msatpg::analog::mna::Mna;
    let mut rng = SplitMix64::new(0xB1_7E57);
    for case in 0..CASES / 4 {
        let random = random_analog_circuit(&mut rng);
        let circuit = &random.circuit;
        let mna = Mna::new(circuit);
        for step in 0..12 {
            let element = random.deviable[rng.below(random.deviable.len())];
            let nominal = circuit.value(element);
            let value = match rng.below(6) {
                0 => nominal,
                1 if element == random.deviable[0] => 0.0,
                _ => nominal * (0.001 + 5.0 * rng.f64()),
            };
            mna.set_value(element, value);
            let fresh = Mna::new(circuit);
            for &e in &random.deviable {
                fresh.set_value(e, mna.value(e));
            }
            for freq in PROBE_FREQUENCIES {
                let bits = |mna: &Mna<'_>| {
                    node_transfers(mna, &random.nodes, freq).map(|v| {
                        v.iter()
                            .map(|x| (x.re.to_bits(), x.im.to_bits()))
                            .collect::<Vec<_>>()
                    })
                };
                assert_eq!(
                    bits(&mna),
                    bits(&fresh),
                    "case {case}, step {step}, {freq} Hz"
                );
            }
        }
    }
}

/// The rank-1 memo of the cached factors (`x₀` per single-source drive,
/// `Z = A₀⁻¹·P` per deviated set) is invisible: a long-lived engine that
/// interleaves DC, all-source AC (after a `set_value` on the source),
/// single-source and transfer solves, revisits a few frequencies under
/// changing sets of zero to three deviated elements, and cycles through
/// 600 distinct frequencies (more than the cache holds, so slots are
/// evicted and re-used) answers every solve bit-identically to a freshly
/// built engine holding the same values.
#[test]
fn mna_memo_is_invisible_across_drives_deviations_and_eviction() {
    use msatpg::analog::mna::{Mna, Solution};
    use msatpg::analog::AnalogError;
    const DISTINCT: usize = 600;
    let mut rng = SplitMix64::new(0x3E40_0A11);
    for case in 0..CASES / 16 {
        let random = random_analog_circuit(&mut rng);
        let circuit = &random.circuit;
        let source = circuit.find_element("Vin").unwrap();
        let mna = Mna::new(circuit);
        let mut next = 0usize;
        for step in 0..3 * DISTINCT {
            if step % 7 == 0 {
                mna.reset_values();
                for _ in 0..rng.below(4) {
                    let element = random.deviable[rng.below(random.deviable.len())];
                    let value = circuit.value(element) * (0.05 + 4.0 * rng.f64());
                    mna.set_value(element, value);
                }
                mna.set_value(source, 0.5 + rng.f64());
            }
            let freq = if rng.bool() {
                PROBE_FREQUENCIES[rng.below(PROBE_FREQUENCIES.len())]
            } else {
                next += 1;
                10f64.powf(-1.0 + 7.0 * (next % DISTINCT) as f64 / DISTINCT as f64)
            };
            let fresh = Mna::new(circuit);
            for &e in random.deviable.iter().chain([&source]) {
                fresh.set_value(e, mna.value(e));
            }
            let magnitude = [1.0, 2.5][rng.below(2)];
            let drive = rng.below(4);
            let bits = |mna: &Mna<'_>| -> Result<Vec<(u64, u64)>, AnalogError> {
                let voltages = |s: Solution| random.nodes.iter().map(move |&n| s.voltage(n));
                let values: Vec<_> = match drive {
                    0 => voltages(mna.solve_dc()?).collect(),
                    1 => voltages(mna.solve_ac(freq)?).collect(),
                    2 => voltages(mna.solve_single_source("Vin", magnitude, freq)?).collect(),
                    _ => node_transfers(mna, &random.nodes, freq)?,
                };
                Ok(values
                    .iter()
                    .map(|x| (x.re.to_bits(), x.im.to_bits()))
                    .collect())
            };
            assert_eq!(
                bits(&mna),
                bits(&fresh),
                "case {case}, step {step}, drive {drive}, {freq} Hz"
            );
        }
        // The memo answered solves, and slots were evicted and re-used.
        let stats = mna.solver_stats();
        assert!(stats.memo_hits > 0, "case {case}: {stats:?}");
        assert!(
            stats.factorizations > mna.cached_system_count() as u64 + 100,
            "case {case}: {stats:?}"
        );
    }
}

/// Threshold certificate: every detected row of the worst-case analysis of
/// the board, the band-pass and the Table-3 Chebyshev filter — except the
/// center-frequency rows, whose golden-section search has a noise floor
/// above 1e-9 — is bracketed by direct solves of freshly stamped circuits:
/// in the direction that decided the row, the parameter leaves its
/// tolerance box (widened by the row's masking margin) at the reported
/// deviation `d` and stays inside at `d·(1 − 1e-9)`.
#[test]
fn deviation_thresholds_are_certified_by_fresh_solves() {
    use msatpg::analog::filters;
    use msatpg::analog::params::{measure, ParameterKind};
    use msatpg::analog::sensitivity::{normalized_sensitivity, WorstCaseAnalysis};
    use msatpg::analog::tolerance::relative_deviation;
    for filter in [
        filters::state_variable_filter(),
        filters::second_order_band_pass(),
        filters::fifth_order_chebyshev(),
    ] {
        let circuit = filter.circuit();
        let elements = circuit.passive_elements();
        let report = WorstCaseAnalysis::new(circuit, filter.parameters())
            .run()
            .unwrap();
        let mut certified = 0;
        for spec in filter.parameters() {
            if spec.kind == ParameterKind::CenterFrequency {
                continue;
            }
            let nominal = measure(circuit, spec).unwrap();
            let sensitivities: Vec<f64> = elements
                .iter()
                .map(|&e| {
                    normalized_sensitivity(circuit, spec, e, 0.01)
                        .unwrap()
                        .abs()
                })
                .collect();
            let total: f64 = sensitivities.iter().sum();
            for (row, sensitivity) in report
                .rows()
                .iter()
                .filter(|r| r.parameter == spec.name)
                .zip(&sensitivities)
            {
                let Some(d) = row.detectable_deviation else {
                    continue;
                };
                let threshold = 0.05 + (total - sensitivity) * 0.05;
                let outside = |deviation: f64| {
                    let mut deviated = circuit.clone();
                    deviated.scale_value(row.element_id, 1.0 + deviation);
                    let value = measure(&deviated, spec).unwrap();
                    relative_deviation(value, nominal).abs() > threshold
                };
                let context = format!(
                    "{}: {} via {} at {d}",
                    filter.name(),
                    row.element,
                    spec.name
                );
                let inner = d * (1.0 - 1e-9);
                assert!(
                    [1.0, -1.0]
                        .iter()
                        .any(|&sign| outside(sign * d) && !outside(sign * inner)),
                    "{context}: no direction leaves the box at d and stays inside at {inner}"
                );
                certified += 1;
            }
        }
        assert!(certified >= 10, "{}: {certified} rows", filter.name());
    }
}

/// The worker pool must be invisible in every output: whatever the thread
/// count, a parallel run is byte-identical to the serial run.  `cpu` is the
/// only [`AtpgReport`] field allowed to differ (wall-clock is inherently
/// non-deterministic, even between two serial runs).
fn assert_reports_identical(a: &AtpgReport, b: &AtpgReport, context: &str) {
    assert_eq!(a.circuit, b.circuit, "{context}: circuit");
    assert_eq!(a.total_faults, b.total_faults, "{context}: total_faults");
    assert_eq!(a.detected, b.detected, "{context}: detected");
    assert_eq!(a.untestable, b.untestable, "{context}: untestable");
    assert_eq!(a.degraded, b.degraded, "{context}: degraded");
    assert_eq!(a.aborted, b.aborted, "{context}: aborted");
    assert_eq!(a.vectors, b.vectors, "{context}: vectors");
    assert_eq!(a.constrained, b.constrained, "{context}: constrained");
}

/// The policy grid of the determinism suite for the pooled analog
/// deviation rows.  `Auto` is included so the CI thread matrix (which sets
/// `MSATPG_THREADS` around the same test binary) exercises genuinely
/// different worker counts without any code change.
fn determinism_policies() -> [ExecPolicy; 4] {
    [
        ExecPolicy::Threads(1),
        ExecPolicy::Threads(2),
        ExecPolicy::Threads(8),
        ExecPolicy::Auto,
    ]
}

/// The widened PPSFP blocks (512-bit) are byte-identical to the
/// one-lane engine on random netlists — same detected *vector* (order
/// included), same undetected list, same pattern count — across pattern
/// batches that straddle the wide block boundaries, with and without fault
/// dropping.  The serial per-pattern reference anchors
/// the detected *set* so the whole word-level family cannot drift together.
#[test]
fn wide_ppsfp_is_byte_identical_to_one_lane_on_random_netlists() {
    use msatpg::digital::fault_sim::WordWidth;
    let mut rng = SplitMix64::new(0x51D3);
    for case in 0..24 {
        let n = random_netlist(&mut rng, case);
        let faults = FaultList::collapsed(&n);
        // 1..=600 patterns: covers partial lanes, exact multiples and
        // several 512-bit blocks.
        let count = 1 + rng.below(600);
        let patterns: Vec<Vec<bool>> = (0..count)
            .map(|_| random_pattern(&mut rng, n.primary_inputs().len()))
            .collect();
        for dropping in [true, false] {
            let reference = FaultSimulator::new(&n)
                .with_fault_dropping(dropping)
                .with_word_width(WordWidth::W1)
                .run(&faults, &patterns)
                .unwrap();
            let serial = FaultSimulator::new(&n)
                .with_fault_dropping(dropping)
                .run_serial(&faults, &patterns)
                .unwrap();
            let mut set = reference.detected().to_vec();
            let mut serial_set = serial.detected().to_vec();
            set.sort();
            serial_set.sort();
            assert_eq!(
                set, serial_set,
                "case {case} dropping={dropping}: word engine vs serial"
            );
            let wide = FaultSimulator::new(&n)
                .with_fault_dropping(dropping)
                .with_word_width(WordWidth::W8)
                .run(&faults, &patterns)
                .unwrap();
            let tag = format!("case {case} dropping={dropping}");
            assert_eq!(wide.detected(), reference.detected(), "{tag}");
            assert_eq!(wide.undetected(), reference.undetected(), "{tag}");
            assert_eq!(wide.patterns_used(), reference.patterns_used(), "{tag}");
        }
    }
}

/// The parallel deviation analysis produces a bit-identical deviation matrix
/// for thread counts 1, 2 and 8, in nominal and worst-case mode.
#[test]
fn parallel_deviation_analysis_is_byte_identical_to_serial() {
    use msatpg::analog::filters;
    use msatpg::analog::sensitivity::WorstCaseAnalysis;
    let filter = filters::second_order_band_pass();
    // The two gain parameters keep the matrix small enough for a test while
    // still exercising bracketing, bisection and masking.
    let specs = &filter.parameters()[..2];
    for worst_case in [false, true] {
        let reference = WorstCaseAnalysis::new(filter.circuit(), specs)
            .with_worst_case(worst_case)
            .run()
            .unwrap();
        for policy in determinism_policies() {
            let parallel = WorstCaseAnalysis::new(filter.circuit(), specs)
                .with_worst_case(worst_case)
                .with_policy(policy)
                .run()
                .unwrap();
            // DeviationRow compares f64 thresholds with ==: bit-identity.
            assert_eq!(
                parallel.rows(),
                reference.rows(),
                "worst_case={worst_case} policy={policy:?}"
            );
        }
    }
}

/// The full mixed-signal flow — constrained and unconstrained digital ATPG,
/// deviation analysis, analog tests and conversion coverage — produces a
/// byte-identical [`msatpg::TestPlan`] for thread counts 1, 2 and 8.
#[test]
fn parallel_test_plan_is_byte_identical_to_serial() {
    use msatpg::analog::filters;
    use msatpg::conversion::constraints::AllowedCodes;
    use msatpg::core::test_plan::AtpgOptions;
    use msatpg::core::ConverterBlock;
    use msatpg::{MixedCircuit, MixedSignalAtpg};

    let figure4 = || {
        let adc = FlashAdc::uniform(2, 3.0).unwrap();
        let mut mixed = MixedCircuit::new(
            "figure4",
            filters::second_order_band_pass(),
            ConverterBlock::Flash(adc),
            circuits::figure3_circuit(),
        );
        mixed.connect_in_order(&["l0", "l2"]).unwrap();
        mixed.set_allowed_codes(AllowedCodes::new(
            2,
            vec![vec![true, false], vec![false, true], vec![true, true]],
        ));
        mixed
    };
    let reference = MixedSignalAtpg::new(figure4()).run().unwrap();
    for policy in determinism_policies() {
        let plan = MixedSignalAtpg::new(figure4())
            .with_options(AtpgOptions {
                exec: policy,
                ..AtpgOptions::default()
            })
            .run()
            .unwrap();
        assert_reports_identical(&plan.digital, &reference.digital, "constrained");
        assert_reports_identical(
            &plan.digital_unconstrained,
            &reference.digital_unconstrained,
            "unconstrained",
        );
        assert_eq!(plan.analog, reference.analog, "policy={policy:?}");
        assert_eq!(
            plan.analog_deviations.rows(),
            reference.analog_deviations.rows(),
            "policy={policy:?}"
        );
        assert_eq!(plan.conversion, reference.conversion, "policy={policy:?}");
    }
}

/// Voltage-divider DC analysis matches the analytic expression for arbitrary
/// resistor values.
#[test]
fn mna_divider_matches_theory() {
    use msatpg::analog::mna::Mna;
    use msatpg::analog::netlist::Circuit;
    let mut rng = SplitMix64::new(0xD1);
    for _ in 0..CASES {
        let r1 = 10.0 + rng.f64() * 1.0e6;
        let r2 = 10.0 + rng.f64() * 1.0e6;
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.voltage_source("Vin", vin, Circuit::GROUND, 1.0, 1.0);
        c.resistor("R1", vin, vout, r1);
        c.resistor("R2", vout, Circuit::GROUND, r2);
        let sol = Mna::new(&c).solve_dc().unwrap();
        let expected = r2 / (r1 + r2);
        assert!((sol.voltage(vout).re - expected).abs() < 1e-9);
    }
}

/// The seeded fault-injection harness: under injected panics (isolated),
/// simulated budget exhaustion (degraded via random patterns) and injected
/// cancellations, the governed ATPG report accounts for every fault, every
/// vector it emits — deterministic or degraded — detects its fault, and a
/// second run reproduces it byte for byte, with fault dropping on and off.
/// The injector is a pure function of `(seed, fault index)`, so the same
/// faults are hit on every run.
#[test]
fn chaos_governed_atpg_reports_account_for_every_fault() {
    use msatpg::core::digital_atpg::DegradePolicy;
    use msatpg::exec::{ChaosInjector, PanicPolicy};

    let circuit = circuits::adder4();
    let faults = FaultList::collapsed(&circuit);
    let sim = FaultSimulator::new(&circuit);
    for seed in [0x01u64, 0xA5A5, 0xDEAD_BEEF] {
        let chaos = ChaosInjector::new(seed)
            .with_panic_rate(7)
            .with_budget_rate(5)
            .with_cancel_rate(11);
        for dropping in [true, false] {
            let build = || {
                DigitalAtpg::new(&circuit)
                    .with_fault_dropping(dropping)
                    .with_chaos(chaos)
                    .with_panic_policy(PanicPolicy::Isolate)
                    .with_degradation(DegradePolicy {
                        seed,
                        patterns: 128,
                    })
            };
            let reference = build().run(&faults).unwrap();
            assert_eq!(
                reference.detected + reference.untestable.len() + reference.aborted.len(),
                faults.len(),
                "seed={seed:#x} dropping={dropping}: every fault is accounted for"
            );
            // Both deterministic and degraded vectors are real tests.
            for vector in &reference.vectors {
                assert!(
                    sim.detects(vector.fault, &vector.concretize(false))
                        .unwrap(),
                    "seed={seed:#x} dropping={dropping}: vector fails to detect its fault"
                );
            }
            assert_reports_identical(
                &build().run(&faults).unwrap(),
                &reference,
                &format!("chaos seed={seed:#x} dropping={dropping}"),
            );
        }
    }
}

/// The pattern-block width is invisible in campaign reports: a governed
/// chaos campaign — panics isolated, budgets exhausted into degraded
/// random-pattern vectors (the code path where the width actually decides
/// which patterns are batched per cone walk) — produces a byte-identical
/// [`AtpgReport`] for every `MSATPG_WORD_WIDTH`, with fault dropping on and
/// off.
#[test]
fn governed_atpg_reports_are_byte_identical_across_word_widths() {
    use msatpg::core::digital_atpg::DegradePolicy;
    use msatpg::digital::fault_sim::WordWidth;
    use msatpg::exec::{ChaosInjector, PanicPolicy};

    let circuit = circuits::adder4();
    let faults = FaultList::collapsed(&circuit);
    for (seed, dropping) in [0x07u64, 0xBADC_AB1E]
        .into_iter()
        .flat_map(|seed| [(seed, true), (seed, false)])
    {
        let build = |width: WordWidth| {
            DigitalAtpg::new(&circuit)
                .with_fault_dropping(dropping)
                .with_chaos(
                    ChaosInjector::new(seed)
                        .with_panic_rate(7)
                        .with_budget_rate(3)
                        .with_cancel_rate(11),
                )
                .with_panic_policy(PanicPolicy::Isolate)
                .with_degradation(DegradePolicy {
                    seed,
                    // Three 64-bit words, under one 512-bit block: the wide
                    // verifier must still pick the same first detecting
                    // pattern the narrow one finds.
                    patterns: 192,
                })
                .with_word_width(width)
        };
        let reference = build(WordWidth::W1).run(&faults).unwrap();
        assert!(
            !reference.degraded.is_empty(),
            "seed={seed:#x} dropping={dropping}: the chaos rates must actually degrade faults"
        );
        for width in [WordWidth::W1, WordWidth::W8, WordWidth::Auto] {
            let report = build(width).run(&faults).unwrap();
            assert_reports_identical(
                &report,
                &reference,
                &format!("seed={seed:#x} dropping={dropping} width={width:?}"),
            );
        }
    }
}

/// Are `f` in `ma` and `g` in `mb` the same function?  Both managers
/// declare the same variables in the same order, so equal functions have
/// isomorphic canonical graphs: the walk compares root variables and
/// (complement-resolved) cofactors, memoized per pair.
fn same_function(
    ma: &BddManager,
    f: msatpg::bdd::Bdd,
    mb: &BddManager,
    g: msatpg::bdd::Bdd,
    seen: &mut std::collections::HashSet<(msatpg::bdd::Bdd, msatpg::bdd::Bdd)>,
) -> bool {
    if f.is_terminal() || g.is_terminal() {
        return f.is_terminal() && g.is_terminal() && f.is_one() == g.is_one();
    }
    if !seen.insert((f, g)) {
        return true;
    }
    ma.var_name(ma.root_var(f)) == mb.var_name(mb.root_var(g))
        && same_function(ma, ma.low(f), mb, mb.low(g), seen)
        && same_function(ma, ma.high(f), mb, mb.high(g), seen)
}

/// Building the signal functions on demand is invisible: on random
/// netlists, constrained and unconstrained, with fault dropping on and off,
/// an engine that builds each function the first time a derivation reads it
/// reports byte for byte what an engine filled up front reports.  Every
/// function the on-demand engine built is the function of the
/// full build, and the filled engine reads no new node afterwards.
#[test]
fn on_demand_signal_functions_match_the_full_build() {
    use msatpg::conversion::constraints::AllowedCodes;

    let mut rng = SplitMix64::new(0x0D_E4A4D);
    let mut partial = 0;
    for case in 0..CASES {
        let circuit = random_netlist(&mut rng, case);
        let faults = FaultList::collapsed(&circuit);
        let inputs = circuit.primary_inputs();
        let lines = vec![inputs[0], inputs[1]];
        let mut codes: Vec<Vec<bool>> = (0..4u8)
            .filter(|_| rng.below(3) != 0)
            .map(|c| vec![c & 1 == 1, c & 2 == 2])
            .collect();
        if codes.is_empty() {
            codes.push(vec![true, false]);
        }
        let codes = AllowedCodes::new(2, codes);
        for constrained in [false, true] {
            for dropping in [true, false] {
                let context = format!("case {case} constrained={constrained} dropping={dropping}");
                let engine = || {
                    let atpg = DigitalAtpg::new(&circuit).with_fault_dropping(dropping);
                    if constrained {
                        atpg.with_constraints(&lines, &codes).unwrap()
                    } else {
                        atpg
                    }
                };
                let mut full = engine();
                full.collect_garbage();
                let full_report = full.run(&faults).unwrap();
                let mut on_demand = engine();
                let report = on_demand.run(&faults).unwrap();
                assert_reports_identical(&report, &full_report, &context);
                let created = full.manager().stats().created_nodes;
                let mut seen = std::collections::HashSet::new();
                for signal in circuit.signals() {
                    let reference = full.signal_function(signal);
                    match on_demand.built_signal_function(signal) {
                        Some(f) => assert!(
                            same_function(
                                on_demand.manager(),
                                f,
                                full.manager(),
                                reference,
                                &mut seen
                            ),
                            "{context}: {} differs from the full build",
                            circuit.signal_name(signal)
                        ),
                        None => partial += 1,
                    }
                }
                assert_eq!(
                    full.manager().stats().created_nodes,
                    created,
                    "{context}: full engine rebuilt"
                );
            }
        }
    }
    assert!(
        partial > 0,
        "some campaign must leave a signal function unbuilt"
    );
}

/// A scratch file under the system temp directory, unique per test and
/// case (the property loops write/read the same slot repeatedly).
fn scratch_file(tag: &str, case: usize) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "msatpg-proptest-{}-{tag}-{case}",
        std::process::id()
    ))
}

/// Generates a random combinational netlist: a layer of primary inputs
/// followed by gates drawing from every already-defined signal, with a
/// random subset of gates (always at least the last) marked as outputs.
fn random_netlist(rng: &mut SplitMix64, case: usize) -> msatpg::digital::netlist::Netlist {
    let inputs = 2 + rng.below(5);
    let gates = 1 + rng.below(12);
    random_netlist_sized(rng, case, inputs, gates)
}

/// [`random_netlist`] with the input and gate counts given.
fn random_netlist_sized(
    rng: &mut SplitMix64,
    case: usize,
    inputs: usize,
    gates: usize,
) -> msatpg::digital::netlist::Netlist {
    use msatpg::digital::gate::GateKind;
    use msatpg::digital::netlist::Netlist;
    const BINARY: [GateKind; 6] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ];
    let mut n = Netlist::new(&format!("rand{case}"));
    let mut signals = Vec::new();
    for i in 0..inputs {
        signals.push(n.input(&format!("i{i}")));
    }
    let mut gate_ids = Vec::new();
    for g in 0..gates {
        let name = format!("g{g}");
        let id = if rng.below(4) == 0 {
            let kind = if rng.bool() {
                GateKind::Not
            } else {
                GateKind::Buf
            };
            n.gate(kind, &name, &[signals[rng.below(signals.len())]])
        } else {
            let kind = BINARY[rng.below(BINARY.len())];
            let a = signals[rng.below(signals.len())];
            let b = signals[rng.below(signals.len())];
            n.gate(kind, &name, &[a, b])
        };
        signals.push(id);
        gate_ids.push(id);
    }
    // The last gate is always an output; earlier gates join at random.
    let last = gate_ids.len() - 1;
    for (g, &id) in gate_ids.iter().enumerate() {
        if g == last || rng.below(3) == 0 {
            n.mark_output(id);
        }
    }
    n
}

/// The Table-5 comparator study (a simulation witness first, then one
/// restrict-then-differentiate OBDD query per line the simulation leaves
/// open) agrees with an exhaustive five-valued sweep: comparator `i`
/// propagates iff, with the other lines at the thermometer code of `i + 1`
/// ones and a `D` (or `D̄`) forced on its own line, some external-input
/// assignment drives a fault effect to a primary output.  Both polarities
/// give the same answer, so the two Table-5 columns are equal.  Figure 4
/// plus random netlists with up to 12 external inputs; both decision paths
/// must be taken.
#[test]
fn comparator_study_matches_exhaustive_composite_simulation() {
    use msatpg::analog::filters;
    use msatpg::core::{AnalogAtpg, ConverterBlock};
    use msatpg::MixedCircuit;

    let mixed = |netlist: msatpg::digital::netlist::Netlist, lines: &[String]| {
        let adc = FlashAdc::uniform(lines.len(), 3.0).unwrap();
        let name = netlist.name().to_owned();
        let analog = filters::second_order_band_pass();
        let mut mixed = MixedCircuit::new(&name, analog, ConverterBlock::Flash(adc), netlist);
        let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
        mixed.connect_in_order(&lines).unwrap();
        mixed
    };
    let mut circuits = vec![mixed(
        circuits::figure3_circuit(),
        &["l0".into(), "l2".into()],
    )];
    let mut rng = SplitMix64::new(0x7AB5);
    for case in 0..CASES {
        let comparators = 1 + rng.below(4);
        let inputs = comparators + 1 + rng.below(12);
        let gates = 1 + rng.below(24);
        let netlist = random_netlist_sized(&mut rng, case, inputs, gates);
        // Distinct random primary inputs, in random order, as the lines.
        let mut pis: Vec<usize> = (0..inputs).collect();
        for i in (1..inputs).rev() {
            pis.swap(i, rng.below(i + 1));
        }
        let lines: Vec<String> = pis[..comparators].iter().map(|i| format!("i{i}")).collect();
        circuits.push(mixed(netlist, &lines));
    }
    let (mut propagating, mut blocked) = (0, 0);
    let (mut witnessed, mut proved) = (0, 0);
    for mixed in &circuits {
        let (study, paths) = AnalogAtpg::new(mixed)
            .comparator_propagation_study_with_paths()
            .unwrap();
        assert_eq!(paths.witnessed + paths.proved, study.len());
        witnessed += paths.witnessed;
        proved += paths.proved;
        let netlist = mixed.digital();
        let connections = mixed.connections();
        let externals = mixed.external_inputs();
        assert_eq!(study.len(), connections.len());
        for (idx, &(_, line)) in connections.iter().enumerate() {
            let exhaustive = |composite: Logic| {
                let mut sim = CompositeSimulator::new(netlist);
                sim.force(line, composite);
                (0..1u32 << externals.len()).any(|bits| {
                    let inputs: Vec<Logic> = netlist
                        .primary_inputs()
                        .iter()
                        .map(|pi| {
                            if let Some(j) = connections.iter().position(|&(_, l)| l == *pi) {
                                Logic::from(j < idx)
                            } else {
                                let e = externals.iter().position(|x| x == pi).unwrap();
                                Logic::from((bits >> e) & 1 == 1)
                            }
                        })
                        .collect();
                    sim.propagates_fault(&inputs).unwrap()
                })
            };
            let expected = (exhaustive(Logic::D), exhaustive(Logic::Dbar));
            assert_eq!(study[idx], expected, "{} comparator {idx}", mixed.name());
            assert_eq!(expected.0, expected.1, "{} comparator {idx}", mixed.name());
            if expected.0 {
                propagating += 1;
            } else {
                blocked += 1;
            }
        }
    }
    assert!(propagating > 0 && blocked > 0, "{propagating} vs {blocked}");
    // Every witnessed line is usable; every blocked line needed the proof.
    assert!(
        witnessed > 0 && proved >= blocked && witnessed + proved == propagating + blocked,
        "{witnessed} lines by simulation witness, {proved} by OBDD query"
    );
}

/// Random netlists survive the `.bench` write → parse → write round trip
/// with identical structure (the `.bench` rendering is byte-identical) and
/// identical behavior on random patterns.
#[test]
fn bench_format_roundtrip_preserves_structure_and_behavior() {
    use msatpg::digital::bench_format;
    let mut rng = SplitMix64::new(0x57_0E);
    for case in 0..CASES {
        let original = random_netlist(&mut rng, case);
        let text = bench_format::write(&original);
        let reloaded = bench_format::parse(original.name(), &text).unwrap();
        assert_eq!(reloaded.name(), original.name());
        assert_eq!(
            bench_format::write(&reloaded),
            text,
            "case {case}: .bench rendering diverges"
        );
        for _ in 0..8 {
            let pattern = random_pattern(&mut rng, original.primary_inputs().len());
            assert_eq!(
                reloaded.evaluate(&pattern).unwrap(),
                original.evaluate(&pattern).unwrap(),
                "case {case}: behavior diverges"
            );
        }
    }
}

/// Governed chaos campaigns — the richest reports the engine can produce,
/// with detected, previously-detected, untestable, degraded and all three
/// abort flavors — survive the report store round trip field-for-field,
/// and re-saving the reloaded report is byte-identical on disk.
#[test]
fn report_store_roundtrip_is_lossless() {
    use msatpg::core::digital_atpg::DegradePolicy;
    use msatpg::core::store::{load_report, save_report};
    use msatpg::exec::{ChaosInjector, PanicPolicy};
    let circuit = circuits::adder4();
    let faults = FaultList::collapsed(&circuit);
    for seed in [0x11u64, 0xC0FFEE, 0xFEED_F00D] {
        let report = DigitalAtpg::new(&circuit)
            .with_chaos(
                ChaosInjector::new(seed)
                    .with_panic_rate(7)
                    .with_budget_rate(5)
                    .with_cancel_rate(11),
            )
            .with_panic_policy(PanicPolicy::Isolate)
            .with_degradation(DegradePolicy { seed, patterns: 64 })
            .run(&faults)
            .unwrap();
        let path = scratch_file("report", seed as usize & 0xff);
        save_report(&path, &circuit, &report).unwrap();
        let reloaded = load_report(&path, &circuit).unwrap();
        assert_reports_identical(&reloaded, &report, &format!("seed={seed:#x}"));
        assert_eq!(reloaded.cpu, report.cpu, "cpu nanoseconds round trip");
        // Idempotence: saving the reloaded report reproduces the file.
        let first = std::fs::read(&path).unwrap();
        save_report(&path, &circuit, &reloaded).unwrap();
        let second = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(first, second, "seed={seed:#x}: re-save not byte-identical");
    }
}

/// Robustness of the long-lived executors: a worker pool that has carried
/// campaigns with injected panics (isolated per fault) and a cancelled
/// campaign still runs a clean campaign byte-identically to a fresh engine,
/// and cancelled engines recover with a fresh token.
#[test]
fn pools_and_engines_stay_reusable_after_every_injected_failure() {
    use msatpg::digital::fault::StuckAtFault;
    use msatpg::exec::{CancelToken, ChaosInjector, PanicPolicy, WorkerPool};

    let circuit = circuits::adder4();
    let faults = FaultList::collapsed(&circuit);
    let is_deadline = |aborted: &[(StuckAtFault, msatpg::core::AbortReason)]| {
        aborted
            .iter()
            .all(|(_, r)| *r == msatpg::core::AbortReason::Deadline)
    };
    for dropping in [true, false] {
        let engine = || DigitalAtpg::new(&circuit).with_fault_dropping(dropping);
        let clean_reference = engine().run(&faults).unwrap();
        let pool = WorkerPool::new(ExecPolicy::Threads(2));
        for seed in 0..3u64 {
            // Injected panics, isolated to their fault targets.
            let chaotic = engine()
                .with_chaos(ChaosInjector::new(seed).with_panic_rate(3))
                .with_panic_policy(PanicPolicy::Isolate)
                .run_on(&pool, &faults)
                .unwrap();
            assert_eq!(
                chaotic.detected + chaotic.untestable.len() + chaotic.aborted.len(),
                faults.len()
            );
            // A campaign cancelled after a few targets.
            let cancelled = engine()
                .with_cancel_token(CancelToken::with_step_quota(seed + 2))
                .run_on(&pool, &faults)
                .unwrap();
            assert!(cancelled.aborted_count() > 0);
            assert!(is_deadline(&cancelled.aborted));
            // The same pool then runs a clean campaign: no residue.
            let clean = engine().run_on(&pool, &faults).unwrap();
            assert_reports_identical(
                &clean,
                &clean_reference,
                &format!("after chaos seed={seed} dropping={dropping}"),
            );
        }
    }
}
