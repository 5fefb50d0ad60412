//! Kernel throughput benchmark: measures the three hot kernels of the
//! test-generation loop (PPSFP fault simulation, arena-BDD construction,
//! factorization-reusing analog sweeps) against their naive counterparts and
//! writes a machine-readable `BENCH_kernels.json` so future PRs can track
//! the performance trajectory.
//!
//! Run with `cargo run --release -p msatpg-bench --bin bench_kernels`.
//!
//! With `-- --check` the binary becomes the CI perf-regression smoke job:
//! it re-measures the kernels, compares the speedups against the committed
//! `BENCH_kernels.json` baseline with a generous tolerance (shared CI
//! runners are noisy), leaves the baseline file untouched, and exits
//! non-zero on a regression.  Multi-core scaling floors stay gated on the
//! host CPU count, exactly as in record mode.

use std::fmt::Write as _;
use std::time::Instant;

use msatpg_analog::filters;
use msatpg_analog::mna::Mna;
use msatpg_analog::params::measure_with_mna;
use msatpg_analog::response::{FrequencyResponse, SweepConfig};
use msatpg_bdd::{Bdd, BddBudget, BddManager};
use msatpg_bench::json::{self, Json};
use msatpg_bench::naive::{
    naive_carry_chain, naive_carry_chain_with_activations, naive_signal_functions, naive_sweep,
    NaiveBddManager,
};
use msatpg_bench::{
    adder_carry_chain, adder_carry_chain_with_activations, example3_mixed_circuit, mux_tree,
    signal_functions,
};
use msatpg_conversion::constraints::thermometer_codes;
use msatpg_core::constraint::{constraint_bdd, declare_input_variables};
use msatpg_core::digital_atpg::DigitalAtpg;
use msatpg_core::{pi_order, StaticOrder};
use msatpg_digital::benchmarks;
use msatpg_digital::fault::FaultList;
use msatpg_digital::fault_sim::{FaultCones, FaultSimulator, WordWidth};
use msatpg_digital::prng::SplitMix64;
use msatpg_exec::ExecPolicy;

/// Times one closure, running it `reps` times and returning seconds/run.
fn time<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    // One warm-up run.
    f();
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

struct FaultSimReport {
    circuit: String,
    gates: usize,
    faults: usize,
    patterns: usize,
    serial_seconds: f64,
    ppsfp_seconds: f64,
    speedup: f64,
    ppsfp_patterns_per_sec: f64,
}

fn bench_fault_sim(name: &str, pattern_count: usize) -> FaultSimReport {
    let netlist = benchmarks::by_name(name).expect("known benchmark");
    let faults = FaultList::collapsed(&netlist);
    let mut rng = SplitMix64::new(0xBE7C);
    let width = netlist.primary_inputs().len();
    let patterns: Vec<Vec<bool>> = (0..pattern_count)
        .map(|_| (0..width).map(|_| rng.bool()).collect())
        .collect();
    let sim = FaultSimulator::new(&netlist);
    // Sanity: the engines must agree before we time them.
    let fast = sim.run(&faults, &patterns).expect("ppsfp run");
    let slow = sim.run_serial(&faults, &patterns).expect("serial run");
    assert_eq!(
        fast.detected().len(),
        slow.detected().len(),
        "engines disagree on {name}"
    );
    let serial_seconds = time(3, || {
        std::hint::black_box(sim.run_serial(&faults, &patterns).unwrap());
    });
    let ppsfp_seconds = time(5, || {
        std::hint::black_box(sim.run(&faults, &patterns).unwrap());
    });
    FaultSimReport {
        circuit: name.to_owned(),
        gates: netlist.gate_count(),
        faults: faults.len(),
        patterns: pattern_count,
        serial_seconds,
        ppsfp_seconds,
        speedup: serial_seconds / ppsfp_seconds,
        ppsfp_patterns_per_sec: pattern_count as f64 / ppsfp_seconds,
    }
}

struct WideRow {
    lanes: usize,
    seconds: f64,
    patterns_per_sec: f64,
    speedup_vs_w1: f64,
}

struct WideFaultSimReport {
    circuit: String,
    faults: usize,
    patterns: usize,
    rows: Vec<WideRow>,
}

/// Deterministic (same-host, same-build) floor on the W = 8 patterns/sec
/// over the one-lane engine.  Only meaningful at `--release`, where the
/// explicit lane loops vectorize; a debug build records the rows but skips
/// the floor.
const WIDE_SPEEDUP_FLOOR: f64 = 2.0;

/// Throughput of the widened PPSFP blocks: the same campaign at W = 1 and
/// 8 lanes (64/512 patterns per cone walk).  Fault dropping is
/// disabled so every width performs the identical maximal propagation work
/// and the rows isolate the widening, not drop timing.
fn bench_fault_sim_wide(name: &str, pattern_count: usize) -> WideFaultSimReport {
    let netlist = benchmarks::by_name(name).expect("known benchmark");
    let faults = FaultList::collapsed(&netlist);
    let mut rng = SplitMix64::new(0x51BD);
    let width = netlist.primary_inputs().len();
    let patterns: Vec<Vec<bool>> = (0..pattern_count)
        .map(|_| (0..width).map(|_| rng.bool()).collect())
        .collect();
    let widths = [(WordWidth::W1, 1usize), (WordWidth::W8, 8)];
    // Cones are a per-campaign precomputation (width-invariant, reused
    // across every block and restart — see `FaultSimulator::run_with_cones`),
    // so they stay outside the timed region: the row measures pattern
    // throughput of the propagation engine itself.
    let cones = FaultCones::build(&netlist, faults.faults().iter().map(|f| f.signal));
    // Determinism sanity before timing: the wide engines must reproduce the
    // one-lane detected vector exactly.
    let reference = FaultSimulator::new(&netlist)
        .with_fault_dropping(false)
        .with_word_width(WordWidth::W1)
        .run_with_cones(&faults, &patterns, &cones)
        .expect("one-lane run");
    let mut rows = Vec::new();
    let mut baseline = 0.0;
    for (word_width, lanes) in widths {
        let sim = FaultSimulator::new(&netlist)
            .with_fault_dropping(false)
            .with_word_width(word_width);
        let check = sim
            .run_with_cones(&faults, &patterns, &cones)
            .expect("wide run");
        assert_eq!(
            check.detected(),
            reference.detected(),
            "{name}: {lanes}-lane run must be byte-identical to one lane"
        );
        let seconds = time(5, || {
            std::hint::black_box(sim.run_with_cones(&faults, &patterns, &cones).unwrap());
        });
        if lanes == 1 {
            baseline = seconds;
        }
        rows.push(WideRow {
            lanes,
            seconds,
            patterns_per_sec: pattern_count as f64 / seconds,
            speedup_vs_w1: baseline / seconds,
        });
    }
    WideFaultSimReport {
        circuit: name.to_owned(),
        faults: faults.len(),
        patterns: pattern_count,
        rows,
    }
}

struct ScalingRow {
    workers: usize,
    seconds: f64,
    speedup: f64,
}

struct ThreadScalingReport {
    circuit: String,
    faults: usize,
    patterns: usize,
    host_cpus: usize,
    /// Whether the ≥1.5× floor at 4 workers is enforced on this host (it
    /// requires ≥4 hardware threads; a 1-CPU container records the rows but
    /// cannot physically speed up).
    floor_enforced: bool,
    rows: Vec<ScalingRow>,
}

/// Thread-scaling of the PPSFP engine: the same fault universe and pattern
/// set timed at 1, 2, 4 and `available_parallelism` workers.  Fault dropping
/// is disabled so every worker count performs the identical (maximal) amount
/// of cone propagation and the rows measure pool scaling, not drop timing.
fn bench_ppsfp_scaling(name: &str, pattern_count: usize) -> ThreadScalingReport {
    let netlist = benchmarks::by_name(name).expect("known benchmark");
    let faults = FaultList::collapsed(&netlist);
    let cones = FaultCones::build(&netlist, faults.faults().iter().map(|f| f.signal));
    let mut rng = SplitMix64::new(0x5CA1E);
    let width = netlist.primary_inputs().len();
    let patterns: Vec<Vec<bool>> = (0..pattern_count)
        .map(|_| (0..width).map(|_| rng.bool()).collect())
        .collect();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut worker_counts = vec![1usize, 2, 4];
    if !worker_counts.contains(&host_cpus) {
        worker_counts.push(host_cpus);
    }
    // Determinism sanity before timing: every worker count must reproduce
    // the serial detected vector exactly.
    let reference = FaultSimulator::new(&netlist)
        .with_fault_dropping(false)
        .run_with_cones(&faults, &patterns, &cones)
        .expect("serial scaling run");
    let mut rows = Vec::new();
    let mut baseline = 0.0;
    for &workers in &worker_counts {
        let sim = FaultSimulator::new(&netlist)
            .with_fault_dropping(false)
            .with_policy(ExecPolicy::Threads(workers));
        let check = sim
            .run_with_cones(&faults, &patterns, &cones)
            .expect("scaling run");
        assert_eq!(
            check.detected(),
            reference.detected(),
            "{name}: {workers}-worker run must be byte-identical to serial"
        );
        let seconds = time(5, || {
            std::hint::black_box(sim.run_with_cones(&faults, &patterns, &cones).unwrap());
        });
        if workers == 1 {
            baseline = seconds;
        }
        rows.push(ScalingRow {
            workers,
            seconds,
            speedup: baseline / seconds,
        });
    }
    ThreadScalingReport {
        circuit: name.to_owned(),
        faults: faults.len(),
        patterns: pattern_count,
        host_cpus,
        floor_enforced: host_cpus >= 4,
        rows,
    }
}

struct BddReport {
    carry_bits: usize,
    naive_seconds: f64,
    arena_seconds: f64,
    speedup: f64,
    arena_ops_per_sec: f64,
    apply_hit_rate: f64,
    mux_selects: usize,
    ite_hit_rate: f64,
}

fn bench_bdd(bits: usize) -> BddReport {
    // Each adder stage performs 4 manager operations (and, xor, and, or).
    let ops = 4 * bits;
    let naive_seconds = time(10, || {
        let mut m = NaiveBddManager::new();
        std::hint::black_box(naive_carry_chain(&mut m, bits));
    });
    let arena_seconds = time(10, || {
        let mut m = BddManager::new();
        std::hint::black_box(adder_carry_chain(&mut m, bits));
    });
    // Hit rates from one representative build each.  The carry chain
    // lowers to and/xor/or and never calls `ite`, so its ITE hit rate is a
    // meaningless 0.0000 (the 0 recorded by earlier baselines); the ITE
    // cache is measured on the mux-tree workload, whose sibling sub-trees
    // re-ask the same (f, g, h) triples at every level.
    let mut m = BddManager::new();
    let _ = adder_carry_chain(&mut m, bits);
    let stats = m.stats();
    const MUX_SELECTS: usize = 10;
    let mut mux = BddManager::new();
    let _ = mux_tree(&mut mux, MUX_SELECTS);
    BddReport {
        carry_bits: bits,
        naive_seconds,
        arena_seconds,
        speedup: naive_seconds / arena_seconds,
        arena_ops_per_sec: ops as f64 / arena_seconds,
        apply_hit_rate: stats.apply_cache.hit_rate(),
        mux_selects: MUX_SELECTS,
        ite_hit_rate: mux.stats().ite_cache.hit_rate(),
    }
}

/// Memory profile of the complement-edged, garbage-collected BDD engine
/// against the naive (no-complement, no-GC) reference on the two builds the
/// paper's flow leans on.  All numbers are node counts — deterministic, so
/// `--check` enforces the floors exactly (no timing tolerance needed).
struct BddMemoryReport {
    /// Bits of the carry-chain workload (chain + both stuck-at activation
    /// polarities per stage line).
    carry_bits: usize,
    /// Peak unique-table population of the naive engine on the carry
    /// workload.
    carry_naive_nodes: usize,
    /// Peak unique-table population of the complement-edged engine.
    carry_complement_nodes: usize,
    /// naive / complement (the acceptance floor is 1.5).
    carry_reduction: f64,
    /// Digital block of the Example-3 measurement.
    example3_circuit: String,
    /// Naive population of the Example-3 signal-function build.
    example3_naive_nodes: usize,
    /// Complement-edged population of the same build.
    example3_complement_nodes: usize,
    /// naive / complement (floor 1.5).
    example3_reduction: f64,
    /// Live nodes before the GC demo pass (carry workload, every handle
    /// dropped except the final carry-out).
    gc_live_before: usize,
    /// Live nodes after the pass (= the protected function's size).
    gc_live_after: usize,
    /// Nodes swept onto the free list.
    gc_reclaimed: usize,
    /// Dead nodes at sweep time (`gc_live_before` minus the protected
    /// function's reachable size) — the reclaim fraction's denominator.
    gc_dead: usize,
    /// reclaimed / dead (floor 0.9; mark-and-sweep reclaims 100 %).
    gc_reclaim_fraction: f64,
}

/// Deterministic floor on the population reduction complement edges must
/// deliver on both `bdd_memory` workloads.
const BDD_MEMORY_REDUCTION_FLOOR: f64 = 1.5;
/// Deterministic floor on the GC reclaim fraction after dropping all but
/// one handle.
const BDD_MEMORY_RECLAIM_FLOOR: f64 = 0.9;

fn bench_bdd_memory(bits: usize, example3_circuit: &str) -> BddMemoryReport {
    // Carry workload: chain + activation conditions of both polarities.
    let mut naive = NaiveBddManager::new();
    let _ = naive_carry_chain_with_activations(&mut naive, bits);
    let carry_naive_nodes = naive.node_count();
    let mut m = BddManager::new();
    let carry = adder_carry_chain_with_activations(&mut m, bits);
    let carry_complement_nodes = m.stats().peak_live_nodes;
    // GC demo on the same manager: drop every handle except the final
    // carry-out, collect, and measure the reclaim rate over the dead set.
    let gc_live_before = m.live_node_count();
    m.protect(carry);
    let reachable = m.size(carry);
    let report = m.gc();
    let dead = gc_live_before - reachable;
    let gc_reclaim_fraction = if dead == 0 {
        1.0
    } else {
        report.reclaimed as f64 / dead as f64
    };
    // Example-3 workload: the constrained ATPG's symbolic netlist build
    // (NAND/NOR-heavy, so the naive engine stores both polarities of almost
    // every gate function).
    let netlist = benchmarks::by_name(example3_circuit).expect("known benchmark");
    let example3_naive_nodes = naive_signal_functions(&netlist);
    let mut m3 = BddManager::new();
    let _ = signal_functions(&mut m3, &netlist);
    let example3_complement_nodes = m3.stats().peak_live_nodes;
    BddMemoryReport {
        carry_bits: bits,
        carry_naive_nodes,
        carry_complement_nodes,
        carry_reduction: carry_naive_nodes as f64 / carry_complement_nodes as f64,
        example3_circuit: example3_circuit.to_owned(),
        example3_naive_nodes,
        example3_complement_nodes,
        example3_reduction: example3_naive_nodes as f64 / example3_complement_nodes as f64,
        gc_live_before,
        gc_live_after: report.live_after,
        gc_reclaimed: report.reclaimed,
        gc_dead: dead,
        gc_reclaim_fraction,
    }
}

/// The `bdd_memory` floors are exact node-count arithmetic, so they are
/// enforced identically in record mode and under `--check`.
fn check_bdd_memory(memory: &BddMemoryReport) -> Vec<String> {
    let mut violations = Vec::new();
    if memory.carry_reduction < BDD_MEMORY_REDUCTION_FLOOR {
        violations.push(format!(
            "bdd_memory carry-chain reduction {:.2}x < {BDD_MEMORY_REDUCTION_FLOOR}x \
             ({} naive vs {} complement nodes)",
            memory.carry_reduction, memory.carry_naive_nodes, memory.carry_complement_nodes
        ));
    }
    if memory.example3_reduction < BDD_MEMORY_REDUCTION_FLOOR {
        violations.push(format!(
            "bdd_memory {} reduction {:.2}x < {BDD_MEMORY_REDUCTION_FLOOR}x \
             ({} naive vs {} complement nodes)",
            memory.example3_circuit,
            memory.example3_reduction,
            memory.example3_naive_nodes,
            memory.example3_complement_nodes
        ));
    }
    if memory.gc_reclaim_fraction < BDD_MEMORY_RECLAIM_FLOOR {
        violations.push(format!(
            "bdd_memory gc reclaim fraction {:.2} < {BDD_MEMORY_RECLAIM_FLOOR} \
             ({} of {} dead nodes swept)",
            memory.gc_reclaim_fraction, memory.gc_reclaimed, memory.gc_dead
        ));
    }
    violations
}

/// Variable-ordering profile of the arena: each workload is built under a
/// deliberately bad static order inside a fixed [`BddBudget`] live-node cap
/// (an infallible build that would blow the cap panics, so merely finishing
/// *is* the enforcement), then sifted to convergence at a safe point with
/// every root protected.  All numbers are node counts — deterministic, so
/// `--check` compares them exactly against the committed baseline.
struct BddReorderReport {
    /// Bits of the order-sensitive pairs workload: `OR of (a_i AND b_i)`
    /// declared all-`a`s-then-all-`b`s.  The separated order is exponential
    /// in the pair count; the interleaved order sifting converges to is
    /// linear.
    pairs_bits: usize,
    /// Live nodes of the pairs function under the separated order.
    pairs_nodes_before: usize,
    /// Live nodes after sifting to convergence.
    pairs_nodes_after: usize,
    /// before / after (the acceptance floor is 1.5).
    pairs_reduction: f64,
    /// Adjacent-level swaps the sift spent converging.
    pairs_swaps: usize,
    /// Digital block of the reversed-order builds.
    example3_circuit: String,
    /// Live signal-function nodes under the declaration (netlist) order —
    /// the reference the static heuristics start from.
    example3_nodes_declared: usize,
    /// Live signal-function nodes under the reversed PI order, pre-sift.
    example3_nodes_reversed: usize,
    /// Live signal-function nodes after sifting the reversed build.
    example3_nodes_sifted: usize,
    /// reversed / sifted.
    example3_recovery: f64,
    /// c432 thermometer-code constraint BDD under the reversed order.
    c432_fc_nodes_reversed: usize,
    /// The same `Fc` after sifting.
    c432_fc_nodes_sifted: usize,
    /// reversed / sifted (thermometer `Fc` is near order-insensitive — the
    /// interesting datum is that it builds and sifts inside the cap).
    c432_fc_recovery: f64,
    /// c499 thermometer-code constraint BDD under the reversed order.
    c499_fc_nodes_reversed: usize,
    /// The same `Fc` after sifting.
    c499_fc_nodes_sifted: usize,
    /// reversed / sifted.
    c499_fc_recovery: f64,
    /// The armed live-node cap every reversed build ran under.
    node_cap: usize,
}

/// Deterministic floor on the node reduction sifting must recover on the
/// pairs workload (the ISSUE's "at least one workload" demonstration — the
/// separated-to-interleaved recovery is designed in, not incidental).
const BDD_REORDER_RECOVERY_FLOOR: f64 = 1.5;
/// Live-node cap armed for every reversed-order build.
const BDD_REORDER_NODE_CAP: usize = 1 << 20;

fn bench_bdd_reorder(pairs_bits: usize, example3_circuit: &str) -> BddReorderReport {
    // Pairs workload: the textbook order-sensitive function.  Declared
    // a0..a(n-1) then b0..b(n-1), `OR_i (a_i AND b_i)` needs ~2^n nodes;
    // sifting rediscovers the interleaved order where it needs ~3n.
    let n = pairs_bits / 2;
    let mut m = BddManager::new();
    m.set_budget(BddBudget::UNLIMITED.with_max_live_nodes(BDD_REORDER_NODE_CAP));
    let a: Vec<Bdd> = (0..n).map(|i| m.var(&format!("a{i}"))).collect();
    let b: Vec<Bdd> = (0..n).map(|i| m.var(&format!("b{i}"))).collect();
    let mut f = m.zero();
    for (&ai, &bi) in a.iter().zip(&b) {
        let pair = m.and(ai, bi);
        f = m.or(f, pair);
    }
    m.protect(f);
    m.gc();
    let pairs_nodes_before = m.live_node_count();
    let sift = m
        .try_sift_until_convergence()
        .expect("pairs sift stays within the node cap");
    let pairs_nodes_after = m.live_node_count();

    // Example-3 signal functions under the reversed PI order.  Pre-declaring
    // the variables pins the levels; `signal_functions`' own by-name
    // declarations become idempotent lookups, so the build is the real
    // generator's gate lowering under the bad order.
    let netlist = benchmarks::by_name(example3_circuit).expect("known benchmark");
    let mut reference = BddManager::new();
    let values = msatpg_bench::signal_functions(&mut reference, &netlist);
    for v in values.iter().flatten() {
        reference.protect(*v);
    }
    reference.gc();
    let example3_nodes_declared = reference.live_node_count();
    let mut m3 = BddManager::new();
    m3.set_budget(BddBudget::UNLIMITED.with_max_live_nodes(BDD_REORDER_NODE_CAP));
    for &pi in &pi_order(&netlist, StaticOrder::Reversed) {
        m3.var(netlist.signal_name(pi));
    }
    let values = msatpg_bench::signal_functions(&mut m3, &netlist);
    for v in values.iter().flatten() {
        m3.protect(*v);
    }
    m3.gc();
    let example3_nodes_reversed = m3.live_node_count();
    m3.try_sift_until_convergence()
        .expect("signal-function sift stays within the node cap");
    let example3_nodes_sifted = m3.live_node_count();

    // Table-4 constraint BDDs under the reversed order: thermometer codes
    // over the first 15 inputs, exactly the `Fc` the constrained campaigns
    // conjoin into every test cube.
    let fc_reversed = |name: &str| -> (usize, usize) {
        let netlist = benchmarks::by_name(name).expect("known benchmark");
        let mut m = BddManager::new();
        m.set_budget(BddBudget::UNLIMITED.with_max_live_nodes(BDD_REORDER_NODE_CAP));
        for &pi in &pi_order(&netlist, StaticOrder::Reversed) {
            m.var(netlist.signal_name(pi));
        }
        declare_input_variables(&mut m, &netlist);
        let lines = netlist.primary_inputs()[..15].to_vec();
        let fc = constraint_bdd(&mut m, &netlist, &lines, &thermometer_codes(15));
        m.protect(fc);
        m.gc();
        let reversed = m.live_node_count();
        m.try_sift_until_convergence()
            .expect("constraint sift stays within the node cap");
        (reversed, m.live_node_count())
    };
    let (c432_fc_nodes_reversed, c432_fc_nodes_sifted) = fc_reversed("c432");
    let (c499_fc_nodes_reversed, c499_fc_nodes_sifted) = fc_reversed("c499");

    BddReorderReport {
        pairs_bits,
        pairs_nodes_before,
        pairs_nodes_after,
        pairs_reduction: pairs_nodes_before as f64 / pairs_nodes_after as f64,
        pairs_swaps: sift.swaps,
        example3_circuit: example3_circuit.to_owned(),
        example3_nodes_declared,
        example3_nodes_reversed,
        example3_nodes_sifted,
        example3_recovery: example3_nodes_reversed as f64 / example3_nodes_sifted as f64,
        c432_fc_nodes_reversed,
        c432_fc_nodes_sifted,
        c432_fc_recovery: c432_fc_nodes_reversed as f64 / c432_fc_nodes_sifted as f64,
        c499_fc_nodes_reversed,
        c499_fc_nodes_sifted,
        c499_fc_recovery: c499_fc_nodes_reversed as f64 / c499_fc_nodes_sifted as f64,
        node_cap: BDD_REORDER_NODE_CAP,
    }
}

/// The `bdd_reorder` floors are exact node-count arithmetic, enforced
/// identically in record mode and under `--check`.
fn check_bdd_reorder(reorder: &BddReorderReport) -> Vec<String> {
    let mut violations = Vec::new();
    if reorder.pairs_reduction < BDD_REORDER_RECOVERY_FLOOR {
        violations.push(format!(
            "bdd_reorder pairs{}: sift recovered only {:.2}x ({} -> {} nodes; \
             floor {BDD_REORDER_RECOVERY_FLOOR}x)",
            reorder.pairs_bits,
            reorder.pairs_reduction,
            reorder.pairs_nodes_before,
            reorder.pairs_nodes_after
        ));
    }
    if reorder.pairs_swaps == 0 {
        violations.push("bdd_reorder pairs: sift converged without a single swap".to_owned());
    }
    if reorder.example3_nodes_sifted > reorder.example3_nodes_reversed {
        violations.push(format!(
            "bdd_reorder {}: sifting grew the reversed build ({} -> {} nodes)",
            reorder.example3_circuit,
            reorder.example3_nodes_reversed,
            reorder.example3_nodes_sifted
        ));
    }
    for (what, reversed) in [
        ("example3 signal functions", reorder.example3_nodes_reversed),
        ("c432 Fc", reorder.c432_fc_nodes_reversed),
        ("c499 Fc", reorder.c499_fc_nodes_reversed),
    ] {
        if reversed > reorder.node_cap {
            violations.push(format!(
                "bdd_reorder {what}: reversed build at {reversed} nodes exceeds the {} cap",
                reorder.node_cap
            ));
        }
    }
    violations
}

struct AnalogReport {
    filter: String,
    unknowns: usize,
    sweep_points: usize,
    naive_seconds: f64,
    cold_seconds: f64,
    warm_seconds: f64,
    naive_speedup: f64,
    warm_points_per_sec: f64,
}

fn bench_analog() -> AnalogReport {
    let filter = filters::fifth_order_chebyshev();
    let circuit = filter.circuit();
    let output = filter.output_node();
    let config = SweepConfig::default();
    let freqs = config.frequencies();
    // Naive: full engine rebuild per sweep point.
    let naive_seconds = time(3, || {
        std::hint::black_box(naive_sweep(circuit, "Vin", output, &freqs).unwrap());
    });
    // Cold: one engine, first pass assembles + factors every frequency.
    let cold_seconds = time(3, || {
        let mna = Mna::new(circuit);
        std::hint::black_box(
            FrequencyResponse::sweep_with_mna(&mna, "Vin", output, &config).unwrap(),
        );
    });
    // Warm: repeated sweeps over a live engine hit the factorization cache.
    let mna = Mna::new(circuit);
    let _ = FrequencyResponse::sweep_with_mna(&mna, "Vin", output, &config).unwrap();
    let warm_seconds = time(10, || {
        std::hint::black_box(
            FrequencyResponse::sweep_with_mna(&mna, "Vin", output, &config).unwrap(),
        );
    });
    AnalogReport {
        filter: filter.name().to_owned(),
        unknowns: Mna::new(circuit).unknown_count(),
        sweep_points: freqs.len(),
        naive_seconds,
        cold_seconds,
        warm_seconds,
        naive_speedup: naive_seconds / warm_seconds,
        warm_points_per_sec: freqs.len() as f64 / warm_seconds,
    }
}

/// Per-probe cost of one frequency-type parameter of the Figure-8 board
/// (its grid is swept on every probe), each passive element deviated
/// alone on a warm engine: every frequency a probe solves at, on the grid
/// or off it, is already factored, so the row isolates what the grid costs.
/// (In the threshold search, a probe's fresh off-grid frequencies add
/// their factorizations to both columns alike.)
struct AnalogProbeRow {
    parameter: String,
    probes: usize,
    /// Mean µs of one `set_value` + `measure_with_mna` + restore probe.
    probe_us: f64,
    /// Mean µs of the probe's grid sweep, answered from the grid table.
    grid_us: f64,
    /// Mean µs of the same grid by a reference loop of one `Mna::gain` per
    /// point (the grid regenerated from the sweep configuration each time).
    grid_per_point_us: f64,
    /// The probe with its grid answered per point:
    /// `probe_us − grid_us + grid_per_point_us`.
    probe_per_point_us: f64,
    /// `probe_per_point_us / probe_us`.
    speedup: f64,
}

/// The grid table must make a frequency-type probe at least this much
/// faster than answering its grid per point; below it, the table is not
/// being used (a silent fallback to per-point solves).  Enforced in record
/// mode and under `--check`.
const PROBE_SPEEDUP_FLOOR: f64 = 1.5;

struct AnalogProbeReport {
    circuit: String,
    rows: Vec<AnalogProbeRow>,
}

fn bench_analog_probe() -> AnalogProbeReport {
    /// Probes per element, alternating between `±DEVIATION`.
    const PROBES: usize = 24;
    const DEVIATION: f64 = 0.1;
    const GRID_REPS: usize = 20;
    let board = filters::state_variable_filter();
    let circuit = board.circuit();
    let elements = circuit.passive_elements();
    let rows = ["A2max", "fh1"]
        .into_iter()
        .map(|name| {
            let spec = board
                .parameters()
                .iter()
                .find(|p| p.name == name)
                .expect("board parameter");
            let output = spec.output_node(circuit).expect("board output node");
            let (mut probe_s, mut grid_s, mut per_point_s) = (0.0, 0.0, 0.0);
            for &element in &elements {
                let mna = Mna::new(circuit);
                let base = mna.value(element);
                let probe = |deviation: f64| {
                    mna.set_value(element, base * (1.0 + deviation));
                    let value = measure_with_mna(&mna, spec);
                    mna.set_value(element, base);
                    std::hint::black_box(value.expect("board probe"));
                };
                // Warm: the grid and both probes' refinement points
                // factored, and the table filled.
                measure_with_mna(&mna, spec).expect("board nominal");
                probe(DEVIATION);
                probe(-DEVIATION);
                let start = Instant::now();
                for i in 0..PROBES {
                    probe(if i % 2 == 0 { DEVIATION } else { -DEVIATION });
                }
                probe_s += start.elapsed().as_secs_f64();
                mna.set_value(element, base * (1.0 + DEVIATION));
                grid_s += time(GRID_REPS, || {
                    std::hint::black_box(
                        mna.sweep_gains(&spec.source, output, &spec.sweep)
                            .expect("board sweep"),
                    );
                });
                per_point_s += time(GRID_REPS, || {
                    let gains = spec
                        .sweep
                        .frequencies()
                        .into_iter()
                        .map(|f| Ok((f, mna.gain(&spec.source, output, f)?)))
                        .collect::<Result<Vec<(f64, f64)>, msatpg_analog::AnalogError>>();
                    std::hint::black_box(gains.expect("board sweep"));
                });
            }
            let probes = PROBES * elements.len();
            let probe_us = probe_s * 1e6 / probes as f64;
            let grid_us = grid_s * 1e6 / elements.len() as f64;
            let grid_per_point_us = per_point_s * 1e6 / elements.len() as f64;
            let probe_per_point_us = probe_us - grid_us + grid_per_point_us;
            AnalogProbeRow {
                parameter: name.to_owned(),
                probes,
                probe_us,
                grid_us,
                grid_per_point_us,
                probe_per_point_us,
                speedup: probe_per_point_us / probe_us,
            }
        })
        .collect();
    AnalogProbeReport {
        circuit: board.name().to_owned(),
        rows,
    }
}

/// The [`PROBE_SPEEDUP_FLOOR`] of every `analog_probe` row.
fn check_analog_probe(report: &AnalogProbeReport) -> Vec<String> {
    report
        .rows
        .iter()
        .filter(|row| row.speedup < PROBE_SPEEDUP_FLOOR)
        .map(|row| {
            format!(
                "analog_probe {}: {:.1} us per probe with the grid table vs {:.1} us per point \
                 ({:.2}x < {PROBE_SPEEDUP_FLOOR}x)",
                row.parameter, row.probe_us, row.probe_per_point_us, row.speedup
            )
        })
        .collect()
}

/// Constrained OBDD ATPG without fault dropping: every collapsed fault
/// derives its own test set, so the row measures the derivation alone.
struct AtpgDerivationReport {
    circuit: String,
    faults: usize,
    /// Faults whose test set was derived (every fault, dropping off).
    derivations: usize,
    /// BDD nodes created by the campaign, the signal functions it builds
    /// on demand included (construction declares only the inputs);
    /// deterministic, so `--check` compares it exactly.
    created_nodes: u64,
    /// Peak live nodes of the engine, construction included.
    peak_live_nodes: usize,
    /// Best-of-[`ATPG_DERIVATION_REPS`] seconds per campaign, engine
    /// construction excluded.
    seconds: f64,
}

/// Timed campaigns of the `atpg_derivation` row.
const ATPG_DERIVATION_REPS: usize = 5;

/// The `atpg_derivation` row: the Example-3 circuit `name`, constrained,
/// dropping off, serial.
fn bench_atpg_derivation(name: &str) -> AtpgDerivationReport {
    let mixed = example3_mixed_circuit(name);
    let (lines, codes) = (mixed.constrained_inputs(), mixed.allowed_codes());
    let faults = FaultList::collapsed(mixed.digital());
    let engine = || {
        DigitalAtpg::new(mixed.digital())
            .with_constraints(&lines, &codes)
            .expect("Example-3 wiring is valid")
            .with_fault_dropping(false)
            .with_policy(ExecPolicy::Serial)
    };
    let mut atpg = engine();
    let before = atpg.manager().stats().created_nodes;
    let report = atpg.run(&faults).expect("unbudgeted campaign");
    let stats = atpg.manager().stats();
    let mut seconds = f64::INFINITY;
    for _ in 0..ATPG_DERIVATION_REPS {
        let mut atpg = engine();
        let start = Instant::now();
        std::hint::black_box(atpg.run(&faults).expect("unbudgeted campaign"));
        seconds = seconds.min(start.elapsed().as_secs_f64());
    }
    AtpgDerivationReport {
        circuit: name.to_owned(),
        faults: faults.len(),
        derivations: report.vector_count()
            + report.untestable_count()
            + report.degraded_count()
            + report.aborted_count(),
        created_nodes: stats.created_nodes - before,
        peak_live_nodes: stats.peak_live_nodes,
        seconds,
    }
}

/// The `atpg_signal_builds` row: how many gate functions a constrained
/// campaign with fault dropping builds on demand, against the gate count.
/// Both are structural and deterministic, so `--check` pins them exactly.
struct SignalBuildReport {
    circuit: String,
    gates: usize,
    /// Gates whose output function the campaign built.
    built: usize,
}

/// The `atpg_signal_builds` row: the Example-3 circuit `name`, constrained,
/// dropping on, serial.
fn bench_signal_builds(name: &str) -> SignalBuildReport {
    let mixed = example3_mixed_circuit(name);
    let digital = mixed.digital();
    let (lines, codes) = (mixed.constrained_inputs(), mixed.allowed_codes());
    let faults = FaultList::collapsed(digital);
    let mut atpg = DigitalAtpg::new(digital)
        .with_constraints(&lines, &codes)
        .expect("Example-3 wiring is valid")
        .with_policy(ExecPolicy::Serial);
    atpg.run(&faults).expect("unbudgeted campaign");
    SignalBuildReport {
        circuit: name.to_owned(),
        gates: digital.gate_count(),
        built: digital
            .gates()
            .iter()
            .filter(|gate| atpg.built_signal_function(gate.output).is_some())
            .count(),
    }
}

/// The `atpg_signal_builds` counts must equal the committed ones: a change
/// means the campaign reads different signal functions.
fn check_signal_builds(baseline: &Json, report: &SignalBuildReport) -> Vec<String> {
    [("gates", report.gates), ("built", report.built)]
        .into_iter()
        .filter_map(|(key, measured)| {
            match baseline
                .path(&format!("atpg_signal_builds.{key}"))
                .and_then(Json::as_f64)
            {
                Some(committed) if committed == measured as f64 => None,
                Some(committed) => Some(format!(
                    "atpg_signal_builds {} {key}: measured {measured} != committed \
                     {committed:.0} (the count is deterministic; re-record the baseline \
                     if intended)",
                    report.circuit
                )),
                None => Some(format!(
                    "atpg_signal_builds {key}: missing from the committed baseline"
                )),
            }
        })
        .collect()
}

/// `created_nodes` of the `atpg_derivation` row may not exceed the
/// committed count: node creation is deterministic, so more nodes mean the
/// derivation itself got more expensive.
fn check_atpg_derivation(baseline: &Json, report: &AtpgDerivationReport) -> Vec<String> {
    match baseline
        .path("atpg_derivation.created_nodes")
        .and_then(Json::as_f64)
    {
        Some(committed) if report.created_nodes as f64 <= committed => Vec::new(),
        Some(committed) => vec![format!(
            "atpg_derivation {}: created {} nodes > committed {committed:.0} \
             (node counts are deterministic; re-record the baseline if intended)",
            report.circuit, report.created_nodes
        )],
        None => vec!["atpg_derivation: missing from the committed baseline".to_owned()],
    }
}

/// A measured speedup may regress to this fraction of the committed
/// baseline before `--check` fails: shared CI runners easily jitter 2x, so
/// the smoke job catches structural regressions (a kernel falling back to
/// the naive path), not noise.
const CHECK_RATIO: f64 = 0.4;

/// Compares the freshly measured speedups against the committed baseline.
/// Returns the list of violations (empty = pass).
fn check_against_baseline(
    baseline: &Json,
    fault_sim: &[FaultSimReport],
    wide: &[WideFaultSimReport],
    scaling: &ThreadScalingReport,
    bdd: &BddReport,
    analog: &AnalogReport,
) -> Vec<String> {
    let mut violations = Vec::new();
    // The widened-block floor is absolute, not ratio-toleranced: the W = 8
    // engine must sustain at least `WIDE_SPEEDUP_FLOOR`x the *committed*
    // one-lane patterns/sec.  Both numbers come from the same host class,
    // and the floor only means something where the lane loops vectorize,
    // so a debug build skips it (and says so).
    for report in wide {
        let committed_w1 = baseline
            .get("fault_sim_wide")
            .and_then(Json::as_array)
            .and_then(|entries| {
                entries.iter().find(|entry| {
                    entry.get("circuit").and_then(Json::as_str) == Some(report.circuit.as_str())
                })
            })
            .and_then(|entry| entry.get("rows"))
            .and_then(Json::as_array)
            .and_then(|rows| {
                rows.iter()
                    .find(|row| row.get("lanes").and_then(Json::as_f64) == Some(1.0))
            })
            .and_then(|row| row.get("patterns_per_sec"))
            .and_then(Json::as_f64);
        let measured_w8 = report
            .rows
            .iter()
            .find(|row| row.lanes == 8)
            .map(|row| row.patterns_per_sec)
            .expect("8-lane row is always measured");
        match committed_w1 {
            Some(committed) if cfg!(debug_assertions) => {
                eprintln!(
                    "note: debug build; skipping the {WIDE_SPEEDUP_FLOOR}x wide-block floor on {} \
                     (measured {measured_w8:.1} patterns/sec at 8 lanes vs committed {committed:.1} at 1)",
                    report.circuit
                );
            }
            Some(committed) => {
                if measured_w8 < committed * WIDE_SPEEDUP_FLOOR {
                    violations.push(format!(
                        "fault_sim_wide {}: {measured_w8:.1} patterns/sec at 8 lanes < \
                         {WIDE_SPEEDUP_FLOOR}x the committed one-lane {committed:.1}",
                        report.circuit
                    ));
                }
            }
            None => violations.push(format!(
                "fault_sim_wide {}: one-lane row missing from the committed baseline",
                report.circuit
            )),
        }
    }
    let mut ratio_check = |what: &str, measured: f64, committed: Option<f64>| match committed {
        Some(committed) => {
            if measured < committed * CHECK_RATIO {
                violations.push(format!(
                    "{what}: measured {measured:.2}x < {:.2}x ({:.0}% of committed {committed:.2}x)",
                    committed * CHECK_RATIO,
                    CHECK_RATIO * 100.0
                ));
            }
        }
        None => violations.push(format!("{what}: missing from the committed baseline")),
    };
    for report in fault_sim {
        let committed = baseline
            .get("fault_sim")
            .and_then(Json::as_array)
            .and_then(|rows| {
                rows.iter().find(|row| {
                    row.get("circuit").and_then(Json::as_str) == Some(report.circuit.as_str())
                })
            })
            .and_then(|row| row.get("speedup"))
            .and_then(Json::as_f64);
        ratio_check(
            &format!("fault_sim {} PPSFP speedup", report.circuit),
            report.speedup,
            committed,
        );
    }
    ratio_check(
        "bdd arena speedup",
        bdd.speedup,
        baseline.path("bdd.speedup").and_then(Json::as_f64),
    );
    ratio_check(
        "analog warm-sweep speedup",
        analog.naive_speedup,
        baseline.path("analog.naive_speedup").and_then(Json::as_f64),
    );
    // Multi-core floors stay gated on the CPU count of the *current* host:
    // committed rows from a machine with a different core count are not
    // comparable (the seed container records 1 CPU), so thread-scaling is
    // checked against the absolute 1.5x floor in `main`, never against the
    // baseline rows.
    let baseline_cpus = baseline
        .path("ppsfp_thread_scaling.host_cpus")
        .and_then(Json::as_f64);
    if baseline_cpus != Some(scaling.host_cpus as f64) {
        eprintln!(
            "note: committed scaling rows were recorded on {} CPU(s), this host has {}; \
             skipping baseline-relative scaling comparison",
            baseline_cpus.unwrap_or(0.0),
            scaling.host_cpus
        );
    }
    violations
}

fn main() {
    let check_mode = std::env::args().any(|arg| arg == "--check");
    let fault_sim: Vec<FaultSimReport> = ["c1355", "c1908"]
        .iter()
        .map(|name| bench_fault_sim(name, 256))
        .collect();
    let wide: Vec<WideFaultSimReport> = ["c1355", "c1908"]
        .iter()
        .map(|name| bench_fault_sim_wide(name, 512))
        .collect();
    let scaling = bench_ppsfp_scaling("c1355", 256);
    let bdd = bench_bdd(24);
    let memory = bench_bdd_memory(24, "c432");
    let reorder = bench_bdd_reorder(24, "c432");
    let analog = bench_analog();
    let analog_probe = bench_analog_probe();
    let atpg_derivation = bench_atpg_derivation("c1908");
    let signal_builds = bench_signal_builds("c1908");

    let mut json = String::new();
    json.push_str("{\n  \"fault_sim\": [\n");
    for (i, r) in fault_sim.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"circuit\": \"{}\", \"gates\": {}, \"faults\": {}, \"patterns\": {}, \
             \"serial_seconds\": {:.6}, \"ppsfp_seconds\": {:.6}, \"speedup\": {:.2}, \
             \"ppsfp_patterns_per_sec\": {:.1}}}{}\n",
            r.circuit,
            r.gates,
            r.faults,
            r.patterns,
            r.serial_seconds,
            r.ppsfp_seconds,
            r.speedup,
            r.ppsfp_patterns_per_sec,
            if i + 1 < fault_sim.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n  \"fault_sim_wide\": [\n");
    for (i, report) in wide.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"circuit\": \"{}\", \"faults\": {}, \"patterns\": {}, \"rows\": [",
            report.circuit, report.faults, report.patterns,
        );
        for (j, row) in report.rows.iter().enumerate() {
            let _ = write!(
                json,
                "{{\"lanes\": {}, \"seconds\": {:.6}, \"patterns_per_sec\": {:.1}, \
                 \"speedup_vs_w1\": {:.2}}}{}",
                row.lanes,
                row.seconds,
                row.patterns_per_sec,
                row.speedup_vs_w1,
                if j + 1 < report.rows.len() { ", " } else { "" },
            );
        }
        let _ = write!(json, "]}}{}\n", if i + 1 < wide.len() { "," } else { "" },);
    }
    json.push_str("  ],\n");
    let _ = write!(
        json,
        "  \"ppsfp_thread_scaling\": {{\"circuit\": \"{}\", \"faults\": {}, \"patterns\": {}, \
         \"host_cpus\": {}, \"floor_enforced\": {}, \"rows\": [",
        scaling.circuit,
        scaling.faults,
        scaling.patterns,
        scaling.host_cpus,
        scaling.floor_enforced,
    );
    for (i, row) in scaling.rows.iter().enumerate() {
        let _ = write!(
            json,
            "{{\"workers\": {}, \"seconds\": {:.6}, \"speedup\": {:.2}}}{}",
            row.workers,
            row.seconds,
            row.speedup,
            if i + 1 < scaling.rows.len() { ", " } else { "" },
        );
    }
    json.push_str("]},\n");
    let _ = write!(
        json,
        "  \"bdd\": {{\"carry_bits\": {}, \"naive_seconds\": {:.6}, \"arena_seconds\": {:.6}, \
         \"speedup\": {:.2}, \"arena_ops_per_sec\": {:.1}, \"apply_hit_rate\": {:.4}, \
         \"mux_selects\": {}, \"ite_hit_rate\": {:.4}}},\n",
        bdd.carry_bits,
        bdd.naive_seconds,
        bdd.arena_seconds,
        bdd.speedup,
        bdd.arena_ops_per_sec,
        bdd.apply_hit_rate,
        bdd.mux_selects,
        bdd.ite_hit_rate,
    );
    let _ = write!(
        json,
        "  \"bdd_memory\": {{\"carry_bits\": {}, \"carry_naive_nodes\": {}, \
         \"carry_complement_nodes\": {}, \"carry_reduction\": {:.2}, \
         \"example3_circuit\": \"{}\", \"example3_naive_nodes\": {}, \
         \"example3_complement_nodes\": {}, \"example3_reduction\": {:.2}, \
         \"gc_live_before\": {}, \"gc_live_after\": {}, \"gc_reclaimed\": {}, \
         \"gc_reclaim_fraction\": {:.4}}},\n",
        memory.carry_bits,
        memory.carry_naive_nodes,
        memory.carry_complement_nodes,
        memory.carry_reduction,
        memory.example3_circuit,
        memory.example3_naive_nodes,
        memory.example3_complement_nodes,
        memory.example3_reduction,
        memory.gc_live_before,
        memory.gc_live_after,
        memory.gc_reclaimed,
        memory.gc_reclaim_fraction,
    );
    let _ = write!(
        json,
        "  \"bdd_reorder\": {{\"pairs_bits\": {}, \"pairs_nodes_before\": {}, \
         \"pairs_nodes_after\": {}, \"pairs_reduction\": {:.2}, \"pairs_swaps\": {}, \
         \"example3_circuit\": \"{}\", \"example3_nodes_declared\": {}, \
         \"example3_nodes_reversed\": {}, \"example3_nodes_sifted\": {}, \
         \"example3_recovery\": {:.2}, \"c432_fc_nodes_reversed\": {}, \
         \"c432_fc_nodes_sifted\": {}, \"c432_fc_recovery\": {:.2}, \
         \"c499_fc_nodes_reversed\": {}, \"c499_fc_nodes_sifted\": {}, \
         \"c499_fc_recovery\": {:.2}, \"node_cap\": {}}},\n",
        reorder.pairs_bits,
        reorder.pairs_nodes_before,
        reorder.pairs_nodes_after,
        reorder.pairs_reduction,
        reorder.pairs_swaps,
        reorder.example3_circuit,
        reorder.example3_nodes_declared,
        reorder.example3_nodes_reversed,
        reorder.example3_nodes_sifted,
        reorder.example3_recovery,
        reorder.c432_fc_nodes_reversed,
        reorder.c432_fc_nodes_sifted,
        reorder.c432_fc_recovery,
        reorder.c499_fc_nodes_reversed,
        reorder.c499_fc_nodes_sifted,
        reorder.c499_fc_recovery,
        reorder.node_cap,
    );
    let _ = write!(
        json,
        "  \"analog\": {{\"filter\": \"{}\", \"unknowns\": {}, \"sweep_points\": {}, \
         \"naive_seconds\": {:.6}, \"cold_seconds\": {:.6}, \"warm_seconds\": {:.6}, \
         \"naive_speedup\": {:.2}, \"warm_points_per_sec\": {:.1}}},\n",
        analog.filter,
        analog.unknowns,
        analog.sweep_points,
        analog.naive_seconds,
        analog.cold_seconds,
        analog.warm_seconds,
        analog.naive_speedup,
        analog.warm_points_per_sec,
    );
    let _ = writeln!(
        json,
        "  \"analog_probe\": {{\"circuit\": \"{}\", \"rows\": [",
        analog_probe.circuit
    );
    for (i, row) in analog_probe.rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"parameter\": \"{}\", \"probes\": {}, \"probe_us\": {:.2}, \"grid_us\": {:.2}, \
             \"grid_per_point_us\": {:.2}, \"probe_per_point_us\": {:.2}, \"speedup\": {:.2}}}{}",
            row.parameter,
            row.probes,
            row.probe_us,
            row.grid_us,
            row.grid_per_point_us,
            row.probe_per_point_us,
            row.speedup,
            if i + 1 < analog_probe.rows.len() {
                ","
            } else {
                ""
            },
        );
    }
    json.push_str("  ]},\n");
    let _ = writeln!(
        json,
        "  \"atpg_derivation\": {{\"circuit\": \"{}\", \"faults\": {}, \"derivations\": {}, \
         \"created_nodes\": {}, \"peak_live_nodes\": {}, \"seconds\": {:.6}}},",
        atpg_derivation.circuit,
        atpg_derivation.faults,
        atpg_derivation.derivations,
        atpg_derivation.created_nodes,
        atpg_derivation.peak_live_nodes,
        atpg_derivation.seconds,
    );
    let _ = writeln!(
        json,
        "  \"atpg_signal_builds\": {{\"circuit\": \"{}\", \"gates\": {}, \"built\": {}}}\n}}",
        signal_builds.circuit, signal_builds.gates, signal_builds.built,
    );

    if check_mode {
        let committed = std::fs::read_to_string("BENCH_kernels.json")
            .expect("--check needs the committed BENCH_kernels.json baseline");
        let baseline = json::parse(&committed).expect("committed baseline parses");
        let mut violations =
            check_against_baseline(&baseline, &fault_sim, &wide, &scaling, &bdd, &analog);
        // Node counts are exact and deterministic: beyond the static
        // floors, the measured counts must equal the committed baseline —
        // any drift means the engines (not the runner) changed, and the
        // baseline must be consciously re-recorded.
        violations.extend(check_bdd_memory(&memory));
        violations.extend(check_bdd_reorder(&reorder));
        violations.extend(check_analog_probe(&analog_probe));
        violations.extend(check_atpg_derivation(&baseline, &atpg_derivation));
        violations.extend(check_signal_builds(&baseline, &signal_builds));
        let reorder_exact = [
            ("pairs_nodes_before", reorder.pairs_nodes_before),
            ("pairs_nodes_after", reorder.pairs_nodes_after),
            ("pairs_swaps", reorder.pairs_swaps),
            ("example3_nodes_declared", reorder.example3_nodes_declared),
            ("example3_nodes_reversed", reorder.example3_nodes_reversed),
            ("example3_nodes_sifted", reorder.example3_nodes_sifted),
            ("c432_fc_nodes_reversed", reorder.c432_fc_nodes_reversed),
            ("c432_fc_nodes_sifted", reorder.c432_fc_nodes_sifted),
            ("c499_fc_nodes_reversed", reorder.c499_fc_nodes_reversed),
            ("c499_fc_nodes_sifted", reorder.c499_fc_nodes_sifted),
        ];
        for (key, measured) in reorder_exact {
            match baseline
                .path(&format!("bdd_reorder.{key}"))
                .and_then(Json::as_f64)
            {
                Some(committed) if committed == measured as f64 => {}
                Some(committed) => violations.push(format!(
                    "bdd_reorder {key}: measured {measured} != committed {committed:.0} \
                     (node counts are deterministic; re-record the baseline if intended)"
                )),
                None => violations.push(format!(
                    "bdd_reorder {key}: missing from the committed baseline"
                )),
            }
        }
        let exact = [
            ("carry_naive_nodes", memory.carry_naive_nodes),
            ("carry_complement_nodes", memory.carry_complement_nodes),
            ("example3_naive_nodes", memory.example3_naive_nodes),
            (
                "example3_complement_nodes",
                memory.example3_complement_nodes,
            ),
            ("gc_live_before", memory.gc_live_before),
            ("gc_live_after", memory.gc_live_after),
            ("gc_reclaimed", memory.gc_reclaimed),
        ];
        for (key, measured) in exact {
            match baseline
                .path(&format!("bdd_memory.{key}"))
                .and_then(Json::as_f64)
            {
                Some(committed) if committed == measured as f64 => {}
                Some(committed) => violations.push(format!(
                    "bdd_memory {key}: measured {measured} nodes != committed {committed:.0} \
                     (node counts are deterministic; re-record the baseline if intended)"
                )),
                None => violations.push(format!(
                    "bdd_memory {key}: missing from the committed baseline"
                )),
            }
        }
        print!("{json}");
        if violations.is_empty() {
            eprintln!("perf check passed against the committed BENCH_kernels.json");
        } else {
            for violation in &violations {
                eprintln!("perf regression: {violation}");
            }
            std::process::exit(1);
        }
    } else {
        std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
        print!("{json}");
        eprintln!("wrote BENCH_kernels.json");
    }

    // The absolute floors below guard deliberate baseline-recording runs.
    // Under `--check` they are skipped: the smoke job's contract is the
    // baseline-relative tolerance of `check_against_baseline` (0.4x of the
    // committed speedups), and a hard 10x assert would bypass it on a noisy
    // shared runner.
    if check_mode {
        if scaling.floor_enforced {
            if let Some(four) = scaling.rows.iter().find(|r| r.workers == 4) {
                if four.speedup < 1.5 {
                    eprintln!(
                        "warning: PPSFP at 4 workers measured only {:.2}x over 1 worker on {} \
                         (floor 1.5x is advisory under --check; shared runners are noisy)",
                        four.speedup, scaling.circuit
                    );
                }
            }
        } else {
            eprintln!(
                "note: host has {} hardware thread(s) (< 4); multi-core scaling floors skipped — \
                 the ppsfp_thread_scaling rows are recorded for reference only, since extra workers cannot physically speed up on this host",
                scaling.host_cpus
            );
        }
        return;
    }
    // Wide-block floor in record mode: deliberate baseline recordings must
    // demonstrate the widening actually pays on this build.  The floor
    // only means something where the lane loops vectorize, so debug builds
    // record the rows and say why the floor is skipped.
    for report in &wide {
        let w8 = report
            .rows
            .iter()
            .find(|r| r.lanes == 8)
            .expect("8-lane row is always measured");
        if cfg!(debug_assertions) {
            eprintln!(
                "note: debug build; the {WIDE_SPEEDUP_FLOOR}x wide-block floor on {} is recorded \
                 ({:.2}x at 8 lanes) but not enforced",
                report.circuit, w8.speedup_vs_w1
            );
        } else {
            assert!(
                w8.speedup_vs_w1 >= WIDE_SPEEDUP_FLOOR,
                "wide PPSFP at 8 lanes is only {:.2}x over 1 lane on {} (floor: {WIDE_SPEEDUP_FLOOR}x)",
                w8.speedup_vs_w1,
                report.circuit
            );
        }
    }
    for r in &fault_sim {
        assert!(
            r.speedup >= 10.0,
            "PPSFP speedup on {} ({} gates) is only {:.1}x (acceptance floor: 10x)",
            r.circuit,
            r.gates,
            r.speedup
        );
    }
    // Serial path must not regress from threading support: the 1-worker row
    // runs the inline path over the same cones as the plain PPSFP run above.
    // The scaling run disables fault dropping (strictly more propagation
    // work, empirically ~2x on the ISCAS circuits), so the guard is a loose
    // 6x — it catches structural regressions, not jitter.
    let serial_row = &scaling.rows[0];
    let plain = fault_sim
        .iter()
        .find(|r| r.circuit == scaling.circuit)
        .expect("scaling circuit is benchmarked");
    assert!(
        serial_row.seconds <= plain.ppsfp_seconds * 6.0,
        "serial PPSFP path regressed: {:.6}s at 1 worker vs {:.6}s plain run",
        serial_row.seconds,
        plain.ppsfp_seconds
    );
    if scaling.floor_enforced {
        let four = scaling
            .rows
            .iter()
            .find(|r| r.workers == 4)
            .expect("4-worker row is always measured");
        assert!(
            four.speedup >= 1.5,
            "PPSFP at 4 workers is only {:.2}x over 1 worker on {} (floor: 1.5x)",
            four.speedup,
            scaling.circuit
        );
    } else {
        eprintln!(
            "note: host has {} hardware thread(s); the 1.5x @ 4 workers floor needs >= 4 and is recorded but not enforced",
            scaling.host_cpus
        );
    }
    assert!(
        bdd.speedup >= 1.0,
        "arena BDD engine regressed vs naive: {:.2}x",
        bdd.speedup
    );
    assert!(
        analog.naive_speedup >= 1.0,
        "analog sweep reuse regressed vs naive: {:.2}x",
        analog.naive_speedup
    );
    let memory_violations = check_bdd_memory(&memory);
    assert!(
        memory_violations.is_empty(),
        "bdd_memory floors violated: {}",
        memory_violations.join("; ")
    );
    let reorder_violations = check_bdd_reorder(&reorder);
    assert!(
        reorder_violations.is_empty(),
        "bdd_reorder floors violated: {}",
        reorder_violations.join("; ")
    );
    let probe_violations = check_analog_probe(&analog_probe);
    assert!(
        probe_violations.is_empty(),
        "analog_probe floor violated: {}",
        probe_violations.join("; ")
    );
}
