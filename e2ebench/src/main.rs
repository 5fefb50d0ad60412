//! End-to-end benchmark of the mixed-signal ATPG flow.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <board_worstcase|iscas_campaign|iscas_no_drop|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--print-expected]
//! ```
//!
//! A run builds the workload's inputs from the seed (timed several times:
//! `setup_s`), then runs closed-loop passes for `--seconds` seconds: a block
//! of serial passes, then a block on one shared `Threads(2)` pool.
//! Every pass is checked (see `checks`).  With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it adds untraced serial passes,
//! records a span per flow stage and measures each layer once, and reports
//! the per-layer metrics.  The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.  `--workload
//! all` runs every workload with `--trace 0` and then `--trace 1`, each in a
//! process of its own so that `peak_rss_mb` stays per workload.

mod checks;
mod layers;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use msatpg::core::{ExecPolicy, PoolStats, WorkerPool};

use checks::Verdict;
use stats::{median, quantile, tail_share};
use workloads::{Inputs, PassOutput, Spans, Stage, Workload, DEFAULT_SEED};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Environment variables that would change what the default options
/// resolve to (thread count, PPSFP word width, DVO mode).
const PINNED_ENV: [&str; 3] = ["MSATPG_THREADS", "MSATPG_WORD_WIDTH", "MSATPG_DVO"];
/// Set-up repetitions before the first pass and after each pass; `setup_s`
/// is the median of all of them.
const SETUP_REPS: usize = 15;
/// Fewest timed passes of each kind, even when `--seconds` runs out first.
const MIN_PASSES: usize = 3;
/// Workers of the shared pool (the host has 2 hardware threads).
const THREADS: usize = 2;

struct Args {
    /// `None` for `--workload all`.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut print_expected) =
        (None, DEFAULT_SEED, 10.0, false, false);
    while let Some(flag) = args.next() {
        if flag == "--print-expected" {
            print_expected = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "all" => None,
                    name => Some(
                        Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?,
                    ),
                })
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        print_expected,
    })
}

/// One timed pass.
struct Sample {
    secs: f64,
    spans: [f64; 5],
    verify_s: f64,
    patterns: usize,
}

/// Runs passes, checks them and keeps the tally.
struct Runner {
    inputs: Inputs,
    seed: u64,
    /// Set-up times of the run.
    setup_s: Vec<f64>,
    check_expected: bool,
    reference: Option<PassOutput>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Runner {
    fn pass(&mut self, pool: &WorkerPool, traced: bool) -> Res<Sample> {
        let mut spans = Spans::new(traced);
        let start = Instant::now();
        let out = workloads::run_pass(&self.inputs, pool, &mut spans)?;
        let secs = start.elapsed().as_secs_f64();
        let mut verdict = Verdict::default();
        checks::resimulate(&self.inputs, &out, &mut verdict);
        match &self.reference {
            Some(reference) => checks::same_as_reference(&out, reference, &mut verdict),
            None => {
                if self.check_expected {
                    let rendered = checks::render(&self.inputs, &out);
                    let expected = checks::expected(self.inputs.workload);
                    checks::matches_expected(&rendered, expected, &mut verdict);
                }
                self.reference = Some(out);
            }
        }
        self.record(verdict.problems, verdict.aborted);
        Ok(Sample {
            secs,
            spans: spans.secs,
            verify_s: verdict.verify_s,
            patterns: verdict.patterns,
        })
    }

    /// One operation: failed if any check failed; each aborted fault counts
    /// as one more failed operation.
    fn record(&mut self, problems: Vec<String>, aborted: usize) {
        self.attempted += 1;
        self.failed += u64::from(!problems.is_empty()) + aborted as u64;
        self.problems.extend(problems);
    }

    /// Builds the workload's inputs `SETUP_REPS` times, timing each build.
    /// Runs before the first pass and after every pass, so `setup_s` samples
    /// the whole run rather than one moment of it.
    fn time_setups(&mut self) {
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            std::hint::black_box(workloads::setup(self.inputs.workload, self.seed));
            self.setup_s.push(start.elapsed().as_secs_f64());
        }
    }

    /// Closed-loop passes on one pool for `seconds`, at least `MIN_PASSES`.
    /// Serial and shared-pool passes run in separate blocks: a serial pass
    /// right after a threaded one runs measurably slower on a 2-thread host,
    /// which a user running one flow per process never sees.
    fn block(&mut self, pool: &WorkerPool, traced: bool, seconds: f64) -> Res<Vec<Sample>> {
        let mut samples = Vec::new();
        let start = Instant::now();
        while samples.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
            samples.push(self.pass(pool, traced)?);
            self.time_setups();
        }
        Ok(samples)
    }

    fn reference(&self) -> &PassOutput {
        self.reference
            .as_ref()
            .expect("the first pass sets the reference")
    }
}

fn secs(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.secs).collect()
}

/// A metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Process high-water resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// `name: median (p25, p75, max, n)` and, up to 40, the samples of a
/// timing series.
fn describe(name: &str, samples: &[f64]) -> String {
    let all: Vec<String> = match samples.len() {
        0..=40 => samples.iter().map(|s| format!("{s:.6}")).collect(),
        _ => Vec::new(),
    };
    format!(
        "{name}: median {:.6} s (p25 {:.6}, p75 {:.6}, max {:.6}, n {}) [{}]",
        median(samples),
        quantile(samples, 0.25),
        quantile(samples, 0.75),
        quantile(samples, 1.0),
        samples.len(),
        all.join(" ")
    )
}

/// The end-to-end metrics: untraced passes, serial then on the shared
/// pool.
fn end_to_end(runner: &mut Runner, seconds: f64) -> Res<Vec<Metric>> {
    let serial = WorkerPool::new(ExecPolicy::Serial);
    let shared = WorkerPool::new(ExecPolicy::Threads(THREADS));
    let flow = secs(&runner.block(&serial, false, seconds / 2.0)?);
    // The high-water mark of the serial flow users run by default; threaded
    // passes add per-thread arenas whose size depends on scheduling.
    let peak_rss_mb = peak_rss_mb()?;
    let flow_par = secs(&runner.block(&shared, false, seconds / 2.0)?);
    println!("{}", describe("setup_s", &runner.setup_s));
    println!("{}", describe("flow_s", &flow));
    println!("{}", describe("flow_par_s", &flow_par));

    let reference = runner.reference();
    let (detected, total) = reference.digital.iter().fold((0, 0), |(d, t), c| {
        (d + c.report.detected, t + c.report.total_faults)
    });
    let digital_vectors: usize = reference
        .digital
        .iter()
        .map(|c| c.report.vector_count())
        .sum();
    let analog_vectors = reference
        .analog
        .iter()
        .filter(|e| e.outcome.is_tested())
        .count();
    // Analog elements tested in the pass: the filter elements of the
    // analog-test stage and the ladder resistors of the conversion stage.
    // A pass that tests none scores 1, as `TestPlan::analog_coverage` does.
    let elements = reference.analog.len() + reference.conversion.len();
    let tested = analog_vectors
        + reference
            .conversion
            .iter()
            .filter(|(_, e)| e.comparator.is_some())
            .count();
    let analog_coverage = if elements == 0 {
        1.0
    } else {
        tested as f64 / elements as f64
    };
    Ok(vec![
        metric("setup_s", median(&runner.setup_s), "s"),
        metric("flow_s", median(&flow), "s"),
        metric("flow_par_s", median(&flow_par), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
        metric("fault_coverage", detected as f64 / total as f64, "ratio"),
        metric(
            "test_vectors",
            (digital_vectors + analog_vectors) as f64,
            "count",
        ),
        metric("analog_coverage", analog_coverage, "ratio"),
    ])
}

fn pool_delta(before: PoolStats, after: PoolStats) -> PoolStats {
    PoolStats {
        spawns: after.spawns - before.spawns,
        jobs: after.jobs - before.jobs,
        barriers: after.barriers - before.barriers,
    }
}

/// The per-layer metrics.  Serial iterations of an untraced pass, a traced
/// pass and a timed derivation run back to back, so that the differences
/// they give (`trace.overhead_s`, `atpg.screen_s`) pair measurements taken
/// moments apart; then a block of traced shared-pool passes; then one
/// measurement per remaining layer.
fn per_layer(runner: &mut Runner, seconds: f64) -> Res<Vec<Metric>> {
    let serial = WorkerPool::new(ExecPolicy::Serial);
    let shared = WorkerPool::new(ExecPolicy::Threads(THREADS));
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut overhead, mut derive_s, mut screen_s) = (Vec::new(), Vec::new(), Vec::new());
    // Per derived fault, its `try_generate` time in each iteration.
    let mut fault_us: Vec<Vec<f64>> = Vec::new();
    let mut derived = None;
    let start = Instant::now();
    while untraced.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds * 2.0 / 3.0 {
        let plain = runner.pass(&serial, false)?.secs;
        let sample = runner.pass(&serial, true)?;
        let run = layers::derivations(&runner.inputs, runner.reference())?;
        let run_s = run.fault_us.iter().sum::<f64>() / 1e6;
        let digital = sample.spans[Stage::DigitalConstrained as usize]
            + sample.spans[Stage::DigitalUnconstrained as usize];
        overhead.push(sample.secs - plain);
        derive_s.push(run_s);
        screen_s.push(digital - run_s);
        fault_us.resize(run.fault_us.len(), Vec::new());
        for (times, t) in fault_us.iter_mut().zip(&run.fault_us) {
            times.push(*t);
        }
        untraced.push(plain);
        traced.push(sample);
        derived = Some(run);
    }
    let derived = derived.expect("at least one serial iteration");
    let fault_us: Vec<f64> = fault_us.iter().map(|times| median(times)).collect();
    // Pool counters of one shared-pool pass.
    let before = shared.stats();
    let mut traced_par = vec![runner.pass(&shared, true)?];
    let pool = pool_delta(before, shared.stats());
    traced_par.extend(runner.block(&shared, true, seconds / 3.0)?);
    let span = |samples: &[Sample], stage: Stage| {
        median(
            &samples
                .iter()
                .map(|s| s.spans[stage as usize])
                .collect::<Vec<_>>(),
        )
    };
    println!("{}", describe("untraced flow_s", &untraced));
    println!("{}", describe("traced flow_s", &secs(&traced)));
    println!("{}", describe("traced flow_par_s", &secs(&traced_par)));

    let mut metrics = Vec::new();
    for stage in Stage::ALL {
        metrics.push(metric(
            format!("stage.{}_s", stage.name()),
            span(&traced, stage),
            "s",
        ));
    }
    for stage in Stage::ALL {
        let name = format!("stage.{}_par_s", stage.name());
        metrics.push(metric(name, span(&traced_par, stage), "s"));
    }

    let rows = runner.reference().deviations.len();
    let analog = layers::analog(&runner.inputs)?;
    metrics.extend([
        metric("analog.rows", rows as f64, "count"),
        metric(
            "analog.row_s",
            span(&traced, Stage::AnalogDeviation) / rows.max(1) as f64,
            "s",
        ),
        metric("analog.sensitivity_s", analog.sensitivity_s, "s"),
        metric("analog.probe_us", analog.probe_us, "us"),
        metric("analog.solves_per_probe", analog.solves_per_probe, "count"),
        metric(
            "analog.factorizations_per_probe",
            analog.factorizations_per_probe,
            "count",
        ),
        metric(
            "analog.assemblies_per_probe",
            analog.assemblies_per_probe,
            "count",
        ),
    ]);

    let mut verdict = Verdict::default();
    let bdd = layers::bdd(&runner.inputs, runner.reference(), &mut verdict)?;
    runner.record(verdict.problems, verdict.aborted);
    metrics.extend([
        metric("bdd.peak_live_nodes", bdd.peak_live_nodes as f64, "count"),
        metric("bdd.created_nodes", bdd.created_nodes as f64, "count"),
        metric("bdd.gc_runs", bdd.gc_runs as f64, "count"),
        metric("bdd.gc_reclaimed", bdd.gc_reclaimed as f64, "count"),
        metric(
            "bdd.apply_hit_rate",
            bdd.apply_hits as f64 / bdd.apply_lookups.max(1) as f64,
            "ratio",
        ),
    ]);

    metrics.extend([
        metric("atpg.derivations", derived.derivations as f64, "count"),
        metric(
            "atpg.derivation_share",
            derived.derivations as f64 / derived.faults as f64,
            "ratio",
        ),
        metric("atpg.derive_s", median(&derive_s), "s"),
        metric("atpg.screen_s", median(&screen_s), "s"),
        metric("atpg.fault_us_p50", median(&fault_us), "us"),
        metric("atpg.fault_us_p99", quantile(&fault_us, 0.99), "us"),
        metric("atpg.fault_us_max", quantile(&fault_us, 1.0), "us"),
        metric("atpg.tail_share", tail_share(&fault_us), "ratio"),
    ]);

    let verify: Vec<f64> = traced.iter().map(|s| s.verify_s).collect();
    let rate: Vec<f64> = traced
        .iter()
        .map(|s| s.patterns as f64 / s.verify_s)
        .collect();
    let (study_s, usable) = layers::conversion_study(&runner.inputs)?;
    metrics.extend([
        metric("ppsfp.verify_s", median(&verify), "s"),
        metric("ppsfp.patterns_per_s", median(&rate), "1/s"),
        metric("pool.spawns", pool.spawns as f64, "count"),
        metric("pool.jobs", pool.jobs as f64, "count"),
        metric("pool.barriers", pool.barriers as f64, "count"),
        metric("conversion.study_s", study_s, "s"),
        metric("conversion.usable_comparators", usable as f64, "count"),
        metric("trace.overhead_s", median(&overhead), "s"),
    ]);
    Ok(metrics)
}

fn result_line(runner: &Runner, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = runner.failed == 0 && finite;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        runner.attempted,
        runner.failed,
        body.join(", ")
    )
}

/// Runs every workload, end-to-end then traced, as child processes of this
/// executable, and fails unless each reports `correct: true`.
fn run_all(args: &Args) -> Res<()> {
    let exe = std::env::current_exe()?;
    let mut correct = true;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
            let out = std::process::Command::new(&exe)
                .args(["--workload", workload.name(), "--seed", &seed])
                .args(["--seconds", &seconds, "--trace", trace])
                .output()?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            correct &= out.status.success()
                && stdout
                    .lines()
                    .last()
                    .is_some_and(|l| l.contains("\"correct\": true"));
        }
    }
    if correct {
        Ok(())
    } else {
        Err("a workload failed a check or did not finish".into())
    }
}

fn run(workload: Workload, args: &Args) -> Res<()> {
    let start = Instant::now();
    let inputs = workloads::setup(workload, args.seed);
    let first_setup_s = start.elapsed().as_secs_f64();
    if args.print_expected {
        let serial = WorkerPool::new(ExecPolicy::Serial);
        let out = workloads::run_pass(&inputs, &serial, &mut Spans::new(false))?;
        print!("{}", checks::render(&inputs, &out));
        return Ok(());
    }
    let mut runner = Runner {
        check_expected: !workload.seeded() || args.seed == DEFAULT_SEED,
        inputs,
        seed: args.seed,
        setup_s: vec![first_setup_s],
        reference: None,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    println!(
        "workload {} seed {}{} seconds {} trace {}",
        workload.name(),
        args.seed,
        if workload.seeded() {
            ""
        } else {
            " (unused: no random input)"
        },
        args.seconds,
        u8::from(args.trace)
    );
    runner.time_setups();
    let metrics = if args.trace {
        per_layer(&mut runner, args.seconds)?
    } else {
        end_to_end(&mut runner, args.seconds)?
    };
    for problem in &runner.problems {
        eprintln!("check failed: {problem}");
    }
    for m in &metrics {
        println!("{:<34} {:>18} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&runner, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = PINNED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("e2ebench: {var} is set; unset it so the benchmark measures the default options");
        return ExitCode::FAILURE;
    }
    let result = match args.workload {
        Some(workload) => run(workload, &args),
        None if args.print_expected => Err("--print-expected needs one workload".into()),
        None => run_all(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
