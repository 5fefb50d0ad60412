//! The three workloads: how their inputs are built from the seed, and what
//! one pass of each runs through the public API.

use std::time::Instant;

use msatpg::analog::filters;
use msatpg::analog::sensitivity::DeviationRow;
use msatpg::conversion::constraints::AllowedCodes;
use msatpg::conversion::{FlashAdc, SarAdc};
use msatpg::core::digital_atpg::{AtpgReport, DigitalAtpg};
use msatpg::core::test_plan::ConversionTestEntry;
use msatpg::core::{
    AnalogTestEntry, AtpgOptions, ConverterBlock, CoreError, ExecPolicy, MixedCircuit,
    MixedSignalAtpg, WorkerPool,
};
use msatpg::digital::netlist::SignalId;
use msatpg::digital::{benchmarks, circuits, FaultList};

/// The seed that reproduces the paper's Table 4 wiring of the constrained
/// inputs; the committed expected values hold for this seed.
pub const DEFAULT_SEED: u64 = 1995;

/// Comparators and reference voltage of the Example-3 flash converter.
const EXAMPLE3_COMPARATORS: usize = 15;
const EXAMPLE3_VREF: f64 = 4.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `MixedSignalAtpg::run_on` on the Figure-8 board with worst-case
    /// masking: the analog deviation stage dominates.
    BoardWorstcase,
    /// Constrained and unconstrained digital ATPG plus the conversion study
    /// on the Example-3 circuits c432..c1908, with fault dropping.
    IscasCampaign,
    /// Constrained digital ATPG without fault dropping on the Example-3
    /// c1355 and c1908 circuits: every fault derives its own test set.
    IscasNoDrop,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BoardWorstcase,
        Workload::IscasCampaign,
        Workload::IscasNoDrop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BoardWorstcase => "board_worstcase",
            Workload::IscasCampaign => "iscas_campaign",
            Workload::IscasNoDrop => "iscas_no_drop",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Does the seed change this workload's inputs?  The board is wired in
    /// a fixed order, so it has no random input.
    pub fn seeded(self) -> bool {
        self != Workload::BoardWorstcase
    }

    /// The options every pass uses: the defaults users get (word width and
    /// DVO mode resolve to W1 and `never` with the environment pinned), plus
    /// worst-case masking on the board.
    fn options(self) -> AtpgOptions {
        AtpgOptions {
            worst_case: self == Workload::BoardWorstcase,
            exec: ExecPolicy::Serial,
            ..AtpgOptions::default()
        }
    }
}

/// The flow stages of `core::test_plan`, in `MixedSignalAtpg::run_on` order.
#[derive(Clone, Copy, Debug)]
pub enum Stage {
    DigitalConstrained,
    DigitalUnconstrained,
    AnalogDeviation,
    AnalogTests,
    Conversion,
}

impl Stage {
    pub const ALL: [Stage; 5] = [
        Stage::DigitalConstrained,
        Stage::DigitalUnconstrained,
        Stage::AnalogDeviation,
        Stage::AnalogTests,
        Stage::Conversion,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stage::DigitalConstrained => "digital_constrained",
            Stage::DigitalUnconstrained => "digital_unconstrained",
            Stage::AnalogDeviation => "analog_deviation",
            Stage::AnalogTests => "analog_tests",
            Stage::Conversion => "conversion",
        }
    }
}

/// Stage spans of one pass.  When off, `time` only runs the closure; the
/// untraced passes that give the end-to-end metrics use this.
pub struct Spans {
    on: bool,
    pub secs: [f64; 5],
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans { on, secs: [0.0; 5] }
    }

    pub fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.secs[stage as usize] += start.elapsed().as_secs_f64();
        out
    }
}

/// One mixed circuit of a workload with the inputs set-up derives from it.
pub struct Circuit {
    pub atpg: MixedSignalAtpg,
    pub lines: Vec<SignalId>,
    pub codes: AllowedCodes,
    pub faults: FaultList,
}

impl Circuit {
    fn new(mixed: MixedCircuit, options: AtpgOptions) -> Circuit {
        let lines = mixed.constrained_inputs();
        let codes = mixed.allowed_codes();
        let faults = FaultList::collapsed(mixed.digital());
        Circuit {
            atpg: MixedSignalAtpg::new(mixed).with_options(options),
            lines,
            codes,
            faults,
        }
    }

    pub fn mixed(&self) -> &MixedCircuit {
        self.atpg.circuit()
    }

    /// The constrained engine `digital_constrained_on` builds, with fault
    /// dropping on or off.
    pub fn constrained_engine(&self, fault_dropping: bool) -> Result<DigitalAtpg<'_>, CoreError> {
        let options = AtpgOptions::default();
        Ok(DigitalAtpg::new(self.mixed().digital())
            .with_budget(options.bdd_budget)
            .with_word_width(options.word_width)
            .with_constraints(&self.lines, &self.codes)?
            .with_dvo(options.dvo)
            .with_fault_dropping(fault_dropping))
    }

    /// The unconstrained engine `digital_unconstrained_on` builds.
    pub fn unconstrained_engine(&self) -> DigitalAtpg<'_> {
        let options = AtpgOptions::default();
        DigitalAtpg::new(self.mixed().digital())
            .with_budget(options.bdd_budget)
            .with_word_width(options.word_width)
            .with_dvo(options.dvo)
    }
}

/// Everything set-up builds before the first pass: netlists, mixed-circuit
/// wiring, the conversion constraint `Fc` (as its allowed codes) and the
/// fault lists.
pub struct Inputs {
    pub workload: Workload,
    pub circuits: Vec<Circuit>,
}

/// The Example-3 mixed circuit around one ISCAS85 stand-in, with the
/// constrained inputs chosen by `connect_randomly(seed)`.
fn example3(name: &str, seed: u64) -> MixedCircuit {
    let digital = benchmarks::by_name(name).expect("known ISCAS85 stand-in");
    let adc = FlashAdc::uniform(EXAMPLE3_COMPARATORS, EXAMPLE3_VREF).expect("valid converter");
    let label = format!("example3-{name}");
    let mut mixed = MixedCircuit::new(
        &label,
        filters::fifth_order_chebyshev(),
        ConverterBlock::Flash(adc),
        digital,
    );
    mixed
        .connect_randomly(seed)
        .expect("ISCAS85 stand-ins have enough inputs");
    mixed
}

/// The Figure-8 validation board: state-variable filter, AD7820-class SAR
/// converter with its 4 low-order lines on the inputs of a 4-bit adder.
fn figure8_board() -> MixedCircuit {
    let mut mixed = MixedCircuit::new(
        "figure8-board",
        filters::state_variable_filter(),
        ConverterBlock::Binary {
            adc: SarAdc::ad7820(),
            lines: 4,
        },
        circuits::adder4(),
    );
    mixed
        .connect_in_order(&["a0", "a1", "a2", "a3"])
        .expect("adder inputs exist");
    mixed
}

pub fn setup(workload: Workload, seed: u64) -> Inputs {
    let options = workload.options();
    let mixed: Vec<MixedCircuit> = match workload {
        Workload::BoardWorstcase => vec![figure8_board()],
        Workload::IscasCampaign => ["c432", "c499", "c880", "c1355", "c1908"]
            .iter()
            .map(|name| example3(name, seed))
            .collect(),
        Workload::IscasNoDrop => ["c1355", "c1908"]
            .iter()
            .map(|name| example3(name, seed))
            .collect(),
    };
    Inputs {
        workload,
        circuits: mixed
            .into_iter()
            .map(|m| Circuit::new(m, options))
            .collect(),
    }
}

/// One digital ATPG campaign of a pass.
pub struct Campaign {
    /// Index into `Inputs::circuits`.
    pub circuit: usize,
    pub constrained: bool,
    pub report: AtpgReport,
}

/// What one pass produced.  Conversion entries carry their circuit index.
pub struct PassOutput {
    pub digital: Vec<Campaign>,
    pub deviations: Vec<DeviationRow>,
    pub analog: Vec<AnalogTestEntry>,
    pub conversion: Vec<(usize, ConversionTestEntry)>,
}

/// Runs one pass of the workload on `pool`.
pub fn run_pass(
    inputs: &Inputs,
    pool: &WorkerPool,
    spans: &mut Spans,
) -> Result<PassOutput, CoreError> {
    let mut out = PassOutput {
        digital: Vec::new(),
        deviations: Vec::new(),
        analog: Vec::new(),
        conversion: Vec::new(),
    };
    let campaign = |circuit, constrained, report| Campaign {
        circuit,
        constrained,
        report,
    };
    match inputs.workload {
        Workload::BoardWorstcase => {
            let atpg = &inputs.circuits[0].atpg;
            if !spans.on {
                let plan = atpg.run_on(pool)?;
                out.digital.push(campaign(0, true, plan.digital));
                out.digital
                    .push(campaign(0, false, plan.digital_unconstrained));
                out.deviations = plan.analog_deviations.rows().to_vec();
                out.analog = plan.analog;
                out.conversion = plan.conversion.into_iter().map(|e| (0, e)).collect();
                return Ok(out);
            }
            // The stages of `run_on`, one span each.
            atpg.circuit().validate()?;
            let digital = spans.time(Stage::DigitalConstrained, || {
                atpg.digital_constrained_on(pool)
            })?;
            out.digital.push(campaign(0, true, digital));
            let digital = spans.time(Stage::DigitalUnconstrained, || {
                atpg.digital_unconstrained_on(pool)
            })?;
            out.digital.push(campaign(0, false, digital));
            let deviations = spans.time(Stage::AnalogDeviation, || {
                atpg.analog_deviation_report_on(pool)
            })?;
            out.analog = spans.time(Stage::AnalogTests, || {
                atpg.analog_tests_on(pool, &deviations)
            })?;
            out.deviations = deviations.rows().to_vec();
            let conversion = spans.time(Stage::Conversion, || atpg.conversion_tests_on(pool))?;
            out.conversion = conversion.into_iter().map(|e| (0, e)).collect();
        }
        Workload::IscasCampaign => {
            for (i, c) in inputs.circuits.iter().enumerate() {
                let report = spans.time(Stage::DigitalConstrained, || {
                    c.atpg.digital_constrained_on(pool)
                })?;
                out.digital.push(campaign(i, true, report));
                let report = spans.time(Stage::DigitalUnconstrained, || {
                    c.atpg.digital_unconstrained_on(pool)
                })?;
                out.digital.push(campaign(i, false, report));
                let entries = spans.time(Stage::Conversion, || c.atpg.conversion_tests_on(pool))?;
                out.conversion.extend(entries.into_iter().map(|e| (i, e)));
            }
            // Stages this workload does not run keep an empty span.
            spans.time(Stage::AnalogDeviation, || ());
            spans.time(Stage::AnalogTests, || ());
        }
        Workload::IscasNoDrop => {
            for (i, c) in inputs.circuits.iter().enumerate() {
                let report = spans.time(Stage::DigitalConstrained, || {
                    c.constrained_engine(false)?.run_on(pool, &c.faults)
                })?;
                out.digital.push(campaign(i, true, report));
            }
            spans.time(Stage::DigitalUnconstrained, || ());
            spans.time(Stage::AnalogDeviation, || ());
            spans.time(Stage::AnalogTests, || ());
            spans.time(Stage::Conversion, || ());
        }
    }
    Ok(out)
}
