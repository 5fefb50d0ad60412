//! Integration tests of the Table-4 experiment: constrained vs.
//! unconstrained OBDD ATPG on the c432 stand-in, and the generated reports
//! of every Example-3 circuit pinned by digest.

use msatpg::conversion::constraints::thermometer_codes;
use msatpg::conversion::FlashAdc;
use msatpg::core::digital_atpg::{AtpgReport, DigitalAtpg};
use msatpg::core::ConverterBlock;
use msatpg::digital::benchmarks;
use msatpg::digital::fault::FaultList;
use msatpg::digital::fault_sim::FaultSimulator;
use msatpg::MixedCircuit;

#[test]
fn c432_constraints_increase_untestable_faults_and_effort() {
    let digital = benchmarks::c432();
    let faults = FaultList::collapsed(&digital);
    assert!(
        faults.len() > 200,
        "c432 stand-in has a substantial fault list"
    );

    // Case 1: direct access to the digital block.
    let mut free = DigitalAtpg::new(&digital);
    let report_free = free.run(&faults).expect("unconstrained ATPG");

    // Case 2: 15 inputs constrained to thermometer codes, selected with the
    // same pseudo-random procedure as the paper.
    let analog = msatpg::analog::filters::fifth_order_chebyshev();
    let converter = ConverterBlock::Flash(FlashAdc::uniform(15, 4.0).unwrap());
    let mut mixed = MixedCircuit::new("c432-mixed", analog, converter, digital.clone());
    mixed.connect_randomly(1995).unwrap();
    let mut constrained = DigitalAtpg::new(&digital)
        .with_constraints(&mixed.constrained_inputs(), &thermometer_codes(15))
        .unwrap();
    let report_constrained = constrained.run(&faults).expect("constrained ATPG");

    // Shape of Table 4: constraints can only lose coverage, never gain it.
    assert!(report_constrained.untestable_count() >= report_free.untestable_count());
    assert!(report_constrained.detected <= report_free.detected);
    // The unconstrained circuit is (almost) fully testable.
    assert!(
        report_free.coverage() > 0.95,
        "coverage {}",
        report_free.coverage()
    );

    // Every generated vector, in both cases, really detects its target fault.
    let sim = FaultSimulator::new(&digital);
    for report in [&report_free, &report_constrained] {
        for vector in &report.vectors {
            assert!(
                sim.detects(vector.fault, &vector.concretize(false))
                    .unwrap(),
                "{} does not detect {}",
                vector.to_pattern_string(),
                vector.fault.describe(&digital)
            );
        }
    }

    // Constrained vectors respect the thermometer-code constraint.
    let codes = thermometer_codes(15);
    let constrained_lines = mixed.constrained_inputs();
    let pi_order: Vec<_> = digital.primary_inputs().to_vec();
    for vector in &report_constrained.vectors {
        let pattern = vector.concretize(false);
        let constrained_bits: Vec<bool> = constrained_lines
            .iter()
            .map(|line| {
                let pos = pi_order.iter().position(|s| s == line).unwrap();
                pattern[pos]
            })
            .collect();
        assert!(
            codes.allows(&constrained_bits),
            "constrained vector violates the thermometer-code constraint"
        );
    }
}

#[test]
fn untestable_faults_are_really_untestable_by_random_search() {
    // Cross-check the ATPG's "untestable" verdicts on the Figure-3 circuit by
    // exhaustive enumeration of the constrained input space.
    let digital = msatpg::digital::circuits::figure3_circuit();
    let faults = FaultList::all(&digital);
    let l0 = digital.find_signal("l0").unwrap();
    let l2 = digital.find_signal("l2").unwrap();
    let codes = msatpg::conversion::constraints::AllowedCodes::new(
        2,
        vec![vec![true, false], vec![false, true], vec![true, true]],
    );
    let mut atpg = DigitalAtpg::new(&digital)
        .with_constraints(&[l0, l2], &codes)
        .unwrap();
    let report = atpg.run(&faults).unwrap();
    let sim = FaultSimulator::new(&digital);
    // Enumerate every input pattern allowed by Fc and confirm that none
    // detects an "untestable" fault.
    for &fault in &report.untestable {
        for pattern_bits in 0..16u32 {
            let pattern: Vec<bool> = (0..4).map(|b| (pattern_bits >> b) & 1 == 1).collect();
            // PI order: l0, l1, l2, l4.
            if !codes.allows(&[pattern[0], pattern[2]]) {
                continue;
            }
            assert!(
                !sim.detects(fault, &pattern).unwrap(),
                "fault {} claimed untestable but detected by {:?}",
                fault.describe(&digital),
                pattern
            );
        }
    }
}

/// FNV-1a over a report's whole content: every vector (pattern string,
/// target fault and observed output, in emission order), the untestable
/// set and the detected count.
fn report_digest(report: &AtpgReport) -> u64 {
    let mut text = String::new();
    for v in &report.vectors {
        text += &format!(
            "{} {}/{} {}\n",
            v.to_pattern_string(),
            v.fault.signal.index(),
            u8::from(v.fault.stuck_at),
            v.observed_output
        );
    }
    for f in &report.untestable {
        text += &format!("u {}/{}\n", f.signal.index(), u8::from(f.stuck_at));
    }
    text += &format!("detected {}\n", report.detected);
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn table4_reports_are_pinned_byte_for_byte() {
    // The Example-3 circuits at the Table-4 wiring seed, constrained and
    // unconstrained with fault dropping, plus c432 and c880 constrained
    // without dropping.  The digests pin every generated vector, so any
    // change to how test sets are derived or read off the OBDDs shows up
    // here; a deliberate change re-records them from the printed table.
    const EXPECTED: [(&str, bool, bool, u64); 12] = [
        ("c432", true, true, 0x08f9a197af05070e),
        ("c432", false, true, 0x8671c7ab1fc32d2f),
        ("c499", true, true, 0xf6318c23be700c28),
        ("c499", false, true, 0xa94ab348e2c06b71),
        ("c880", true, true, 0x23e3c05848741f6e),
        ("c880", false, true, 0xc996ec5ccdbeaa83),
        ("c1355", true, true, 0xb9aa36d21797e12d),
        ("c1355", false, true, 0x2e4712d3251f53f7),
        ("c1908", true, true, 0xc602bdb97632b711),
        ("c1908", false, true, 0x5e801361da87034a),
        ("c432", true, false, 0xab02409b9f49c1ee),
        ("c880", true, false, 0xe040ab34ba6d99c4),
    ];
    let mut actual = Vec::new();
    for &(name, constrained, dropping, _) in &EXPECTED {
        let digital = benchmarks::by_name(name).unwrap();
        let analog = msatpg::analog::filters::fifth_order_chebyshev();
        let converter = ConverterBlock::Flash(FlashAdc::uniform(15, 4.0).unwrap());
        let mut mixed = MixedCircuit::new(name, analog, converter, digital.clone());
        mixed.connect_randomly(1995).unwrap();
        let mut atpg = DigitalAtpg::new(&digital).with_fault_dropping(dropping);
        if constrained {
            atpg = atpg
                .with_constraints(&mixed.constrained_inputs(), &mixed.allowed_codes())
                .unwrap();
        }
        let report = atpg.run(&FaultList::collapsed(&digital)).unwrap();
        actual.push((name, constrained, dropping, report_digest(&report)));
    }
    let table: String = actual
        .iter()
        .map(|(n, c, d, h)| format!("        (\"{n}\", {c}, {d}, 0x{h:016x}),\n"))
        .collect();
    assert_eq!(actual, EXPECTED, "report digests changed:\n{table}");
}
