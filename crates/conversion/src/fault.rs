//! Conversion-block fault coverage: which ladder-resistor deviation can be
//! detected at which comparator (Tables 6 and 7 of the paper).
//!
//! A ladder resistor is tested by verifying the reference voltage of a
//! comparator: the deviation is detectable at tap `k` when it moves `Vtk` by
//! more than the tolerance, measured relative to the tap's distance from the
//! *nearest rail* (ground for the lower taps, `Vref` for the upper taps) —
//! the accuracy criterion that reproduces the paper's ∧-shaped coverage
//! profile, where the mid-ladder resistors are the hardest to test.

use crate::ladder::ResistorLadder;
use crate::ConversionError;

/// Detectability of one ladder resistor at one comparator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LadderDeviationCell {
    /// Resistor index (1-based, bottom first).
    pub resistor: usize,
    /// Comparator / tap index (1-based).
    pub comparator: usize,
    /// Smallest relative deviation (fraction) detectable at this comparator
    /// in both directions: the larger of the growth and the shrink
    /// threshold.  `None` when either direction is undetectable within its
    /// cap — growth up to the largest `0.01·1.5ⁿ ≤ max_deviation` (49.87
    /// for 50), shrink up to 99.9 % (see [`ladder_coverage`]).
    pub detectable_deviation: Option<f64>,
}

/// The complete resistor × comparator detectability matrix of a ladder.
#[derive(Clone, Debug, Default)]
pub struct LadderCoverage {
    cells: Vec<LadderDeviationCell>,
    resistors: usize,
    comparators: usize,
}

impl LadderCoverage {
    /// All matrix cells.
    pub fn cells(&self) -> &[LadderDeviationCell] {
        &self.cells
    }

    /// Number of ladder resistors.
    pub fn resistor_count(&self) -> usize {
        self.resistors
    }

    /// Number of comparators (taps).
    pub fn comparator_count(&self) -> usize {
        self.comparators
    }

    /// Detectable deviation of `resistor` at `comparator` (both 1-based).
    pub fn deviation(&self, resistor: usize, comparator: usize) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.resistor == resistor && c.comparator == comparator)
            .and_then(|c| c.detectable_deviation)
    }

    /// For each resistor, the best comparator restricted to `usable`
    /// comparators (1-based indices) and the deviation achieved there.
    /// `None` when the resistor cannot be tested through any usable
    /// comparator — the dashed cells of Table 7.
    ///
    /// Numerically tied comparators (within 1 %) are broken in favour of the
    /// comparator closest to the resistor, which is also how the paper
    /// associates each reference voltage with "its" ladder resistor.
    pub fn best_assignment(&self, usable: &[usize]) -> Vec<(usize, Option<(usize, f64)>)> {
        (1..=self.resistors)
            .map(|r| {
                let candidates: Vec<(usize, f64)> = self
                    .cells
                    .iter()
                    .filter(|c| {
                        c.resistor == r
                            && usable.contains(&c.comparator)
                            && c.detectable_deviation.is_some()
                    })
                    .map(|c| {
                        (
                            c.comparator,
                            c.detectable_deviation.unwrap_or(f64::INFINITY),
                        )
                    })
                    .collect();
                let best = candidates
                    .iter()
                    .map(|&(_, d)| d)
                    .fold(f64::INFINITY, f64::min);
                let chosen = candidates
                    .into_iter()
                    .filter(|&(_, d)| d <= best * 1.01)
                    .min_by_key(|&(k, _)| (k as isize - r as isize).unsigned_abs());
                (r, chosen)
            })
            .collect()
    }

    /// For each comparator, the resistors for which it is the best detector,
    /// together with the deviation — the layout of Table 6 of the paper.
    pub fn table_by_comparator(&self, usable: &[usize]) -> Vec<(usize, Vec<usize>, Option<f64>)> {
        let assignment = self.best_assignment(usable);
        (1..=self.comparators)
            .map(|k| {
                let resistors: Vec<usize> = assignment
                    .iter()
                    .filter(|(_, best)| matches!(best, Some((bk, _)) if *bk == k))
                    .map(|(r, _)| *r)
                    .collect();
                let deviation = assignment
                    .iter()
                    .filter(|(_, best)| matches!(best, Some((bk, _)) if *bk == k))
                    .filter_map(|(_, best)| best.map(|(_, d)| d))
                    .fold(None::<f64>, |acc, d| Some(acc.map_or(d, |a| a.max(d))));
                (k, resistors, deviation)
            })
            .collect()
    }
}

/// Computes the ladder coverage matrix.
///
/// `tolerance` is the relative accuracy required of each reference voltage
/// (fraction, the paper uses 5 %); deviations are searched up to
/// `max_deviation` (fraction, e.g. `20.0` = 2000 %).
///
/// Each cell is solved in closed form.  Deviating resistor `r` by `x`
/// moves tap `k` by `|ΔV_k| = V·c·|x| / (S·(S + R_r·x))`, with `S` the
/// total resistance, `S_k` the resistance below tap `k` and
/// `c = R_r·|[r ≤ k]·S − S_k|`; the shift grows with `|x|` in both
/// directions, so each signed threshold is the root of a linear equation.
/// The caps are those of a geometric search probing `0.01·1.5ⁿ`: a growth
/// is detectable only up to the largest such probe within `max_deviation`
/// (49.87 for 50), a shrink only up to 99.9 % (or that probe, when
/// smaller).  The reported value is the larger of the two signed
/// thresholds, `None` if either direction is undetectable within its cap.
///
/// # Errors
///
/// Propagates ladder errors (cannot occur for a well-formed ladder).
pub fn ladder_coverage(
    ladder: &ResistorLadder,
    tolerance: f64,
    max_deviation: f64,
) -> Result<LadderCoverage, ConversionError> {
    coverage_with(ladder, tolerance, max_deviation, |r, k, x| {
        deviated_tap(ladder, r, k, x)
    })
}

/// Tap `k` (0-based) of `ladder` with resistor `r` (0-based) deviated by
/// the relative amount `x`: the float operations of
/// `ladder.with_deviation(r + 1, x)?.tap_voltage(k + 1)`, in the same order,
/// without copying the ladder or computing the other taps.
fn deviated_tap(
    ladder: &ResistorLadder,
    r: usize,
    k: usize,
    x: f64,
) -> Result<f64, ConversionError> {
    let resistors = ladder.resistors();
    let deviated = resistors[r] * (1.0 + x);
    if deviated <= 0.0 || !deviated.is_finite() {
        return Err(ConversionError::InvalidLadder {
            reason: "resistor values must be positive and finite".to_owned(),
        });
    }
    let value = |i: usize| if i == r { deviated } else { resistors[i] };
    let total: f64 = (0..resistors.len()).map(value).sum();
    let mut acc = 0.0;
    for i in 0..=k {
        acc += value(i);
    }
    Ok(ladder.v_ref() * acc / total)
}

/// [`ladder_coverage`] with the deviated tap voltage `tap(r, k, x)` (both
/// indices 0-based) supplied by the caller.
fn coverage_with(
    ladder: &ResistorLadder,
    tolerance: f64,
    max_deviation: f64,
    tap: impl Fn(usize, usize, f64) -> Result<f64, ConversionError>,
) -> Result<LadderCoverage, ConversionError> {
    let nominal_taps = ladder.tap_voltages();
    let v_ref = ladder.v_ref();
    let resistors = ladder.resistors();
    let total: f64 = resistors.iter().sum();
    let grow_cap = probe_cap(max_deviation, f64::INFINITY);
    let shrink_cap = probe_cap(max_deviation, 0.999);
    let mut cells = Vec::new();
    for (r, &r_value) in resistors.iter().enumerate() {
        let mut below = 0.0;
        for (k, &nominal) in nominal_taps.iter().enumerate() {
            below += resistors[k];
            // Accuracy requirement relative to the nearest rail.
            let scale = nominal.min(v_ref - nominal).max(1e-12);
            let t = tolerance * scale;
            let gain = v_ref.abs() * r_value * (if r <= k { total } else { 0.0 } - below).abs();
            // The detecting side is judged by the ladder model itself.
            let shift =
                |x: f64| -> Result<f64, ConversionError> { Ok((tap(r, k, x)? - nominal).abs()) };
            // The smallest magnitude `y ≤ cap` with `shift(sign·y) > t`.
            let threshold = |sign: f64, cap: Option<f64>| -> Result<Option<f64>, ConversionError> {
                let Some(cap) = cap else { return Ok(None) };
                if shift(sign * cap)? <= t {
                    return Ok(None);
                }
                // gain·y = t·S·(S + sign·R_r·y), linear in y.
                let root = t * total * total / (gain - sign * t * total * r_value);
                let mut y = root.clamp(0.0, cap);
                let mut step = y.next_up() - y;
                for _ in 0..NUDGE_STEPS {
                    if shift(sign * y)? > t {
                        break;
                    }
                    y += step;
                    step *= 2.0;
                }
                Ok(Some(y.min(cap)))
            };
            let detectable = match threshold(1.0, grow_cap)? {
                Some(grow) => threshold(-1.0, shrink_cap)?.map(|shrink| grow.max(shrink)),
                None => None,
            };
            cells.push(LadderDeviationCell {
                resistor: r + 1,
                comparator: k + 1,
                detectable_deviation: detectable,
            });
        }
    }
    Ok(LadderCoverage {
        cells,
        resistors: ladder.resistor_count(),
        comparators: ladder.tap_count(),
    })
}

/// The largest probe `0.01·1.5ⁿ ≤ max_deviation` of a geometric bracket
/// search, with probes at or above `limit` clipped to `limit`; `None` when
/// not even the first probe fits.
fn probe_cap(max_deviation: f64, limit: f64) -> Option<f64> {
    let mut cap = None;
    let mut probe = 0.01f64;
    while probe <= max_deviation {
        if probe >= limit {
            return Some(limit);
        }
        cap = Some(probe);
        probe *= 1.5;
    }
    cap
}

/// Upper bound on the steps that move a closed-form root onto the detecting
/// side of the ladder model.  The steps start at one ulp and double: where
/// `|ΔV_k|` is a difference of nearly equal tap voltages, the model's own
/// rounding can sit a thousand ulps of `x` past the exact root.
const NUDGE_STEPS: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_ladder() -> ResistorLadder {
        ResistorLadder::uniform(16, 4.0).unwrap()
    }

    /// `|ΔV_k|` of a deviated ladder, through the ladder model itself.
    fn ladder_shift(ladder: &ResistorLadder, resistor: usize, comparator: usize, x: f64) -> f64 {
        let nominal = ladder.tap_voltage(comparator).unwrap();
        let faulty = ladder.with_deviation(resistor, x).unwrap();
        (faulty.tap_voltage(comparator).unwrap() - nominal).abs()
    }

    /// The bracket-and-bisect search the closed form replaced: grow the
    /// probe geometrically from 1 % until the tap moves by more than the
    /// threshold, then bisect 60 times.  Returns the (growth, shrink)
    /// thresholds, `None` if either direction is never detected.
    fn bisection_oracle(
        ladder: &ResistorLadder,
        resistor: usize,
        comparator: usize,
        threshold: f64,
        max_deviation: f64,
    ) -> Option<(f64, f64)> {
        let shift = |x: f64| ladder_shift(ladder, resistor, comparator, x);
        let mut result = Vec::new();
        for sign in [1.0, -1.0] {
            let mut lo = 0.0f64;
            let mut hi = 0.01f64;
            let mut found = false;
            while hi <= max_deviation {
                let mut probe = hi;
                if sign < 0.0 && probe >= 0.999 {
                    probe = 0.999;
                }
                if shift(sign * probe) > threshold {
                    hi = probe;
                    found = true;
                    break;
                }
                if sign < 0.0 && probe >= 0.999 {
                    break;
                }
                lo = hi;
                hi *= 1.5;
            }
            if !found {
                return None;
            }
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                if shift(sign * mid) > threshold {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            result.push(hi);
        }
        Some((result[0], result[1]))
    }

    #[test]
    fn in_place_taps_match_the_deviated_ladder_bit_for_bit() {
        let skewed = (0..16)
            .map(|i| 500.0 + 370.0 * ((i * 7) % 5) as f64)
            .collect();
        for ladder in [paper_ladder(), ResistorLadder::new(skewed, 3.3).unwrap()] {
            let oracle = coverage_with(&ladder, 0.05, 50.0, |r, k, x| {
                ladder.with_deviation(r + 1, x)?.tap_voltage(k + 1)
            })
            .unwrap();
            let fast = ladder_coverage(&ladder, 0.05, 50.0).unwrap();
            assert_eq!(fast.cells().len(), oracle.cells().len());
            for (a, b) in fast.cells().iter().zip(oracle.cells()) {
                assert_eq!((a.resistor, a.comparator), (b.resistor, b.comparator));
                assert_eq!(
                    a.detectable_deviation.map(f64::to_bits),
                    b.detectable_deviation.map(f64::to_bits),
                    "R{} at comparator {}",
                    a.resistor,
                    a.comparator
                );
            }
            // Every tap at every deviation the search can probe, and the
            // error of a non-positive deviated value.
            for r in 0..ladder.resistor_count() {
                for k in 0..ladder.tap_count() {
                    for x in [-0.999, -0.5, -1e-9, 0.0, 0.013, 0.7, 3.0, 49.87] {
                        let expected = ladder.with_deviation(r + 1, x).unwrap();
                        let expected = expected.tap_voltage(k + 1).unwrap();
                        let got = deviated_tap(&ladder, r, k, x).unwrap();
                        assert_eq!(
                            got.to_bits(),
                            expected.to_bits(),
                            "R{} tap {} x {x}",
                            r + 1,
                            k + 1
                        );
                    }
                    for x in [-1.0, -2.0, f64::INFINITY, f64::NAN] {
                        assert_eq!(
                            deviated_tap(&ladder, r, k, x).unwrap_err(),
                            ladder.with_deviation(r + 1, x).unwrap_err()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn closed_form_matches_the_bisection_search() {
        let mut ladders = Vec::new();
        for n in [4usize, 8, 16] {
            ladders.push(ResistorLadder::uniform(n, 4.0).unwrap());
            let skewed = (0..n)
                .map(|i| 500.0 + 370.0 * ((i * 7) % 5) as f64)
                .collect();
            ladders.push(ResistorLadder::new(skewed, 3.3).unwrap());
        }
        let (mut cells, mut undetectable) = (0, 0);
        for ladder in &ladders {
            let taps = ladder.tap_voltages();
            for tolerance in [0.01, 0.05, 0.2] {
                for max_deviation in [50.0, 20.0, 0.5] {
                    let coverage = ladder_coverage(ladder, tolerance, max_deviation).unwrap();
                    for cell in coverage.cells() {
                        let (r, k) = (cell.resistor, cell.comparator);
                        let nominal = taps[k - 1];
                        let t = tolerance * nominal.min(ladder.v_ref() - nominal);
                        let expected = bisection_oracle(ladder, r, k, t, max_deviation);
                        let context = format!("R{r}/Vt{k} tol {tolerance} cap {max_deviation}");
                        cells += 1;
                        match (cell.detectable_deviation, expected) {
                            (Some(x), Some((grow, shrink))) => {
                                let b = grow.max(shrink);
                                assert!((x - b).abs() <= 1e-9 * b, "{context}: {x} vs {b}");
                                // Detected at x in the deciding direction,
                                // and not just below it.
                                let sign = if grow >= shrink { 1.0 } else { -1.0 };
                                let shift = |d: f64| ladder_shift(ladder, r, k, sign * d);
                                assert!(shift(x) > t, "{context}: {x} does not detect");
                                assert!(t >= shift(x * (1.0 - 1e-9)), "{context}: {x} not minimal");
                            }
                            (None, None) => undetectable += 1,
                            (got, want) => panic!("{context}: {got:?} vs {want:?}"),
                        }
                    }
                }
            }
        }
        assert!(
            undetectable > 0 && undetectable < cells,
            "{undetectable} of {cells}"
        );
    }

    #[test]
    fn zero_tolerance_terminates() {
        let coverage = ladder_coverage(&paper_ladder(), 0.0, 50.0).unwrap();
        assert_eq!(coverage.cells().len(), 16 * 15);
        assert!(coverage.cells().iter().all(|c| c
            .detectable_deviation
            .is_some_and(|d| (0.0..1e-9).contains(&d))));
    }

    #[test]
    fn coverage_profile_peaks_in_the_middle() {
        let coverage = ladder_coverage(&paper_ladder(), 0.05, 50.0).unwrap();
        let all = (1..=15usize).collect::<Vec<_>>();
        let assignment = coverage.best_assignment(&all);
        // Every resistor is testable through some comparator.
        assert!(assignment.iter().all(|(_, best)| best.is_some()));
        let deviations: Vec<f64> = assignment.iter().map(|(_, best)| best.unwrap().1).collect();
        // ∧-shaped: the end resistors are easiest, the middle hardest —
        // the shape of Table 6 in the paper.
        let first = deviations[0];
        let mid = deviations[7];
        let last = deviations[15];
        assert!(mid > first * 3.0, "middle {mid} vs first {first}");
        assert!(mid > last * 3.0, "middle {mid} vs last {last}");
        assert!(first < 0.2, "first resistor detectable below 20% ({first})");
        assert!(last < 0.2, "last resistor detectable below 20% ({last})");
    }

    #[test]
    fn each_resistor_prefers_a_nearby_comparator() {
        let coverage = ladder_coverage(&paper_ladder(), 0.05, 50.0).unwrap();
        let all = (1..=15usize).collect::<Vec<_>>();
        for (r, best) in coverage.best_assignment(&all) {
            let (k, _) = best.unwrap();
            // The best comparator is adjacent to the resistor.
            assert!(
                (k as isize - r as isize).abs() <= 1,
                "resistor {r} best tested at comparator {k}"
            );
        }
    }

    #[test]
    fn removing_comparators_degrades_or_removes_coverage() {
        let coverage = ladder_coverage(&paper_ladder(), 0.05, 50.0).unwrap();
        let all = (1..=15usize).collect::<Vec<_>>();
        // Only the upper half of the comparators are usable.
        let upper: Vec<usize> = (8..=15).collect();
        let full = coverage.best_assignment(&all);
        let restricted = coverage.best_assignment(&upper);
        for ((r, best_full), (_, best_restricted)) in full.iter().zip(&restricted) {
            match (best_full, best_restricted) {
                (Some((_, d_full)), Some((_, d_restricted))) => {
                    assert!(
                        d_restricted >= d_full,
                        "resistor {r}: restricting comparators cannot improve coverage"
                    );
                }
                (Some(_), None) => {} // lost coverage entirely — allowed
                (None, Some(_)) => panic!("coverage appeared from nowhere"),
                (None, None) => {}
            }
        }
    }

    #[test]
    fn table_layout_groups_resistors_by_comparator() {
        let coverage = ladder_coverage(&paper_ladder(), 0.05, 50.0).unwrap();
        let all = (1..=15usize).collect::<Vec<_>>();
        let table = coverage.table_by_comparator(&all);
        assert_eq!(table.len(), 15);
        let assigned: usize = table.iter().map(|(_, rs, _)| rs.len()).sum();
        assert_eq!(assigned, 16, "all 16 resistors are assigned to some tap");
        // A mid-ladder tap covers two resistors (the paper's Vt8 ↔ R8,R9).
        assert!(table.iter().any(|(_, rs, _)| rs.len() == 2));
    }

    #[test]
    fn matrix_lookup_is_consistent() {
        let ladder = ResistorLadder::uniform(4, 4.0).unwrap();
        let coverage = ladder_coverage(&ladder, 0.05, 50.0).unwrap();
        assert_eq!(coverage.resistor_count(), 4);
        assert_eq!(coverage.comparator_count(), 3);
        assert_eq!(coverage.cells().len(), 12);
        // Deviation of resistor 1 at comparator 1 exists and is small.
        let d = coverage.deviation(1, 1).unwrap();
        assert!(d > 0.0 && d < 0.5);
    }
}
