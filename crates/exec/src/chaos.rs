//! Deterministic fault injection for robustness testing.
//!
//! A [`ChaosInjector`] decides, as a **pure function of `(seed, site)`**,
//! whether a failure should be injected at a counted decision point.  Sites
//! are stable identifiers chosen by the instrumented code — the workspace
//! keys them by fault-target index in replay order — so for a given seed
//! the exact same set of faults is hit on every run, width and resume.
//! That is what lets the chaos proptests assert byte-identical ATPG
//! reports across runs and `MSATPG_WORD_WIDTH` settings *while* failures
//! are being injected.
//!
//! Two families of failure classes are modeled.  The **process** classes
//! mirror the real failure modes of the resource-governed ATPG and are
//! drawn via [`ChaosInjector::fires`]:
//!
//! * [`ChaosEvent::Panic`] — the instrumented code should `panic!`,
//!   exercising panic isolation ([`crate::PanicPolicy::Isolate`]);
//! * [`ChaosEvent::Budget`] — the instrumented code should behave as if a
//!   BDD budget had been exhausted, exercising graceful degradation;
//! * [`ChaosEvent::Cancel`] — the instrumented code should fire its
//!   [`crate::CancelToken`], exercising cooperative cancellation.
//!
//! The **store** classes simulate the durability failures a crash-consistent
//! persistence layer must survive, and are drawn via the independent
//! [`ChaosInjector::fires_store`] so arming them never perturbs the
//! process-class decisions at the same sites:
//!
//! * [`ChaosEvent::Crash`] — the process dies mid-write: the temporary file
//!   is written (possibly partially) but never renamed into place;
//! * [`ChaosEvent::TornWrite`] — a truncated prefix reaches the final path;
//! * [`ChaosEvent::BitFlip`] — one checksummed payload bit is inverted.
//!
//! The mixing function is the same SplitMix64 finalizer used by
//! `msatpg_digital::prng`, re-stated here because the dependency points the
//! other way (the digital crate builds on this one); tests seed injectors
//! from that PRNG.

/// Which failure a chaos site should simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChaosEvent {
    /// Panic at the site (`std::panic::panic_any` / `panic!`).
    Panic,
    /// Behave as if a resource budget was exhausted at the site.
    Budget,
    /// Fire the governing cancellation token at the site.
    Cancel,
    /// Die mid-write: leave the temporary file, never rename it into place.
    Crash,
    /// Let a truncated prefix of the bytes reach the final path.
    TornWrite,
    /// Invert one checksummed payload bit before the (otherwise clean)
    /// write.
    BitFlip,
}

/// SplitMix64 finalizer: a bijective avalanche mix (identical constants to
/// `msatpg_digital::prng::SplitMix64`).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, seeded failure injector (see the module docs).
///
/// Each failure class has an independent `1 in N` firing rate (`0`
/// disables the class).  When several classes would fire at one site the
/// precedence is `Panic > Budget > Cancel`, so a site yields at most one
/// event and the choice is still a pure function of `(seed, site)`.
///
/// # Example
///
/// ```
/// use msatpg_exec::{ChaosEvent, ChaosInjector};
///
/// let chaos = ChaosInjector::new(42).with_panic_rate(4);
/// // Pure: the same (seed, site) always gives the same answer.
/// for site in 0..100 {
///     assert_eq!(chaos.fires(site), chaos.fires(site));
/// }
/// // Rate 1 fires everywhere; rate 0 never fires.
/// let always = ChaosInjector::new(7).with_budget_rate(1);
/// assert_eq!(always.fires(3), Some(ChaosEvent::Budget));
/// let never = ChaosInjector::new(7);
/// assert_eq!(never.fires(3), None);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosInjector {
    seed: u64,
    panic_in: u64,
    budget_in: u64,
    cancel_in: u64,
    crash_in: u64,
    torn_write_in: u64,
    bit_flip_in: u64,
}

impl ChaosInjector {
    /// An injector with every failure class disabled; arm classes with the
    /// `with_*_rate` builders.
    pub fn new(seed: u64) -> Self {
        ChaosInjector {
            seed,
            panic_in: 0,
            budget_in: 0,
            cancel_in: 0,
            crash_in: 0,
            torn_write_in: 0,
            bit_flip_in: 0,
        }
    }

    /// Arms panics at a `1 in rate` firing probability per site (`0`
    /// disables, `1` fires at every site).
    pub fn with_panic_rate(mut self, rate: u64) -> Self {
        self.panic_in = rate;
        self
    }

    /// Arms simulated budget exhaustion at a `1 in rate` probability.
    pub fn with_budget_rate(mut self, rate: u64) -> Self {
        self.budget_in = rate;
        self
    }

    /// Arms cancellation at a `1 in rate` probability.
    pub fn with_cancel_rate(mut self, rate: u64) -> Self {
        self.cancel_in = rate;
        self
    }

    /// Arms mid-write crashes ([`ChaosEvent::Crash`]) at a `1 in rate`
    /// probability per store site.
    pub fn with_crash_rate(mut self, rate: u64) -> Self {
        self.crash_in = rate;
        self
    }

    /// Arms torn writes ([`ChaosEvent::TornWrite`]) at a `1 in rate`
    /// probability per store site.
    pub fn with_torn_write_rate(mut self, rate: u64) -> Self {
        self.torn_write_in = rate;
        self
    }

    /// Arms single-bit payload corruption ([`ChaosEvent::BitFlip`]) at a
    /// `1 in rate` probability per store site.
    pub fn with_bit_flip_rate(mut self, rate: u64) -> Self {
        self.bit_flip_in = rate;
        self
    }

    /// The seed this injector was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    #[inline]
    fn class_fires(&self, site: u64, class: u64, rate: u64) -> bool {
        // Each class draws from an independent stream: mixing in a distinct
        // class constant decorrelates the three decisions at one site.
        rate != 0 && mix(self.seed ^ mix(site.wrapping_add(class << 32))) % rate == 0
    }

    /// The process-class event injected at `site`, if any — a pure
    /// function of `(seed, site)` and the armed rates.  Store classes are
    /// drawn separately by [`ChaosInjector::fires_store`].
    pub fn fires(&self, site: u64) -> Option<ChaosEvent> {
        if self.class_fires(site, 1, self.panic_in) {
            Some(ChaosEvent::Panic)
        } else if self.class_fires(site, 2, self.budget_in) {
            Some(ChaosEvent::Budget)
        } else if self.class_fires(site, 3, self.cancel_in) {
            Some(ChaosEvent::Cancel)
        } else {
            None
        }
    }

    /// The store-class event injected at store site `site`, if any.
    ///
    /// Pure in `(seed, site)` like [`ChaosInjector::fires`], but drawn from
    /// independent streams (classes 4–6), so the same injector can disturb
    /// both fault decisions and checkpoint writes without the two
    /// interfering.  Precedence: `Crash > TornWrite > BitFlip`.
    pub fn fires_store(&self, site: u64) -> Option<ChaosEvent> {
        if self.class_fires(site, 4, self.crash_in) {
            Some(ChaosEvent::Crash)
        } else if self.class_fires(site, 5, self.torn_write_in) {
            Some(ChaosEvent::TornWrite)
        } else if self.class_fires(site, 6, self.bit_flip_in) {
            Some(ChaosEvent::BitFlip)
        } else {
            None
        }
    }

    /// A deterministic draw in `0..bound` for store site `site` (class 7
    /// stream) — used to pick which byte/bit a [`ChaosEvent::BitFlip`] or
    /// [`ChaosEvent::TornWrite`] hits.  Returns 0 when `bound == 0`.
    pub fn store_draw(&self, site: u64, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        mix(self.seed ^ mix(site.wrapping_add(7 << 32))) % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn firing_is_pure_and_seed_dependent() {
        let a = ChaosInjector::new(1)
            .with_panic_rate(3)
            .with_budget_rate(5)
            .with_cancel_rate(7);
        let b = a; // Copy
        let hits_a: Vec<_> = (0..512).map(|s| a.fires(s)).collect();
        let hits_b: Vec<_> = (0..512).map(|s| b.fires(s)).collect();
        assert_eq!(hits_a, hits_b, "pure in (seed, site)");
        let other = ChaosInjector::new(2)
            .with_panic_rate(3)
            .with_budget_rate(5)
            .with_cancel_rate(7);
        let hits_other: Vec<_> = (0..512).map(|s| other.fires(s)).collect();
        assert_ne!(hits_a, hits_other, "different seeds differ");
    }

    #[test]
    fn disabled_classes_never_fire() {
        let quiet = ChaosInjector::new(99);
        assert!((0..4096).all(|s| quiet.fires(s).is_none()));
    }

    #[test]
    fn rate_one_fires_everywhere_with_panic_precedence() {
        let loud = ChaosInjector::new(5)
            .with_panic_rate(1)
            .with_budget_rate(1)
            .with_cancel_rate(1);
        assert!((0..64).all(|s| loud.fires(s) == Some(ChaosEvent::Panic)));
        let budget = ChaosInjector::new(5)
            .with_budget_rate(1)
            .with_cancel_rate(1);
        assert!((0..64).all(|s| budget.fires(s) == Some(ChaosEvent::Budget)));
        let cancel = ChaosInjector::new(5).with_cancel_rate(1);
        assert!((0..64).all(|s| cancel.fires(s) == Some(ChaosEvent::Cancel)));
    }

    #[test]
    fn rates_are_roughly_respected() {
        let chaos = ChaosInjector::new(1234).with_panic_rate(8);
        let hits = (0..8000).filter(|&s| chaos.fires(s).is_some()).count();
        // 1-in-8 over 8000 sites: expect ~1000, allow a generous band.
        assert!((600..1400).contains(&hits), "got {hits} hits");
    }

    #[test]
    fn store_classes_are_independent_of_process_classes() {
        let armed = ChaosInjector::new(31)
            .with_panic_rate(4)
            .with_budget_rate(4)
            .with_cancel_rate(4);
        let both = armed
            .with_crash_rate(4)
            .with_torn_write_rate(4)
            .with_bit_flip_rate(4);
        // Arming store classes never changes the process-class decisions.
        for site in 0..512 {
            assert_eq!(armed.fires(site), both.fires(site));
        }
        // And an injector with only process classes never fires a store
        // event.
        assert!((0..512).all(|s| armed.fires_store(s).is_none()));
        // Precedence and rate-1 behavior mirror the process family.
        let crash = ChaosInjector::new(5)
            .with_crash_rate(1)
            .with_torn_write_rate(1)
            .with_bit_flip_rate(1);
        assert!((0..64).all(|s| crash.fires_store(s) == Some(ChaosEvent::Crash)));
        let torn = ChaosInjector::new(5)
            .with_torn_write_rate(1)
            .with_bit_flip_rate(1);
        assert!((0..64).all(|s| torn.fires_store(s) == Some(ChaosEvent::TornWrite)));
        let flip = ChaosInjector::new(5).with_bit_flip_rate(1);
        assert!((0..64).all(|s| flip.fires_store(s) == Some(ChaosEvent::BitFlip)));
    }

    #[test]
    fn store_draw_is_pure_and_bounded() {
        let chaos = ChaosInjector::new(123);
        for site in 0..256 {
            let d = chaos.store_draw(site, 17);
            assert!(d < 17);
            assert_eq!(d, chaos.store_draw(site, 17));
        }
        assert_eq!(chaos.store_draw(9, 0), 0);
        // Different sites spread across the range.
        let distinct: std::collections::BTreeSet<u64> =
            (0..256).map(|s| chaos.store_draw(s, 1 << 20)).collect();
        assert!(distinct.len() > 200);
    }

    #[test]
    fn classes_are_decorrelated() {
        // With equal rates, sites hit by the panic stream must not be the
        // same set as those hit by the budget stream.
        let p = ChaosInjector::new(77).with_panic_rate(4);
        let b = ChaosInjector::new(77).with_budget_rate(4);
        let panic_sites: Vec<u64> = (0..256).filter(|&s| p.fires(s).is_some()).collect();
        let budget_sites: Vec<u64> = (0..256).filter(|&s| b.fires(s).is_some()).collect();
        assert_ne!(panic_sites, budget_sites);
    }
}
