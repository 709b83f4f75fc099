//! Deterministic fault injection for the invariant sanitizer.
//!
//! The sanitizer (`crate::invariants`) claims it can detect violations of
//! the paper's correctness contract (Section 2.2.4). That claim is only
//! falsifiable if the simulator can *produce* such violations on demand —
//! the fault-injection discipline of resilience testing: corrupt the
//! mechanism state below the sanitizer's hooks and prove the checkers
//! fire. Each [`FaultClass`] models one way real writeback hardware could
//! go wrong; a [`FaultPlan`] picks the class and a seed that
//! deterministically selects the firing point, so every injected run is
//! exactly reproducible.

/// One class of injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// A writeback leaving the LLC for the memory controller is silently
    /// dropped (the dirty data never reaches DRAM).
    DropWriteback,
    /// A just-set DBI dirty bit is cleared, as if the bit-cell lost its
    /// value — the block's data is dirty in the cache but the DBI has
    /// forgotten it.
    FlipDbiBit,
    /// A DBI entry eviction skips its mandated writeback drain (the
    /// Section 2.2.4 contract violated directly).
    SkipDrain,
    /// One set's Set State Vector bit stops refreshing and goes stale
    /// (VWQ-specific; a performance fault, not a correctness fault).
    StaleSsv,
}

impl FaultClass {
    /// Every injectable class, in documentation order.
    pub const ALL: [FaultClass; 4] = [
        FaultClass::DropWriteback,
        FaultClass::FlipDbiBit,
        FaultClass::SkipDrain,
        FaultClass::StaleSsv,
    ];

    /// The command-line spelling of this class.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::DropWriteback => "drop-writeback",
            FaultClass::FlipDbiBit => "flip-dbi-bit",
            FaultClass::SkipDrain => "skip-drain",
            FaultClass::StaleSsv => "stale-ssv",
        }
    }

    /// Parses a command-line spelling.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid spellings.
    pub fn parse(s: &str) -> Result<FaultClass, String> {
        FaultClass::ALL
            .iter()
            .copied()
            .find(|c| c.label() == s)
            .ok_or_else(|| {
                let valid: Vec<&str> = FaultClass::ALL.iter().map(|c| c.label()).collect();
                format!("unknown fault class '{s}' (valid: {})", valid.join(", "))
            })
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A deterministic, seedable fault: which class to inject and a seed
/// selecting the opportunity it fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// The class of fault to inject.
    pub class: FaultClass,
    /// Seed selecting the firing opportunity (same seed, same firing
    /// point — injected runs are exactly reproducible).
    pub seed: u64,
}

impl FaultPlan {
    /// A plan injecting `class` at the opportunity selected by `seed`.
    #[must_use]
    pub fn new(class: FaultClass, seed: u64) -> FaultPlan {
        FaultPlan { class, seed }
    }
}

/// Record of a fault that actually fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// The injected class.
    pub class: FaultClass,
    /// The block (or, for [`FaultClass::StaleSsv`], the set) the fault hit.
    pub target: u64,
    /// Which opportunity (1-based) the fault fired on.
    pub opportunity: u64,
}

/// splitmix64 — a tiny, well-mixed seed expander.
///
/// Shared by every deterministic fault layer in the workspace: the
/// in-simulation [`FaultInjector`], the runner's jittered backoff, and
/// the harness's on-disk I/O failpoints all derive their firing points
/// from the same mixer, so a seed means the same thing everywhere.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Injects the planned fault at a seed-selected opportunity.
///
/// The LLC calls one hook per opportunity (`drop_writeback` on every DRAM
/// write, `flip_dbi_bit` on every DBI mark, ...). The injector counts the
/// opportunities matching its plan's class and fires exactly once, on the
/// `N`-th, where `N` is derived from the plan's seed. [`FaultClass::StaleSsv`]
/// is persistent after firing: the chosen set's SSV bit stops refreshing for
/// the rest of the run, which is what "stale" means.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Opportunity number the fault fires on (1-based).
    fire_at: u64,
    seen: u64,
    fired: Option<FaultRecord>,
    /// The set whose SSV refreshes are suppressed (StaleSsv only).
    stale_set: Option<u64>,
}

impl FaultInjector {
    /// Builds the injector for `plan`. The firing opportunity is drawn
    /// from `[16, 64)` so the structures under test are warm but the fault
    /// still lands early in the run.
    #[must_use]
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            fire_at: 16 + splitmix64(plan.seed) % 48,
            seen: 0,
            fired: None,
            stale_set: None,
        }
    }

    /// The plan this injector executes.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// The fault that fired, if it has.
    #[must_use]
    pub fn record(&self) -> Option<FaultRecord> {
        self.fired
    }

    /// Counts one opportunity for `class` against `target`; true exactly
    /// once, when the seed-selected opportunity is reached.
    fn fire(&mut self, class: FaultClass, target: u64) -> bool {
        if self.plan.class != class || self.fired.is_some() {
            return false;
        }
        self.seen += 1;
        if self.seen < self.fire_at {
            return false;
        }
        self.fired = Some(FaultRecord {
            class,
            target,
            opportunity: self.seen,
        });
        true
    }

    /// Hook: a writeback of `block` is about to reach the memory
    /// controller. True = drop it.
    pub fn drop_writeback(&mut self, block: u64) -> bool {
        self.fire(FaultClass::DropWriteback, block)
    }

    /// Hook: the DBI just set the dirty bit of `block`. True = clear it
    /// again behind the mechanism's back.
    pub fn flip_dbi_bit(&mut self, block: u64) -> bool {
        self.fire(FaultClass::FlipDbiBit, block)
    }

    /// Hook: a DBI entry eviction is about to drain `block`'s entry. True
    /// = skip the entire drain.
    pub fn skip_drain(&mut self, block: u64) -> bool {
        self.fire(FaultClass::SkipDrain, block)
    }

    /// Hook: the SSV is about to refresh the bit of `set`. True = leave
    /// the bit stale. Persistent once fired: the chosen set never
    /// refreshes again.
    pub fn ssv_stale(&mut self, set: u64) -> bool {
        if let Some(stale) = self.stale_set {
            return set == stale;
        }
        if self.fire(FaultClass::StaleSsv, set) {
            self.stale_set = Some(set);
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for class in FaultClass::ALL {
            assert_eq!(FaultClass::parse(class.label()), Ok(class));
        }
        assert!(FaultClass::parse("drop-everything")
            .unwrap_err()
            .contains("valid:"));
    }

    #[test]
    fn fires_exactly_once_at_a_seeded_opportunity() {
        let mut inj = FaultInjector::new(FaultPlan::new(FaultClass::DropWriteback, 7));
        let mut fired_at = None;
        for i in 1..=200u64 {
            if inj.drop_writeback(i) {
                assert!(fired_at.is_none(), "must fire once");
                fired_at = Some(i);
            }
        }
        let at = fired_at.expect("200 opportunities cover the firing window");
        assert!((16..64).contains(&at), "fired at {at}");
        let rec = inj.record().unwrap();
        assert_eq!(rec.opportunity, at);
        assert_eq!(rec.target, at);

        // Same seed, same firing point.
        let mut again = FaultInjector::new(FaultPlan::new(FaultClass::DropWriteback, 7));
        for i in 1..=200u64 {
            if again.drop_writeback(i) {
                assert_eq!(Some(i), fired_at);
            }
        }
    }

    #[test]
    fn other_classes_never_fire() {
        let mut inj = FaultInjector::new(FaultPlan::new(FaultClass::SkipDrain, 1));
        for i in 0..500u64 {
            assert!(!inj.drop_writeback(i));
            assert!(!inj.flip_dbi_bit(i));
            assert!(!inj.ssv_stale(i % 8));
        }
        assert!(inj.record().is_none());
    }

    #[test]
    fn stale_ssv_is_persistent_for_its_set() {
        let mut inj = FaultInjector::new(FaultPlan::new(FaultClass::StaleSsv, 3));
        let mut stale = None;
        for i in 0..200u64 {
            if inj.ssv_stale(i % 16) && stale.is_none() {
                stale = Some(i % 16);
            }
        }
        let set = stale.expect("fired");
        assert!(inj.ssv_stale(set), "stays stale");
        assert!(!inj.ssv_stale((set + 1) % 16), "other sets refresh");
    }
}
