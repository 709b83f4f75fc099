//! Skip-Cache-style miss prediction for Cache Lookup Bypass.
//!
//! Skip Cache (Raghavendra et al., PACT 2012) divides execution into epochs
//! and monitors each application's miss rate on a small sample of cache sets
//! (set sampling). If an application's sampled miss rate exceeds a threshold
//! (0.95 in the paper), *all* of its accesses in the next epoch — except
//! those to the sampled sets, which keep training the monitor — are
//! predicted to miss.
//!
//! The DBI paper pairs this predictor with a DBI dirty check to implement
//! Cache Lookup Bypass (Section 3.2): a predicted-miss access skips the tag
//! lookup unless the DBI says the block is dirty.

use crate::ThreadId;

/// Configuration of a [`MissPredictor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissPredictorConfig {
    /// Miss-rate threshold above which a thread bypasses (paper: 0.95).
    pub threshold: f64,
    /// Epoch length in cycles (paper: 50 million).
    pub epoch_cycles: u64,
    /// Number of sampled (always-looked-up) sets (paper: 32, via the same
    /// set-sampling machinery as DIP).
    pub sampled_sets: u64,
}

impl Default for MissPredictorConfig {
    fn default() -> Self {
        MissPredictorConfig {
            threshold: 0.95,
            epoch_cycles: 50_000_000,
            sampled_sets: 32,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct EpochCounters {
    accesses: u64,
    misses: u64,
}

/// A per-thread, epoch-based miss-rate monitor with set sampling.
///
/// # Example
///
/// ```
/// use cache_sim::predictor::{MissPredictor, MissPredictorConfig};
///
/// let config = MissPredictorConfig { epoch_cycles: 1000, ..Default::default() };
/// let mut pred = MissPredictor::new(config, 1024, 1);
/// // Train: every sampled access misses.
/// for i in 0..100 {
///     if pred.is_sampled(i % 1024) {
///         pred.record_sampled_access(0, false);
///     }
/// }
/// pred.tick(1000); // epoch boundary
/// assert!(pred.should_bypass(0, 5)); // non-sampled set: bypass
/// ```
#[derive(Debug, Clone)]
pub struct MissPredictor {
    config: MissPredictorConfig,
    sample_stride: u64,
    sets: u64,
    counters: Vec<EpochCounters>,
    bypassing: Vec<bool>,
    epoch_end: u64,
}

impl MissPredictor {
    /// Creates a predictor for a cache of `sets` sets shared by `threads`
    /// threads.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `threads` is zero, or the threshold is not in
    /// `(0, 1]`.
    #[must_use]
    pub fn new(config: MissPredictorConfig, sets: u64, threads: usize) -> Self {
        assert!(sets > 0 && threads > 0, "sets and threads must be nonzero");
        assert!(
            config.threshold > 0.0 && config.threshold <= 1.0,
            "threshold must be in (0, 1]"
        );
        let sampled = config.sampled_sets.clamp(1, sets);
        MissPredictor {
            config,
            sample_stride: (sets / sampled).max(1),
            sets,
            counters: vec![EpochCounters::default(); threads],
            bypassing: vec![false; threads],
            epoch_end: config.epoch_cycles,
        }
    }

    /// Whether `set` is one of the sampled sets (never bypassed; its
    /// accesses train the monitor).
    #[must_use]
    pub fn is_sampled(&self, set: u64) -> bool {
        debug_assert!(set < self.sets);
        set.is_multiple_of(self.sample_stride)
    }

    /// Records the outcome of an access by `thread` to a sampled set.
    pub fn record_sampled_access(&mut self, thread: ThreadId, hit: bool) {
        let idx = usize::from(thread) % self.counters.len();
        let c = &mut self.counters[idx];
        c.accesses += 1;
        if !hit {
            c.misses += 1;
        }
    }

    /// Advances time; on an epoch boundary, refreshes every thread's bypass
    /// decision from its sampled miss rate and resets the counters.
    pub fn tick(&mut self, now_cycle: u64) {
        while now_cycle >= self.epoch_end {
            for (c, bypass) in self.counters.iter_mut().zip(&mut self.bypassing) {
                *bypass =
                    c.accesses > 0 && (c.misses as f64 / c.accesses as f64) > self.config.threshold;
                *c = EpochCounters::default();
            }
            self.epoch_end += self.config.epoch_cycles;
        }
    }

    /// Whether an access by `thread` to `set` should be predicted to miss
    /// (and therefore bypass the tag lookup, dirty status permitting).
    #[must_use]
    pub fn should_bypass(&self, thread: ThreadId, set: u64) -> bool {
        self.bypassing[usize::from(thread) % self.bypassing.len()] && !self.is_sampled(set)
    }

    /// Whether `thread` is in bypass mode this epoch (ignores sampling).
    #[cfg(test)]
    fn is_bypassing(&self, thread: ThreadId) -> bool {
        self.bypassing[usize::from(thread) % self.bypassing.len()]
    }
}

impl dbi::snap::Snapshot for MissPredictor {
    fn snapshot(&self, w: &mut dbi::snap::SnapWriter) {
        w.u64(self.sets);
        w.u64(self.sample_stride);
        w.usize(self.counters.len());
        for c in &self.counters {
            w.u64(c.accesses);
            w.u64(c.misses);
        }
        for &b in &self.bypassing {
            w.bool(b);
        }
        w.u64(self.epoch_end);
    }

    fn restore(&mut self, r: &mut dbi::snap::SnapReader<'_>) -> Result<(), dbi::snap::SnapError> {
        r.expect_u64("predictor sets", self.sets)?;
        r.expect_u64("predictor sample stride", self.sample_stride)?;
        r.expect_len("predictor threads", self.counters.len())?;
        for c in &mut self.counters {
            c.accesses = r.u64()?;
            c.misses = r.u64()?;
        }
        for b in &mut self.bypassing {
            *b = r.bool()?;
        }
        self.epoch_end = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(threshold: f64) -> MissPredictor {
        MissPredictor::new(
            MissPredictorConfig {
                threshold,
                epoch_cycles: 100,
                sampled_sets: 4,
            },
            64,
            2,
        )
    }

    #[test]
    fn starts_conservative() {
        let p = quick(0.95);
        assert!(!p.should_bypass(0, 5));
        assert!(!p.is_bypassing(0));
    }

    #[test]
    fn high_miss_rate_enables_bypass_next_epoch() {
        let mut p = quick(0.95);
        for _ in 0..100 {
            p.record_sampled_access(0, false);
        }
        assert!(!p.should_bypass(0, 5), "not before the epoch boundary");
        p.tick(100);
        assert!(p.should_bypass(0, 5));
        assert!(!p.should_bypass(1, 5), "thread 1 untrained");
    }

    #[test]
    fn sampled_sets_are_never_bypassed() {
        let mut p = quick(0.95);
        for _ in 0..100 {
            p.record_sampled_access(0, false);
        }
        p.tick(100);
        let sampled: Vec<u64> = (0..64).filter(|&s| p.is_sampled(s)).collect();
        assert_eq!(sampled.len(), 4);
        for s in sampled {
            assert!(!p.should_bypass(0, s));
        }
        assert!(p.is_bypassing(0));
    }

    #[test]
    fn miss_rate_below_threshold_disables_bypass() {
        let mut p = quick(0.5);
        for i in 0..100 {
            p.record_sampled_access(0, i % 2 == 0); // 50% miss rate
        }
        p.tick(100);
        assert!(!p.should_bypass(0, 5), "0.5 is not > 0.5");

        for i in 0..100 {
            p.record_sampled_access(0, i % 4 == 0); // 75% miss rate
        }
        p.tick(200);
        assert!(p.should_bypass(0, 5));
    }

    #[test]
    fn bypass_decision_expires_with_idle_epochs() {
        let mut p = quick(0.95);
        for _ in 0..100 {
            p.record_sampled_access(0, false);
        }
        p.tick(100);
        assert!(p.is_bypassing(0));
        // No sampled accesses in the next epoch: decision resets.
        p.tick(200);
        assert!(!p.is_bypassing(0));
    }

    #[test]
    fn tick_catches_up_over_multiple_epochs() {
        let mut p = quick(0.95);
        for _ in 0..10 {
            p.record_sampled_access(0, false);
        }
        p.tick(1000); // ten epochs at once
        assert!(!p.is_bypassing(0), "stale counters expired, not latched");
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn invalid_threshold_panics() {
        let _ = MissPredictor::new(
            MissPredictorConfig {
                threshold: 0.0,
                ..Default::default()
            },
            64,
            1,
        );
    }
}
