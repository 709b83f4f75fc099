//! Set dueling, the mechanism behind TA-DIP and DRRIP.
//!
//! A few *leader sets* are hard-wired to each of two competing insertion
//! policies; a saturating policy-selector counter (PSEL) per thread counts
//! which leader group misses more, and all *follower sets* adopt the winner
//! (Qureshi et al., "Adaptive insertion policies", ISCA 2007; the
//! thread-aware variant follows Jaleel et al., PACT 2008). The paper's
//! configuration is 32 dueling sets and a 10-bit PSEL (Table 2).

use crate::ThreadId;

/// Which of the two duelling policies an access should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyChoice {
    /// The first policy (conventionally the incumbent, e.g. MRU insertion).
    A,
    /// The second policy (the challenger, e.g. bimodal insertion).
    B,
}

/// Role of a set in the duel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SetRole {
    /// Always uses policy A and trains the selector.
    LeaderA,
    /// Always uses policy B and trains the selector.
    LeaderB,
    /// Follows the selector's current winner.
    Follower,
}

/// A thread-aware set-dueling selector.
///
/// # Example
///
/// ```
/// use cache_sim::dueling::{DuelingSelector, PolicyChoice};
///
/// let mut duel = DuelingSelector::new(1024, 32, 2, 10);
/// // Leader sets are fixed: set 0 always uses policy A.
/// assert_eq!(duel.choose(0, 0), PolicyChoice::A);
/// // Follower sets consult the per-thread PSEL:
/// let _policy: PolicyChoice = duel.choose(5, 0);
/// // Misses in leader sets train the selector:
/// duel.record_miss(0, 0);
/// ```
#[derive(Debug, Clone)]
pub struct DuelingSelector {
    sets: u64,
    stride: u64,
    psel: Vec<u32>,
    psel_max: u32,
}

impl DuelingSelector {
    /// Creates a selector for `sets` cache sets with `leaders_per_policy`
    /// leader sets for each policy, `threads` PSEL counters of `psel_bits`
    /// bits.
    ///
    /// Leader counts are clamped so each policy gets at least one and at
    /// most `sets / 2` leaders.
    ///
    /// # Panics
    ///
    /// Panics if `sets < 2`, `threads == 0`, or `psel_bits` is 0 or > 31.
    #[must_use]
    pub fn new(sets: u64, leaders_per_policy: u64, threads: usize, psel_bits: u32) -> Self {
        assert!(sets >= 2, "set dueling needs at least two sets");
        assert!(threads > 0, "need at least one thread");
        assert!(psel_bits > 0 && psel_bits <= 31, "psel_bits out of range");
        let leaders = leaders_per_policy.clamp(1, sets / 2);
        let stride = (sets / leaders).max(2);
        let psel_max = (1u32 << psel_bits) - 1;
        DuelingSelector {
            sets,
            stride,
            // Start at the midpoint: no initial bias (`choose` uses a
            // strict comparison, so the midpoint favours policy A).
            psel: vec![psel_max / 2; threads],
            psel_max,
        }
    }

    /// The duelling role of `set`.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    fn role_of(&self, set: u64) -> SetRole {
        assert!(set < self.sets, "set {set} out of range");
        match set % self.stride {
            0 => SetRole::LeaderA,
            1 => SetRole::LeaderB,
            _ => SetRole::Follower,
        }
    }

    /// The policy an access by `thread` to `set` should use.
    #[must_use]
    pub fn choose(&self, set: u64, thread: ThreadId) -> PolicyChoice {
        match self.role_of(set) {
            SetRole::LeaderA => PolicyChoice::A,
            SetRole::LeaderB => PolicyChoice::B,
            SetRole::Follower => {
                // High PSEL = many misses in A's leaders = A losing.
                if self.psel[usize::from(thread) % self.psel.len()] > self.psel_max / 2 {
                    PolicyChoice::B
                } else {
                    PolicyChoice::A
                }
            }
        }
    }

    /// Trains the selector on a miss by `thread` in `set` (only leader sets
    /// have any effect).
    pub fn record_miss(&mut self, set: u64, thread: ThreadId) {
        let t = usize::from(thread) % self.psel.len();
        match self.role_of(set) {
            SetRole::LeaderA => self.psel[t] = (self.psel[t] + 1).min(self.psel_max),
            SetRole::LeaderB => self.psel[t] = self.psel[t].saturating_sub(1),
            SetRole::Follower => {}
        }
    }
}

/// Deterministic bimodal insertion source: one [`InsertPos::Mru`] per
/// `reciprocal` decisions, the rest [`InsertPos::Lru`].
///
/// Replaces BIP's random coin with a counter so simulations are exactly
/// reproducible; the steady-state insertion mix is identical (ε = 1/64 by
/// default, as in the paper's Table 2).
///
/// [`InsertPos::Mru`]: crate::InsertPos::Mru
/// [`InsertPos::Lru`]: crate::InsertPos::Lru
#[derive(Debug, Clone)]
pub struct BimodalCounter {
    count: u64,
    reciprocal: u64,
}

impl BimodalCounter {
    /// Creates a counter emitting one MRU insertion per `reciprocal` calls.
    ///
    /// # Panics
    ///
    /// Panics if `reciprocal` is zero.
    #[must_use]
    pub fn new(reciprocal: u64) -> Self {
        assert!(reciprocal > 0, "bimodal reciprocal must be nonzero");
        BimodalCounter {
            count: 0,
            reciprocal,
        }
    }

    /// Returns the insertion position for the next bimodal insertion.
    pub fn next_pos(&mut self) -> crate::InsertPos {
        self.count += 1;
        if self.count.is_multiple_of(self.reciprocal) {
            crate::InsertPos::Mru
        } else {
            crate::InsertPos::Lru
        }
    }
}

impl Default for BimodalCounter {
    /// The paper's ε = 1/64.
    fn default() -> Self {
        BimodalCounter::new(64)
    }
}

impl dbi::snap::Snapshot for DuelingSelector {
    fn snapshot(&self, w: &mut dbi::snap::SnapWriter) {
        w.u64(self.sets);
        w.u64(self.stride);
        w.u32(self.psel_max);
        w.usize(self.psel.len());
        for &p in &self.psel {
            w.u32(p);
        }
    }

    fn restore(&mut self, r: &mut dbi::snap::SnapReader<'_>) -> Result<(), dbi::snap::SnapError> {
        r.expect_u64("dueling sets", self.sets)?;
        r.expect_u64("dueling stride", self.stride)?;
        r.expect_u64("dueling PSEL max", u64::from(self.psel_max))?;
        r.expect_len("dueling threads", self.psel.len())?;
        for p in &mut self.psel {
            let v = r.u32()?;
            if v > self.psel_max {
                return Err(dbi::snap::SnapError::Corrupt(format!(
                    "PSEL {v} exceeds maximum {}",
                    self.psel_max
                )));
            }
            *p = v;
        }
        Ok(())
    }
}

impl dbi::snap::Snapshot for BimodalCounter {
    fn snapshot(&self, w: &mut dbi::snap::SnapWriter) {
        w.u64(self.reciprocal);
        w.u64(self.count);
    }

    fn restore(&mut self, r: &mut dbi::snap::SnapReader<'_>) -> Result<(), dbi::snap::SnapError> {
        r.expect_u64("bimodal reciprocal", self.reciprocal)?;
        self.count = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InsertPos;

    #[test]
    fn leaders_are_disjoint_and_counted() {
        let d = DuelingSelector::new(1024, 32, 1, 10);
        let mut a = 0;
        let mut b = 0;
        for s in 0..1024 {
            match d.role_of(s) {
                SetRole::LeaderA => a += 1,
                SetRole::LeaderB => b += 1,
                SetRole::Follower => {}
            }
        }
        assert_eq!(a, 32);
        assert_eq!(b, 32);
    }

    #[test]
    fn followers_track_the_winning_policy() {
        let mut d = DuelingSelector::new(64, 4, 1, 6);
        let follower = (0..64)
            .find(|&s| d.role_of(s) == SetRole::Follower)
            .unwrap();
        // Flood policy A's leaders with misses -> followers switch to B.
        for _ in 0..100 {
            d.record_miss(0, 0); // set 0 is a LeaderA
        }
        assert_eq!(d.choose(follower, 0), PolicyChoice::B);
        // Now B's leaders miss twice as hard -> back to A.
        for _ in 0..200 {
            d.record_miss(1, 0); // set 1 is a LeaderB
        }
        assert_eq!(d.choose(follower, 0), PolicyChoice::A);
    }

    #[test]
    fn leader_sets_ignore_psel() {
        let mut d = DuelingSelector::new(64, 4, 1, 6);
        for _ in 0..100 {
            d.record_miss(0, 0);
        }
        assert_eq!(d.choose(0, 0), PolicyChoice::A);
        assert_eq!(d.choose(1, 0), PolicyChoice::B);
    }

    #[test]
    fn psel_is_per_thread() {
        let mut d = DuelingSelector::new(64, 4, 2, 6);
        for _ in 0..100 {
            d.record_miss(0, 0); // thread 0 sees A losing
        }
        let follower = (0..64)
            .find(|&s| d.role_of(s) == SetRole::Follower)
            .unwrap();
        assert_eq!(d.choose(follower, 0), PolicyChoice::B);
        assert_eq!(d.choose(follower, 1), PolicyChoice::A, "thread 1 unbiased");
    }

    #[test]
    fn psel_saturates() {
        let mut d = DuelingSelector::new(64, 4, 1, 4);
        for _ in 0..1000 {
            d.record_miss(0, 0);
        }
        assert_eq!(d.psel[0], 15);
        for _ in 0..10_000 {
            d.record_miss(1, 0);
        }
        assert_eq!(d.psel[0], 0);
    }

    #[test]
    fn tiny_caches_clamp_leaders() {
        let d = DuelingSelector::new(4, 32, 1, 10);
        // stride clamps to 2: alternating leaders, no followers.
        assert_eq!(d.role_of(0), SetRole::LeaderA);
        assert_eq!(d.role_of(1), SetRole::LeaderB);
    }

    #[test]
    fn bimodal_counter_rate() {
        let mut b = BimodalCounter::default();
        let mru = (0..6400).filter(|_| b.next_pos() == InsertPos::Mru).count();
        assert_eq!(mru, 100, "exactly 1/64 of insertions are MRU");
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn bimodal_zero_panics() {
        let _ = BimodalCounter::new(0);
    }
}
