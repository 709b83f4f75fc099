//! Last-write (rewrite) prediction for proactive writeback filtering.
//!
//! The paper's related-work section points at Wang et al. (ISCA 2012):
//! predicting whether a dirty block has received its *last* write lets a
//! proactive writeback scheme avoid premature writebacks — exactly the
//! cost the DBI pays on scatter-write workloads (mcf, omnetpp in
//! Section 6.1). This module implements a row-granularity rewrite filter
//! that the Aggressive Writeback optimization can consult: rows that were
//! proactively cleaned and then re-dirtied train the filter to skip
//! sweeping them.
//!
//! The predictor is a table of 2-bit saturating counters indexed by a hash
//! of the DRAM row, plus a small FIFO of recently swept rows used to
//! attribute re-dirty events to earlier sweeps.

use std::collections::VecDeque;

/// Counter value at or above which a row is predicted to be re-written
/// (sweeping it would be premature).
const REWRITE_THRESHOLD: u8 = 2;
const COUNTER_MAX: u8 = 3;

/// Event counters for a [`RewriteFilter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RewriteFilterStats {
    /// Sweeps suppressed by the predictor.
    pub suppressed_sweeps: u64,
    /// Sweeps allowed.
    pub allowed_sweeps: u64,
    /// Re-dirty events observed for recently swept rows (mispredictions of
    /// "last write").
    pub rewrites_observed: u64,
}

/// A row-granularity last-write predictor.
///
/// # Example
///
/// ```
/// use cache_sim::lastwrite::RewriteFilter;
///
/// let mut filter = RewriteFilter::new(1024, 64);
/// assert!(filter.should_sweep(42)); // optimistic by default
/// filter.note_sweep(42);
/// filter.note_write(42);            // re-dirtied after the sweep: train
/// filter.note_sweep(42);
/// filter.note_write(42);            // and again
/// assert!(!filter.should_sweep(42)); // now predicted to be re-written
/// ```
#[derive(Debug, Clone)]
pub struct RewriteFilter {
    counters: Vec<u8>,
    recent_sweeps: VecDeque<u64>,
    recent_capacity: usize,
    stats: RewriteFilterStats,
}

impl RewriteFilter {
    /// Creates a filter with `table_entries` counters and a window of
    /// `recent_capacity` recently swept rows.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    #[must_use]
    pub fn new(table_entries: usize, recent_capacity: usize) -> Self {
        assert!(table_entries > 0, "filter table must be nonempty");
        assert!(recent_capacity > 0, "recent-sweep window must be nonempty");
        RewriteFilter {
            counters: vec![0; table_entries],
            recent_sweeps: VecDeque::with_capacity(recent_capacity),
            recent_capacity,
            stats: RewriteFilterStats::default(),
        }
    }

    fn index(&self, row: u64) -> usize {
        // Fibonacci hash spreads sequential rows across the table.
        (row.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.counters.len()
    }

    /// Whether a sweep of `row` is predicted profitable (its writes look
    /// final). Record the decision with [`note_sweep`](Self::note_sweep)
    /// if the sweep proceeds.
    #[must_use]
    pub fn should_sweep(&self, row: u64) -> bool {
        self.counters[self.index(row)] < REWRITE_THRESHOLD
    }

    /// Records that `row` was proactively swept (its dirty blocks were
    /// cleaned).
    pub fn note_sweep(&mut self, row: u64) {
        self.stats.allowed_sweeps += 1;
        if self.recent_sweeps.len() == self.recent_capacity {
            // The oldest sweep aged out without a re-dirty: that sweep was
            // a good decision — decay its row's counter.
            let expired = self.recent_sweeps.pop_front().expect("nonempty");
            let i = self.index(expired);
            self.counters[i] = self.counters[i].saturating_sub(1);
        }
        self.recent_sweeps.push_back(row);
    }

    /// Records a suppressed sweep (for statistics).
    pub fn note_suppressed(&mut self) {
        self.stats.suppressed_sweeps += 1;
    }

    /// Records an incoming write (writeback) to `row`. If the row was
    /// recently swept, the sweep was premature: train toward suppression.
    pub fn note_write(&mut self, row: u64) {
        if let Some(pos) = self.recent_sweeps.iter().position(|&r| r == row) {
            self.recent_sweeps.remove(pos);
            let i = self.index(row);
            self.counters[i] = (self.counters[i] + 1).min(COUNTER_MAX);
            self.stats.rewrites_observed += 1;
        }
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &RewriteFilterStats {
        &self.stats
    }
}

impl dbi::snap::Snapshot for RewriteFilterStats {
    fn snapshot(&self, w: &mut dbi::snap::SnapWriter) {
        let RewriteFilterStats {
            suppressed_sweeps,
            allowed_sweeps,
            rewrites_observed,
        } = *self;
        for x in [suppressed_sweeps, allowed_sweeps, rewrites_observed] {
            w.u64(x);
        }
    }

    fn restore(&mut self, r: &mut dbi::snap::SnapReader<'_>) -> Result<(), dbi::snap::SnapError> {
        self.suppressed_sweeps = r.u64()?;
        self.allowed_sweeps = r.u64()?;
        self.rewrites_observed = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimistic_by_default() {
        let f = RewriteFilter::new(256, 16);
        for row in 0..100 {
            assert!(f.should_sweep(row));
        }
    }

    #[test]
    fn rewrites_train_toward_suppression() {
        let mut f = RewriteFilter::new(256, 16);
        for _ in 0..REWRITE_THRESHOLD {
            f.note_sweep(7);
            f.note_write(7);
        }
        assert!(!f.should_sweep(7));
        assert_eq!(f.stats().rewrites_observed, u64::from(REWRITE_THRESHOLD));
        // Unrelated rows are unaffected (modulo hash collisions; row 8
        // hashes elsewhere in a 256-entry table).
        assert!(f.should_sweep(8));
    }

    #[test]
    fn good_sweeps_decay_the_counter() {
        let mut f = RewriteFilter::new(256, 2);
        // Train row 7 to suppression.
        for _ in 0..3 {
            f.note_sweep(7);
            f.note_write(7);
        }
        assert!(!f.should_sweep(7));
        // Now row 7's behaviour changes: sweeps of it age out un-rewritten.
        // (Sweeps of other rows push row 7's entries out of the window.)
        for i in 0..8u64 {
            f.note_sweep(7);
            f.note_sweep(1000 + i); // forces the window to expire row 7
        }
        assert!(f.should_sweep(7), "counter must decay back");
    }

    #[test]
    fn writes_to_unswept_rows_do_not_train() {
        let mut f = RewriteFilter::new(256, 16);
        for _ in 0..10 {
            f.note_write(5);
        }
        assert!(f.should_sweep(5));
        assert_eq!(f.stats().rewrites_observed, 0);
    }

    #[test]
    fn stats_count_decisions() {
        let mut f = RewriteFilter::new(256, 16);
        f.note_sweep(1);
        f.note_sweep(2);
        f.note_suppressed();
        assert_eq!(f.stats().allowed_sweeps, 2);
        assert_eq!(f.stats().suppressed_sweeps, 1);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn zero_table_panics() {
        let _ = RewriteFilter::new(0, 16);
    }
}
