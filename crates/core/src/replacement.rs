//! DBI replacement policies.
//!
//! A DBI eviction writes back every dirty block of the victim row but does
//! not evict the blocks from the cache, so (Section 4.3 of the paper) the
//! policy's goal is to avoid *premature* writebacks — evicting an entry
//! whose row will be written again soon. The paper evaluates five practical
//! policies and finds Least-Recently-Written (LRW) comparable or better than
//! the rest; LRW is this crate's default.

/// Which DBI entry a set evicts when a new row must be inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum DbiReplacementPolicy {
    /// Least Recently Written — the analogue of LRU for write timestamps.
    #[default]
    Lrw,
    /// LRW with a Bimodal Insertion Policy: most insertions land in the LRW
    /// position, one in [`BIP_EPSILON_RECIPROCAL`] in the MRW position.
    ///
    /// The paper's BIP uses a random coin; this implementation uses a
    /// deterministic 1-in-N counter per set, which has the same steady-state
    /// behaviour and keeps the structure reproducible and dependency-free.
    LrwBip,
    /// Re-Write Interval Prediction — the RRIP analogue: 2-bit prediction
    /// values, insert at "long", promote to "immediate" on a write hit, and
    /// evict a "distant" entry after ageing.
    Rwip,
    /// Evict the entry with the most dirty blocks (maximizes the DRAM row
    /// locality of each eviction burst; ties broken by LRW).
    MaxDirty,
    /// Evict the entry with the fewest dirty blocks (minimizes the blocks
    /// prematurely cleaned per eviction; ties broken by LRW).
    MinDirty,
}

impl DbiReplacementPolicy {
    /// All policies the paper evaluates, in its order (Section 4.3).
    pub const ALL: [DbiReplacementPolicy; 5] = [
        DbiReplacementPolicy::Lrw,
        DbiReplacementPolicy::LrwBip,
        DbiReplacementPolicy::Rwip,
        DbiReplacementPolicy::MaxDirty,
        DbiReplacementPolicy::MinDirty,
    ];

    /// Short label used in reports and benchmark tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DbiReplacementPolicy::Lrw => "LRW",
            DbiReplacementPolicy::LrwBip => "LRW-BIP",
            DbiReplacementPolicy::Rwip => "RWIP",
            DbiReplacementPolicy::MaxDirty => "Max-Dirty",
            DbiReplacementPolicy::MinDirty => "Min-Dirty",
        }
    }
}

impl std::fmt::Display for DbiReplacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One MRW insertion per this many insertions under [`LrwBip`].
///
/// Matches the bimodal insertion probability ε = 1/64 the paper uses for
/// TA-DIP (Table 2).
///
/// [`LrwBip`]: DbiReplacementPolicy::LrwBip
pub const BIP_EPSILON_RECIPROCAL: u64 = 64;

/// Maximum re-write prediction value for [`DbiReplacementPolicy::Rwip`]
/// (2-bit counters, as in RRIP).
const RWIP_MAX: i64 = 3;
/// Insertion prediction value ("long re-write interval").
const RWIP_LONG: i64 = 2;

/// Per-set replacement bookkeeping: one metadata word per way plus the
/// counters the policies need. The DBI proper decides validity; this state
/// only ranks valid ways.
#[derive(Debug, Clone)]
pub(crate) struct PolicyState {
    policy: DbiReplacementPolicy,
    /// Per-way metadata: a write timestamp for the LRW family, a re-write
    /// prediction value for RWIP.
    meta: Vec<i64>,
    /// Monotonic per-set write clock (LRW family and tie-breaking).
    clock: i64,
    /// Decrementing clock handing out "older than everything" timestamps
    /// for bimodal LRW-position insertions.
    low_clock: i64,
    /// Insertion counter driving the deterministic bimodal choice.
    bip_insertions: u64,
}

impl PolicyState {
    pub(crate) fn new(policy: DbiReplacementPolicy, ways: usize) -> Self {
        PolicyState {
            policy,
            meta: vec![0; ways],
            clock: 0,
            low_clock: 0,
            bip_insertions: 0,
        }
    }

    fn touch_mrw(&mut self, way: usize) {
        self.clock += 1;
        self.meta[way] = self.clock;
    }

    /// Records the insertion of a fresh entry into `way`.
    pub(crate) fn on_insert(&mut self, way: usize) {
        match self.policy {
            DbiReplacementPolicy::Lrw
            | DbiReplacementPolicy::MaxDirty
            | DbiReplacementPolicy::MinDirty => self.touch_mrw(way),
            DbiReplacementPolicy::LrwBip => {
                self.bip_insertions += 1;
                if self.bip_insertions.is_multiple_of(BIP_EPSILON_RECIPROCAL) {
                    self.touch_mrw(way);
                } else {
                    // LRW position: older than everything currently resident.
                    self.low_clock -= 1;
                    self.meta[way] = self.low_clock;
                }
            }
            DbiReplacementPolicy::Rwip => self.meta[way] = RWIP_LONG,
        }
    }

    /// Records a write hit on an already-resident entry in `way`.
    pub(crate) fn on_write_hit(&mut self, way: usize) {
        match self.policy {
            DbiReplacementPolicy::Lrw
            | DbiReplacementPolicy::LrwBip
            | DbiReplacementPolicy::MaxDirty
            | DbiReplacementPolicy::MinDirty => self.touch_mrw(way),
            DbiReplacementPolicy::Rwip => self.meta[way] = 0,
        }
    }

    /// Chooses the victim among ways listed in `candidates`, given each
    /// way's current dirty-block count.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty (the DBI only asks for a victim when
    /// the set is full).
    #[cfg(test)]
    pub(crate) fn victim(&mut self, candidates: &[usize], dirty_counts: &[usize]) -> usize {
        self.victim_from(candidates.iter().copied(), |w| dirty_counts[w])
    }

    /// [`victim`](PolicyState::victim) over an iterator of candidate ways
    /// and a dirty-count accessor — lets the hot path rank a full set
    /// (`0..ways`) without materializing candidate or count vectors.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub(crate) fn victim_from<I>(
        &mut self,
        candidates: I,
        dirty_count: impl Fn(usize) -> usize,
    ) -> usize
    where
        I: Iterator<Item = usize> + Clone,
    {
        assert!(
            candidates.clone().next().is_some(),
            "victim() requires candidates"
        );
        match self.policy {
            DbiReplacementPolicy::Lrw | DbiReplacementPolicy::LrwBip => {
                candidates.min_by_key(|&w| self.meta[w]).expect("nonempty")
            }
            DbiReplacementPolicy::Rwip => {
                // Age until some candidate reaches the distant value.
                loop {
                    if let Some(w) = candidates.clone().find(|&w| self.meta[w] >= RWIP_MAX) {
                        return w;
                    }
                    for w in candidates.clone() {
                        self.meta[w] += 1;
                    }
                }
            }
            DbiReplacementPolicy::MaxDirty => {
                candidates
                    // max dirty count; break ties toward least recently written
                    .max_by_key(|&w| (dirty_count(w), std::cmp::Reverse(self.meta[w])))
                    .expect("nonempty")
            }
            DbiReplacementPolicy::MinDirty => candidates
                .min_by_key(|&w| (dirty_count(w), self.meta[w]))
                .expect("nonempty"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_ways(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn lrw_evicts_least_recently_written() {
        let mut s = PolicyState::new(DbiReplacementPolicy::Lrw, 4);
        for w in 0..4 {
            s.on_insert(w);
        }
        s.on_write_hit(0); // 1 is now the oldest
        assert_eq!(s.victim(&all_ways(4), &[0; 4]), 1);
        s.on_write_hit(1);
        assert_eq!(s.victim(&all_ways(4), &[0; 4]), 2);
    }

    #[test]
    fn lrw_never_evicts_most_recently_written() {
        let mut s = PolicyState::new(DbiReplacementPolicy::Lrw, 8);
        for w in 0..8 {
            s.on_insert(w);
        }
        for round in 0..100 {
            let mrw = round % 8;
            s.on_write_hit(mrw);
            assert_ne!(s.victim(&all_ways(8), &[0; 8]), mrw);
        }
    }

    #[test]
    fn bip_mostly_inserts_at_lrw() {
        let mut s = PolicyState::new(DbiReplacementPolicy::LrwBip, 4);
        for w in 0..4 {
            s.on_insert(w);
        }
        // All four insertions (counter < 64) landed in the LRW position, so
        // a write-hit promotion dominates them all.
        s.on_write_hit(2);
        let v = s.victim(&all_ways(4), &[0; 4]);
        assert_ne!(v, 2, "promoted entry outranks BIP insertions");
        // A freshly BIP-inserted entry is still in the LRW cohort, not MRW.
        s.on_insert(0);
        assert_ne!(s.victim(&all_ways(4), &[0; 4]), 2);
    }

    #[test]
    fn bip_occasionally_inserts_at_mrw() {
        let mut s = PolicyState::new(DbiReplacementPolicy::LrwBip, 2);
        let mut mrw_insertions = 0;
        for _ in 0..(BIP_EPSILON_RECIPROCAL * 4) {
            s.on_insert(0);
            let before = s.meta[0];
            if before > s.meta[1] {
                mrw_insertions += 1;
            }
        }
        assert_eq!(mrw_insertions, 4, "exactly 1/64 of insertions are MRW");
    }

    #[test]
    fn rwip_promotes_on_write_hit() {
        let mut s = PolicyState::new(DbiReplacementPolicy::Rwip, 2);
        s.on_insert(0);
        s.on_insert(1);
        s.on_write_hit(0);
        // Way 1 still at the long interval (2); ageing reaches it first.
        assert_eq!(s.victim(&all_ways(2), &[0; 2]), 1);
    }

    #[test]
    fn rwip_ages_until_victim_found() {
        let mut s = PolicyState::new(DbiReplacementPolicy::Rwip, 3);
        for w in 0..3 {
            s.on_insert(w);
            s.on_write_hit(w); // all at rrpv 0
        }
        // Must terminate by ageing everyone to RWIP_MAX.
        let v = s.victim(&all_ways(3), &[0; 3]);
        assert!(v < 3);
    }

    #[test]
    fn max_dirty_picks_fullest_entry() {
        let mut s = PolicyState::new(DbiReplacementPolicy::MaxDirty, 4);
        for w in 0..4 {
            s.on_insert(w);
        }
        assert_eq!(s.victim(&all_ways(4), &[3, 9, 1, 9]), 1, "ties break LRW");
    }

    #[test]
    fn min_dirty_picks_emptiest_entry() {
        let mut s = PolicyState::new(DbiReplacementPolicy::MinDirty, 4);
        for w in 0..4 {
            s.on_insert(w);
        }
        assert_eq!(s.victim(&all_ways(4), &[3, 9, 1, 1]), 2, "ties break LRW");
    }

    #[test]
    fn victim_respects_candidate_subset() {
        let mut s = PolicyState::new(DbiReplacementPolicy::Lrw, 4);
        for w in 0..4 {
            s.on_insert(w);
        }
        // Way 0 is globally LRW but not a candidate.
        assert_eq!(s.victim(&[2, 3], &[0; 4]), 2);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> = DbiReplacementPolicy::ALL
            .iter()
            .map(|p| p.label())
            .collect();
        assert_eq!(labels.len(), DbiReplacementPolicy::ALL.len());
        assert_eq!(DbiReplacementPolicy::default().to_string(), "LRW");
    }
}
