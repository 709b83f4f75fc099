//! The Dirty-Block Index structure.

use crate::config::DbiConfig;
use crate::container::{ContainerPolicy, DirtyContainer};
use crate::replacement::PolicyState;
use crate::stats::DbiStats;
use crate::{BlockAddr, RowId};

/// One valid DBI entry: the row it covers and the row's dirty container.
#[derive(Debug, Clone)]
struct Entry {
    row: RowId,
    bits: DirtyContainer,
}

/// One set of the set-associative DBI.
#[derive(Debug, Clone)]
struct Set {
    ways: Vec<Option<Entry>>,
    policy: PolicyState,
}

/// A DBI entry that was evicted, carrying the writebacks it forces.
///
/// Per the paper (Section 2.2.4): once the entry is gone the DBI can no
/// longer prove these blocks dirty, so they **must** be written back to
/// memory; the cache blocks themselves stay resident and merely transition
/// from dirty to clean.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictedRow {
    row: RowId,
    blocks: Vec<BlockAddr>,
}

impl EvictedRow {
    /// The DRAM row the evicted entry covered.
    #[must_use]
    pub fn row(&self) -> RowId {
        self.row
    }

    /// Block addresses that must be written back, in ascending order —
    /// already sorted by column, which is exactly the access order a
    /// DRAM-aware writeback burst wants.
    #[must_use]
    pub fn blocks(&self) -> &[BlockAddr] {
        &self.blocks
    }
}

/// Result of [`Dbi::mark_dirty`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkOutcome {
    /// Whether the block transitioned clean → dirty (false if it was
    /// already marked).
    pub newly_dirty: bool,
    /// The entry evicted to make room, if inserting the row required one.
    pub evicted: Option<EvictedRow>,
}

impl MarkOutcome {
    /// Blocks that must be written back as a consequence of this mark
    /// (empty unless a DBI eviction occurred).
    #[must_use]
    pub fn writebacks(&self) -> &[BlockAddr] {
        self.evicted.as_ref().map_or(&[], |e| e.blocks())
    }
}

/// The Dirty-Block Index: a small set-associative structure holding the
/// dirty bits of a writeback cache, organized by DRAM row.
///
/// See the [crate-level documentation](crate) for the semantics and a usage
/// example. All addresses are cache-block indices ([`BlockAddr`]); the row
/// of a block is `block / granularity`.
#[derive(Debug, Clone)]
pub struct Dbi {
    config: DbiConfig,
    sets: Vec<Set>,
    dirty_blocks: u64,
    stats: DbiStats,
    /// Reused by [`flush_each`](Dbi::flush_each) so whole-index flushes
    /// allocate nothing after the first call. Not part of snapshot state.
    flush_scratch: Vec<(RowId, u32, u32)>,
}

impl Dbi {
    /// Creates an empty DBI with the given geometry.
    #[must_use]
    pub fn new(config: DbiConfig) -> Self {
        let sets = (0..config.sets())
            .map(|_| Set {
                ways: vec![None; config.associativity()],
                policy: PolicyState::new(config.policy(), config.associativity()),
            })
            .collect();
        Dbi {
            config,
            sets,
            dirty_blocks: 0,
            stats: DbiStats::default(),
            flush_scratch: Vec::new(),
        }
    }

    /// The geometry this DBI was built with.
    #[must_use]
    pub fn config(&self) -> &DbiConfig {
        &self.config
    }

    /// DRAM row of `block` under this DBI's granularity.
    #[must_use]
    pub fn row_of(&self, block: BlockAddr) -> RowId {
        block / self.config.granularity() as u64
    }

    fn offset_of(&self, block: BlockAddr) -> usize {
        (block % self.config.granularity() as u64) as usize
    }

    fn set_index(&self, row: RowId) -> usize {
        (row % self.sets.len() as u64) as usize
    }

    fn find_way(&self, set: usize, row: RowId) -> Option<usize> {
        self.sets[set]
            .ways
            .iter()
            .position(|w| w.as_ref().is_some_and(|e| e.row == row))
    }

    /// Marks `block` dirty, the DBI side of a writeback request arriving at
    /// the cache (paper Section 2.2.2).
    ///
    /// If the block's row has no entry and its set is full, a victim entry
    /// is evicted; the returned [`MarkOutcome::evicted`] then carries the
    /// blocks whose writebacks the eviction forces.
    pub fn mark_dirty(&mut self, block: BlockAddr) -> MarkOutcome {
        let mut blocks = Vec::new();
        let (newly_dirty, evicted_row) = self.mark_dirty_core(block, &mut blocks);
        MarkOutcome {
            newly_dirty,
            evicted: evicted_row.map(|row| EvictedRow { row, blocks }),
        }
    }

    /// Allocation-free variant of [`mark_dirty`](Dbi::mark_dirty) for hot
    /// paths: eviction-forced writebacks are appended (ascending) to
    /// `writebacks` instead of being returned in a fresh [`EvictedRow`].
    /// Returns whether the block transitioned clean → dirty.
    pub fn mark_dirty_into(&mut self, block: BlockAddr, writebacks: &mut Vec<BlockAddr>) -> bool {
        self.mark_dirty_core(block, writebacks).0
    }

    /// Shared implementation: `(newly_dirty, evicted row)`; eviction
    /// writebacks are appended to `writebacks`.
    fn mark_dirty_core(
        &mut self,
        block: BlockAddr,
        writebacks: &mut Vec<BlockAddr>,
    ) -> (bool, Option<RowId>) {
        self.stats.mark_requests += 1;
        let row = self.row_of(block);
        let offset = self.offset_of(block);
        let set_idx = self.set_index(row);

        if let Some(way) = self.find_way(set_idx, row) {
            self.stats.entry_hits += 1;
            let set = &mut self.sets[set_idx];
            let entry = set.ways[way].as_mut().expect("way found valid");
            let newly = entry.bits.set(offset);
            if newly {
                self.stats.bits_set += 1;
                self.dirty_blocks += 1;
            }
            set.policy.on_write_hit(way);
            return (newly, None);
        }

        // Row miss: install a new entry, evicting if the set is full.
        let granularity = self.config.granularity();
        let Set { ways, policy } = &mut self.sets[set_idx];
        let (way, evicted) = match ways.iter().position(Option::is_none) {
            Some(free) => (free, None),
            None => {
                let victim = policy.victim_from(0..ways.len(), |w| {
                    ways[w].as_ref().map_or(0, |e| e.bits.count())
                });
                let old = ways[victim].take().expect("full set has valid victim");
                (victim, Some(old))
            }
        };

        let mut bits = DirtyContainer::new(granularity, ContainerPolicy::Adaptive);
        bits.set(offset);
        ways[way] = Some(Entry { row, bits });
        policy.on_insert(way);
        self.stats.entry_insertions += 1;
        self.stats.bits_set += 1;
        self.dirty_blocks += 1;

        let evicted_row = evicted.map(|old| {
            let base = old.row * granularity as u64;
            let before = writebacks.len();
            writebacks.extend(old.bits.iter_ones().map(|o| base + o as u64));
            let count = (writebacks.len() - before) as u64;
            self.stats.entry_evictions += 1;
            self.stats.eviction_writebacks += count;
            self.dirty_blocks -= count;
            old.row
        });

        (true, evicted_row)
    }

    /// Returns whether `block` is dirty — the query every optimization in
    /// the paper leans on. Much cheaper than a tag-store lookup in hardware;
    /// here, a single set probe.
    #[must_use]
    pub fn is_dirty(&self, block: BlockAddr) -> bool {
        let row = self.row_of(block);
        let set = self.set_index(row);
        self.find_way(set, row).is_some_and(|way| {
            self.sets[set].ways[way]
                .as_ref()
                .expect("way found valid")
                .bits
                .get(self.offset_of(block))
        })
    }

    /// Clears `block`'s dirty bit (cache eviction of a dirty block, or a
    /// proactive writeback). Returns whether the bit was set.
    ///
    /// If this was the entry's last dirty block, the entry is invalidated so
    /// it can track another row (paper Section 2.2.3).
    pub fn clear_dirty(&mut self, block: BlockAddr) -> bool {
        let row = self.row_of(block);
        let offset = self.offset_of(block);
        let set_idx = self.set_index(row);
        let Some(way) = self.find_way(set_idx, row) else {
            return false;
        };
        let set = &mut self.sets[set_idx];
        let entry = set.ways[way].as_mut().expect("way found valid");
        if !entry.bits.clear(offset) {
            return false;
        }
        self.stats.bits_cleared += 1;
        self.dirty_blocks -= 1;
        if entry.bits.is_empty() {
            set.ways[way] = None;
            self.stats.entry_invalidations += 1;
        }
        true
    }

    /// Iterates over the dirty blocks co-located in the DRAM row containing
    /// `block` — the single query that powers Aggressive Writeback.
    ///
    /// Yields addresses in ascending order; empty if the row has no entry.
    pub fn row_dirty_blocks(&self, block: BlockAddr) -> impl Iterator<Item = BlockAddr> + '_ {
        let row = self.row_of(block);
        let set = self.set_index(row);
        let base = row * self.config.granularity() as u64;
        self.find_way(set, row)
            .and_then(|way| self.sets[set].ways[way].as_ref())
            .map(|e| e.bits.iter_ones())
            .into_iter()
            .flatten()
            .map(move |o| base + o as u64)
    }

    /// Removes the entry covering `block`'s row, returning the writebacks
    /// it forces. Used for flush-style operations (DMA coherence, power-down
    /// flushes — paper Section 7).
    pub fn flush_row(&mut self, block: BlockAddr) -> Option<EvictedRow> {
        let row = self.row_of(block);
        let set_idx = self.set_index(row);
        let way = self.find_way(set_idx, row)?;
        let entry = self.sets[set_idx].ways[way].take().expect("way valid");
        let base = entry.row * self.config.granularity() as u64;
        let blocks: Vec<BlockAddr> = entry.bits.iter_ones().map(|o| base + o as u64).collect();
        self.dirty_blocks -= blocks.len() as u64;
        self.stats.entry_invalidations += 1;
        Some(EvictedRow { row, blocks })
    }

    /// Flushes the whole index, invoking `sink` once per dirty block — rows
    /// in ascending order, blocks ascending within each row, exactly the
    /// order a whole-cache flush wants to drain writebacks in. Unlike a
    /// collected result, the visitor allocates nothing per call (an internal
    /// scratch list is reused across flushes).
    pub fn flush_each(&mut self, mut sink: impl FnMut(RowId, BlockAddr)) {
        let granularity = self.config.granularity() as u64;
        let mut scratch = std::mem::take(&mut self.flush_scratch);
        scratch.clear();
        for (si, set) in self.sets.iter().enumerate() {
            for (wi, way) in set.ways.iter().enumerate() {
                if let Some(entry) = way {
                    scratch.push((entry.row, si as u32, wi as u32));
                }
            }
        }
        scratch.sort_unstable_by_key(|&(row, ..)| row);
        for &(row, si, wi) in &scratch {
            let entry = self.sets[si as usize].ways[wi as usize]
                .take()
                .expect("scratch points at a valid entry");
            let base = row * granularity;
            for offset in entry.bits.iter_ones() {
                sink(row, base + offset as u64);
            }
        }
        self.dirty_blocks = 0;
        self.flush_scratch = scratch;
    }

    /// Iterates over every dirty block currently tracked, in no particular
    /// order. Intended for functional checking and debugging.
    pub fn dirty_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        let granularity = self.config.granularity() as u64;
        self.sets.iter().flat_map(move |set| {
            set.ways.iter().flatten().flat_map(move |e| {
                let base = e.row * granularity;
                e.bits.iter_ones().map(move |o| base + o as u64)
            })
        })
    }

    /// Number of blocks currently marked dirty.
    #[must_use]
    pub fn dirty_count(&self) -> u64 {
        self.dirty_blocks
    }

    /// Number of valid entries.
    #[must_use]
    pub fn valid_entries(&self) -> u64 {
        self.sets
            .iter()
            .map(|s| s.ways.iter().flatten().count() as u64)
            .sum()
    }

    /// Iterates over the valid entries as `(row, dirty-block count)` pairs,
    /// in no particular order — occupancy introspection for debugging and
    /// reporting.
    pub fn entries(&self) -> impl Iterator<Item = (RowId, usize)> + '_ {
        self.sets
            .iter()
            .flat_map(|set| set.ways.iter().flatten().map(|e| (e.row, e.bits.count())))
    }

    /// Whether the DBI currently holds an entry for `block`'s row.
    #[must_use]
    pub fn contains_row(&self, block: BlockAddr) -> bool {
        let row = self.row_of(block);
        self.find_way(self.set_index(row), row).is_some()
    }

    /// Event counters accumulated since construction or the last
    /// [`take_stats`](Dbi::take_stats).
    #[must_use]
    pub fn stats(&self) -> &DbiStats {
        &self.stats
    }

    /// Returns the counters and resets them to zero.
    pub fn take_stats(&mut self) -> DbiStats {
        std::mem::take(&mut self.stats)
    }

    /// Checks the structure's internal invariants, panicking on violation.
    /// Used by tests and available to callers under debug builds.
    ///
    /// # Panics
    ///
    /// Panics if a valid entry has an empty bit vector, a set holds two
    /// entries for one row, an entry sits in the wrong set, or the cached
    /// dirty count disagrees with the per-entry population.
    pub fn assert_invariants(&self) {
        let mut total = 0u64;
        for (si, set) in self.sets.iter().enumerate() {
            let mut rows = std::collections::HashSet::new();
            for entry in set.ways.iter().flatten() {
                assert!(
                    !entry.bits.is_empty(),
                    "valid DBI entry for row {} has no dirty bits",
                    entry.row
                );
                assert!(
                    rows.insert(entry.row),
                    "duplicate DBI entry for row {} in set {si}",
                    entry.row
                );
                assert_eq!(
                    self.set_index(entry.row),
                    si,
                    "entry for row {} stored in wrong set",
                    entry.row
                );
                total += entry.bits.count() as u64;
            }
        }
        assert_eq!(total, self.dirty_blocks, "dirty-count cache out of sync");
        assert!(
            self.dirty_blocks <= self.config.tracked_blocks(),
            "DBI tracks more dirty blocks than its capacity"
        );
    }
}

impl crate::snap::Snapshot for Dbi {
    fn snapshot(&self, w: &mut crate::snap::SnapWriter) {
        w.usize(self.sets.len());
        for set in &self.sets {
            w.usize(set.ways.len());
            for way in &set.ways {
                w.bool(way.is_some());
                if let Some(entry) = way {
                    w.u64(entry.row);
                    entry.bits.snapshot(w);
                }
            }
            set.policy.snapshot(w);
        }
        w.u64(self.dirty_blocks);
        self.stats.snapshot(w);
    }

    fn restore(
        &mut self,
        r: &mut crate::snap::SnapReader<'_>,
    ) -> Result<(), crate::snap::SnapError> {
        use crate::snap::SnapError;
        r.expect_len("DBI sets", self.sets.len())?;
        let granularity = self.config.granularity();
        let n_sets = self.sets.len() as u64;
        let mut total = 0u64;
        for (si, set) in self.sets.iter_mut().enumerate() {
            r.expect_len("DBI ways", set.ways.len())?;
            for way in &mut set.ways {
                if r.bool()? {
                    let row = r.u64()?;
                    if row % n_sets != si as u64 {
                        return Err(SnapError::Corrupt(format!(
                            "DBI entry for row {row} restored into set {si}"
                        )));
                    }
                    let mut bits = DirtyContainer::new(granularity, ContainerPolicy::Adaptive);
                    bits.restore(r)?;
                    if bits.is_empty() {
                        return Err(SnapError::Corrupt(format!(
                            "valid DBI entry for row {row} has no dirty bits"
                        )));
                    }
                    total += bits.count() as u64;
                    *way = Some(Entry { row, bits });
                } else {
                    *way = None;
                }
            }
            set.policy.restore(r)?;
        }
        self.dirty_blocks = r.u64()?;
        if self.dirty_blocks != total {
            return Err(SnapError::Mismatch {
                what: "DBI dirty-count cache",
                expected: total,
                found: self.dirty_blocks,
            });
        }
        self.stats.restore(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Alpha, DbiConfig};
    use crate::replacement::DbiReplacementPolicy;

    /// Small geometry: 4 sets × 2 ways × granularity 8 = 64 tracked blocks.
    fn small() -> Dbi {
        let config = DbiConfig::new(256, Alpha::QUARTER, 8, 2, DbiReplacementPolicy::Lrw).unwrap();
        assert_eq!(config.entries(), 8);
        assert_eq!(config.sets(), 4);
        Dbi::new(config)
    }

    #[test]
    fn semantics_mark_query_clear() {
        let mut dbi = small();
        assert!(!dbi.is_dirty(13));
        let out = dbi.mark_dirty(13);
        assert!(out.newly_dirty);
        assert!(out.evicted.is_none());
        assert!(dbi.is_dirty(13));
        assert!(!dbi.is_dirty(12), "neighbour in same row stays clean");
        assert!(dbi.contains_row(8), "row 1 covers blocks 8..16");

        let again = dbi.mark_dirty(13);
        assert!(!again.newly_dirty);
        assert_eq!(dbi.dirty_count(), 1);

        assert!(dbi.clear_dirty(13));
        assert!(!dbi.clear_dirty(13));
        assert!(!dbi.is_dirty(13));
        assert_eq!(dbi.dirty_count(), 0);
        assert!(!dbi.contains_row(8), "last bit cleared invalidates entry");
        dbi.assert_invariants();
    }

    #[test]
    fn row_query_lists_co_located_dirty_blocks() {
        let mut dbi = small();
        for b in [16, 19, 23] {
            dbi.mark_dirty(b);
        }
        dbi.mark_dirty(40); // different row
        let row: Vec<u64> = dbi.row_dirty_blocks(17).collect();
        assert_eq!(row, vec![16, 19, 23]);
        assert_eq!(dbi.row_dirty_blocks(0).count(), 0);
    }

    #[test]
    fn set_conflict_evicts_lrw_entry_with_writebacks() {
        let mut dbi = small();
        // Rows 0, 4, 8 all map to set 0 (4 sets). Ways = 2.
        dbi.mark_dirty(0); // row 0
        dbi.mark_dirty(1);
        dbi.mark_dirty(4 * 8 + 2); // row 4
        let out = dbi.mark_dirty(8 * 8 + 5); // row 8 -> evicts row 0 (LRW)
        let evicted = out.evicted.expect("eviction must occur");
        assert_eq!(evicted.row(), 0);
        assert_eq!(evicted.blocks(), &[0, 1]);
        assert!(!dbi.is_dirty(0), "evicted blocks are no longer dirty");
        assert!(!dbi.is_dirty(1));
        assert!(dbi.is_dirty(4 * 8 + 2));
        assert!(dbi.is_dirty(8 * 8 + 5));
        assert_eq!(dbi.stats().entry_evictions, 1);
        assert_eq!(dbi.stats().eviction_writebacks, 2);
        dbi.assert_invariants();
    }

    #[test]
    fn eviction_keeps_dirty_count_consistent() {
        let mut dbi = small();
        // Fill every set way and then force evictions.
        for row in 0..32u64 {
            dbi.mark_dirty(row * 8);
            dbi.assert_invariants();
        }
        assert!(dbi.dirty_count() <= dbi.config().tracked_blocks());
        assert_eq!(dbi.valid_entries(), 8);
    }

    #[test]
    fn flush_row_and_flush_all() {
        let mut dbi = small();
        dbi.mark_dirty(3);
        dbi.mark_dirty(9);
        dbi.mark_dirty(11);
        let flushed = dbi.flush_row(10).expect("row 1 resident");
        assert_eq!(flushed.blocks(), &[9, 11]);
        assert_eq!(dbi.dirty_count(), 1);
        assert!(dbi.flush_row(10).is_none());

        dbi.mark_dirty(50);
        let mut flushed: Vec<(u64, u64)> = Vec::new();
        dbi.flush_each(|row, block| flushed.push((row, block)));
        assert_eq!(flushed, vec![(0, 3), (6, 50)]);
        assert_eq!(dbi.dirty_count(), 0);
        assert_eq!(dbi.valid_entries(), 0);
        dbi.assert_invariants();
    }

    #[test]
    fn flush_each_orders_rows_and_blocks_ascending() {
        let mut dbi = small();
        // Rows 6, 1, 3 (inserted out of order), several blocks each.
        for &b in &[50u64, 48, 9, 11, 30, 25] {
            dbi.mark_dirty(b);
        }
        let mut flushed: Vec<(u64, u64)> = Vec::new();
        dbi.flush_each(|row, block| flushed.push((row, block)));
        assert_eq!(
            flushed,
            vec![(1, 9), (1, 11), (3, 25), (3, 30), (6, 48), (6, 50)]
        );
        // A second flush of the (now empty) index visits nothing.
        dbi.flush_each(|_, _| panic!("index is empty"));
    }

    #[test]
    fn dirty_blocks_iterator_matches_queries() {
        let mut dbi = small();
        // Rows 0, 0, 4, 4, 7 — at most two rows per set, so no evictions.
        let marked = [0u64, 7, 33, 34, 63];
        for &b in &marked {
            dbi.mark_dirty(b);
        }
        let mut listed: Vec<u64> = dbi.dirty_blocks().collect();
        listed.sort_unstable();
        let mut expect: Vec<u64> = marked.to_vec();
        expect.sort_unstable();
        assert_eq!(listed, expect);
        for &b in &marked {
            assert!(dbi.is_dirty(b));
        }
    }

    #[test]
    fn stats_track_events() {
        let mut dbi = small();
        dbi.mark_dirty(0);
        dbi.mark_dirty(0);
        dbi.mark_dirty(1);
        dbi.clear_dirty(1);
        let s = dbi.take_stats();
        assert_eq!(s.mark_requests, 3);
        assert_eq!(s.entry_hits, 2);
        assert_eq!(s.bits_set, 2);
        assert_eq!(s.entry_insertions, 1);
        assert_eq!(s.bits_cleared, 1);
        assert_eq!(s.entry_invalidations, 0);
        assert_eq!(*dbi.stats(), DbiStats::default(), "take_stats resets");
    }

    #[test]
    fn eviction_blocks_are_sorted_by_column() {
        let mut dbi = small();
        for b in [7u64, 0, 3] {
            dbi.mark_dirty(b);
        }
        dbi.mark_dirty(4 * 8);
        let out = dbi.mark_dirty(8 * 8);
        let evicted = out.evicted.unwrap();
        assert_eq!(evicted.blocks(), &[0, 3, 7]);
    }

    #[test]
    fn works_with_every_replacement_policy() {
        for policy in DbiReplacementPolicy::ALL {
            let config = DbiConfig::new(256, Alpha::QUARTER, 8, 2, policy).unwrap();
            let mut dbi = Dbi::new(config);
            for row in 0..64u64 {
                dbi.mark_dirty(row * 8 + (row % 8));
                dbi.assert_invariants();
            }
            assert!(dbi.dirty_count() > 0, "{policy}: retains dirty state");
        }
    }

    #[test]
    fn entries_report_rows_and_populations() {
        let mut dbi = small();
        dbi.mark_dirty(0);
        dbi.mark_dirty(1);
        dbi.mark_dirty(9);
        let mut entries: Vec<(u64, usize)> = dbi.entries().collect();
        entries.sort_unstable();
        assert_eq!(entries, vec![(0, 2), (1, 1)]);
    }

    #[test]
    fn snapshot_round_trips_through_fresh_dbi() {
        use crate::snap::{restore_bytes, snapshot_bytes, SnapError};
        for policy in DbiReplacementPolicy::ALL {
            let config = DbiConfig::new(256, Alpha::QUARTER, 8, 2, policy).unwrap();
            let mut dbi = Dbi::new(config);
            for b in 0..500u64 {
                dbi.mark_dirty(b.wrapping_mul(2_654_435_761) % 256);
            }
            dbi.clear_dirty(64);
            let bytes = snapshot_bytes(&dbi);
            let mut fresh = Dbi::new(config);
            restore_bytes(&mut fresh, &bytes).unwrap();
            fresh.assert_invariants();
            assert_eq!(fresh.dirty_count(), dbi.dirty_count());
            assert_eq!(fresh.stats(), dbi.stats());
            let mut a: Vec<u64> = dbi.dirty_blocks().collect();
            let mut b: Vec<u64> = fresh.dirty_blocks().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
            // Behaviour (including replacement decisions) continues
            // identically after restore.
            for blk in 500..700u64 {
                assert_eq!(
                    dbi.mark_dirty(blk % 256),
                    fresh.mark_dirty(blk % 256),
                    "{policy}: divergence after restore"
                );
            }
            // Restoring into mismatched geometry fails loudly.
            let other = DbiConfig::new(256, Alpha::QUARTER, 8, 1, policy).unwrap();
            let mut wrong = Dbi::new(other);
            assert!(matches!(
                restore_bytes(&mut wrong, &bytes),
                Err(SnapError::Mismatch { .. })
            ));
        }
    }

    #[test]
    fn capacity_limits_dirty_population() {
        // The DBI bounds dirty blocks to alpha * cache blocks (property 3 in
        // the paper's introduction).
        let mut dbi = small();
        for b in 0..10_000u64 {
            dbi.mark_dirty(b % 256);
        }
        assert!(dbi.dirty_count() <= 64);
        dbi.assert_invariants();
    }
}
