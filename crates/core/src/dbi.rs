//! The Dirty-Block Index structure.

use crate::config::DbiConfig;
use crate::replacement::PolicyState;
use crate::stats::DbiStats;
use crate::{BlockAddr, RowId};

/// Row tag of an invalid way. No block maps to it: a DBI only installs a
/// row for a block it marks, and [`Dbi::mark_dirty`] rejects the one block
/// that would (`BlockAddr::MAX` at granularity 1).
const INVALID: RowId = RowId::MAX;

/// Offsets of the set bits of a way's bit vector, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &word)| {
        (0..word.count_ones()).scan(word, move |rest, _| {
            let bit = rest.trailing_zeros() as usize;
            *rest &= *rest - 1;
            Some(i * 64 + bit)
        })
    })
}

/// Number of set bits in a way's bit vector.
fn population(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// The Dirty-Block Index: a small set-associative structure holding the
/// dirty bits of a writeback cache, organized by DRAM row.
///
/// Each entry is what the paper draws: a row tag and a `granularity`-bit
/// dirty vector. Both live in flat arrays sized once in [`Dbi::new`], so
/// nothing after construction allocates except the reused scratch list of
/// [`flush_each`](Dbi::flush_each).
///
/// See the [crate-level documentation](crate) for the semantics and a usage
/// example. All addresses are cache-block indices ([`BlockAddr`]); the row
/// of a block is `block / granularity`.
#[derive(Debug, Clone)]
pub struct Dbi {
    config: DbiConfig,
    /// Row tag of every way, set-major; [`INVALID`] marks an invalid way.
    rows: Vec<RowId>,
    /// Dirty bit vector of every way, `words` words each, in `rows` order.
    bits: Vec<u64>,
    /// `u64` words per way: ⌈granularity / 64⌉.
    words: usize,
    /// Replacement state of each set.
    policies: Vec<PolicyState>,
    dirty_blocks: u64,
    stats: DbiStats,
    /// Reused by [`flush_each`](Dbi::flush_each) so whole-index flushes
    /// allocate nothing after the first call.
    flush_scratch: Vec<(RowId, usize)>,
}

impl Dbi {
    /// Creates an empty DBI with the given geometry.
    #[must_use]
    pub fn new(config: DbiConfig) -> Self {
        let ways = config.sets() as usize * config.associativity();
        let words = config.granularity().div_ceil(64);
        Dbi {
            config,
            rows: vec![INVALID; ways],
            bits: vec![0; ways * words],
            words,
            policies: vec![
                PolicyState::new(config.policy(), config.associativity());
                config.sets() as usize
            ],
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
        (row % self.policies.len() as u64) as usize
    }

    /// Index of `set`'s first way in `rows`.
    fn set_base(&self, set: usize) -> usize {
        set * self.config.associativity()
    }

    /// Index of the way holding `row` in `rows`, if `set` holds it.
    fn find_way(&self, set: usize, row: RowId) -> Option<usize> {
        if row == INVALID {
            return None;
        }
        let base = self.set_base(set);
        self.rows[base..base + self.config.associativity()]
            .iter()
            .position(|&r| r == row)
            .map(|way| base + way)
    }

    fn way_words(&self, way: usize) -> &[u64] {
        &self.bits[way * self.words..(way + 1) * self.words]
    }

    /// Sets bit `offset` of `way`; returns whether it was clear.
    fn set_bit(&mut self, way: usize, offset: usize) -> bool {
        let word = &mut self.bits[way * self.words + offset / 64];
        let mask = 1u64 << (offset % 64);
        let newly = *word & mask == 0;
        *word |= mask;
        newly
    }

    /// Invalidates `way`, handing its dirty blocks to `sink` in ascending
    /// order; returns how many there were.
    fn take_way(&mut self, way: usize, mut sink: impl FnMut(BlockAddr)) -> u64 {
        let base = self.rows[way] * self.config.granularity() as u64;
        let words = &mut self.bits[way * self.words..(way + 1) * self.words];
        ones(words).for_each(|offset| sink(base + offset as u64));
        let count = population(words) as u64;
        words.fill(0);
        self.rows[way] = INVALID;
        count
    }

    /// What is wrong with `way` on its own, if anything: an invalid way
    /// with dirty bits, an entry in another row's set, a valid way with no
    /// dirty bits, or a bit at or past the granularity.
    fn way_fault(&self, way: usize) -> Option<String> {
        let (row, words) = (self.rows[way], self.way_words(way));
        let set = way / self.config.associativity();
        if row == INVALID {
            (population(words) > 0).then(|| format!("invalid DBI way {way} has dirty bits"))
        } else if self.set_index(row) != set {
            Some(format!("DBI entry for row {row} sits in set {set}"))
        } else if population(words) == 0 {
            Some(format!("valid DBI entry for row {row} has no dirty bits"))
        } else if ones(words).any(|o| o >= self.config.granularity()) {
            Some(format!(
                "DBI entry for row {row} has a bit past the granularity"
            ))
        } else {
            None
        }
    }

    /// Marks `block` dirty, the DBI side of a writeback request arriving at
    /// the cache (paper Section 2.2.2). Returns whether the block
    /// transitioned clean → dirty.
    ///
    /// If the block's row has no entry and its set is full, a victim entry
    /// is evicted and the blocks whose writebacks the eviction forces are
    /// appended to `writebacks` in ascending order — already sorted by
    /// column, the access order a DRAM-aware writeback burst wants. Per the
    /// paper (Section 2.2.4) the cache blocks themselves stay resident and
    /// merely transition from dirty to clean.
    ///
    /// # Panics
    ///
    /// Panics if `block` maps to the reserved invalid row tag
    /// (`BlockAddr::MAX` at granularity 1).
    pub fn mark_dirty(&mut self, block: BlockAddr, writebacks: &mut Vec<BlockAddr>) -> bool {
        self.stats.mark_requests += 1;
        let row = self.row_of(block);
        let offset = self.offset_of(block);
        let set = self.set_index(row);
        let base = self.set_base(set);

        if let Some(way) = self.find_way(set, row) {
            self.stats.entry_hits += 1;
            let newly = self.set_bit(way, offset);
            if newly {
                self.stats.bits_set += 1;
                self.dirty_blocks += 1;
            }
            self.policies[set].on_write_hit(way - base);
            return newly;
        }

        // Row miss: install a new entry, evicting if the set is full.
        assert_ne!(row, INVALID, "block {block} maps to the invalid row tag");
        let ways = self.config.associativity();
        let way = match self.rows[base..base + ways]
            .iter()
            .position(|&r| r == INVALID)
        {
            Some(free) => base + free,
            None => {
                let (bits, words) = (&self.bits, self.words);
                let victim = base
                    + self.policies[set].victim_from(0..ways, |w| {
                        population(&bits[(base + w) * words..(base + w + 1) * words])
                    });
                let count = self.take_way(victim, |b| writebacks.push(b));
                self.stats.entry_evictions += 1;
                self.stats.eviction_writebacks += count;
                self.dirty_blocks -= count;
                victim
            }
        };
        self.rows[way] = row;
        self.set_bit(way, offset);
        self.policies[set].on_insert(way - base);
        self.stats.entry_insertions += 1;
        self.stats.bits_set += 1;
        self.dirty_blocks += 1;
        true
    }

    /// Returns whether `block` is dirty — the query every optimization in
    /// the paper leans on. Much cheaper than a tag-store lookup in hardware;
    /// here, a single set probe.
    #[must_use]
    pub fn is_dirty(&self, block: BlockAddr) -> bool {
        let row = self.row_of(block);
        let offset = self.offset_of(block);
        self.find_way(self.set_index(row), row)
            .is_some_and(|way| self.bits[way * self.words + offset / 64] >> (offset % 64) & 1 == 1)
    }

    /// Clears `block`'s dirty bit (cache eviction of a dirty block, or a
    /// proactive writeback). Returns whether the bit was set.
    ///
    /// If this was the entry's last dirty block, the entry is invalidated so
    /// it can track another row (paper Section 2.2.3).
    pub fn clear_dirty(&mut self, block: BlockAddr) -> bool {
        let row = self.row_of(block);
        let offset = self.offset_of(block);
        let Some(way) = self.find_way(self.set_index(row), row) else {
            return false;
        };
        let word = &mut self.bits[way * self.words + offset / 64];
        let mask = 1u64 << (offset % 64);
        if *word & mask == 0 {
            return false;
        }
        *word &= !mask;
        self.stats.bits_cleared += 1;
        self.dirty_blocks -= 1;
        if self.way_words(way).iter().all(|&w| w == 0) {
            self.rows[way] = INVALID;
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
        let base = row * self.config.granularity() as u64;
        let words = self
            .find_way(self.set_index(row), row)
            .map_or(&[][..], |way| self.way_words(way));
        ones(words).map(move |o| base + o as u64)
    }

    /// Removes the entry covering `block`'s row, appending the writebacks
    /// it forces to `writebacks` in ascending order. Returns whether the
    /// row had an entry. Used for flush-style operations (DMA coherence,
    /// power-down flushes — paper Section 7).
    pub fn flush_row(&mut self, block: BlockAddr, writebacks: &mut Vec<BlockAddr>) -> bool {
        let row = self.row_of(block);
        let Some(way) = self.find_way(self.set_index(row), row) else {
            return false;
        };
        self.dirty_blocks -= self.take_way(way, |b| writebacks.push(b));
        self.stats.entry_invalidations += 1;
        true
    }

    /// Flushes the whole index, invoking `sink` once per dirty block — rows
    /// in ascending order, blocks ascending within each row, exactly the
    /// order a whole-cache flush wants to drain writebacks in. Unlike a
    /// collected result, the visitor allocates nothing per call (an internal
    /// scratch list is reused across flushes).
    pub fn flush_each(&mut self, mut sink: impl FnMut(RowId, BlockAddr)) {
        let mut scratch = std::mem::take(&mut self.flush_scratch);
        scratch.clear();
        scratch.extend(self.valid_ways());
        scratch.sort_unstable_by_key(|&(row, _)| row);
        for &(row, way) in &scratch {
            self.take_way(way, |block| sink(row, block));
        }
        self.dirty_blocks = 0;
        self.flush_scratch = scratch;
    }

    /// The valid ways as `(row, index in rows)` pairs, set-major.
    fn valid_ways(&self) -> impl Iterator<Item = (RowId, usize)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .filter(|&(_, &row)| row != INVALID)
            .map(|(way, &row)| (row, way))
    }

    /// Iterates over every dirty block currently tracked, in no particular
    /// order. Intended for functional checking and debugging.
    pub fn dirty_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        let granularity = self.config.granularity() as u64;
        self.valid_ways().flat_map(move |(row, way)| {
            ones(self.way_words(way)).map(move |o| row * granularity + o as u64)
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
        self.valid_ways().count() as u64
    }

    /// Iterates over the valid entries as `(row, dirty-block count)` pairs,
    /// in no particular order — occupancy introspection for debugging and
    /// reporting.
    pub fn entries(&self) -> impl Iterator<Item = (RowId, usize)> + '_ {
        self.valid_ways()
            .map(|(row, way)| (row, population(self.way_words(way))))
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
    /// Panics if a valid entry has an empty bit vector, an invalid way or a
    /// bit past the granularity holds a set bit, a set holds two entries
    /// for one row, an entry sits in the wrong set, or the cached dirty
    /// count disagrees with the per-entry population.
    pub fn assert_invariants(&self) {
        let ways = self.config.associativity();
        let mut total = 0u64;
        for (way, &row) in self.rows.iter().enumerate() {
            if let Some(fault) = self.way_fault(way) {
                panic!("{fault}");
            }
            assert!(
                row == INVALID || !self.rows[way - way % ways..way].contains(&row),
                "duplicate DBI entry for row {row}"
            );
            total += population(self.way_words(way)) as u64;
        }
        assert_eq!(total, self.dirty_blocks, "dirty-count cache out of sync");
        assert!(
            self.dirty_blocks <= self.config.tracked_blocks(),
            "DBI tracks more dirty blocks than its capacity"
        );
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

    /// Marks `block`, returning whether it was newly dirty and the
    /// writebacks the mark forced.
    fn mark(dbi: &mut Dbi, block: BlockAddr) -> (bool, Vec<BlockAddr>) {
        let mut writebacks = Vec::new();
        let newly = dbi.mark_dirty(block, &mut writebacks);
        (newly, writebacks)
    }

    #[test]
    fn semantics_mark_query_clear() {
        let mut dbi = small();
        assert!(!dbi.is_dirty(13));
        assert_eq!(mark(&mut dbi, 13), (true, vec![]));
        assert!(dbi.is_dirty(13));
        assert!(!dbi.is_dirty(12), "neighbour in same row stays clean");
        assert!(dbi.contains_row(8), "row 1 covers blocks 8..16");

        assert_eq!(mark(&mut dbi, 13), (false, vec![]));
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
        for b in [16, 19, 23, 40] {
            mark(&mut dbi, b); // 40 is in a different row
        }
        let row: Vec<u64> = dbi.row_dirty_blocks(17).collect();
        assert_eq!(row, vec![16, 19, 23]);
        assert_eq!(dbi.row_dirty_blocks(0).count(), 0);
    }

    #[test]
    fn set_conflict_evicts_lrw_entry_with_writebacks() {
        let mut dbi = small();
        // Rows 0, 4, 8 all map to set 0 (4 sets). Ways = 2.
        mark(&mut dbi, 0); // row 0
        mark(&mut dbi, 1);
        mark(&mut dbi, 4 * 8 + 2); // row 4
                                   // Row 8 evicts row 0 (LRW); the writebacks land after what the
                                   // caller's vector already holds.
        let mut writebacks = vec![99];
        assert!(dbi.mark_dirty(8 * 8 + 5, &mut writebacks));
        assert_eq!(writebacks, [99, 0, 1]);
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
            mark(&mut dbi, row * 8);
            dbi.assert_invariants();
        }
        assert!(dbi.dirty_count() <= dbi.config().tracked_blocks());
        assert_eq!(dbi.valid_entries(), 8);
    }

    #[test]
    fn flush_row_and_flush_all() {
        let mut dbi = small();
        for b in [3, 9, 11] {
            mark(&mut dbi, b);
        }
        let mut flushed = Vec::new();
        assert!(dbi.flush_row(10, &mut flushed), "row 1 resident");
        assert_eq!(flushed, [9, 11]);
        assert_eq!(dbi.dirty_count(), 1);
        assert!(!dbi.flush_row(10, &mut flushed));
        assert_eq!(flushed, [9, 11], "a missing row appends nothing");

        mark(&mut dbi, 50);
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
            mark(&mut dbi, b);
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
            mark(&mut dbi, b);
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
        for b in [0, 0, 1] {
            mark(&mut dbi, b);
        }
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
        for b in [7u64, 0, 3, 4 * 8] {
            mark(&mut dbi, b);
        }
        assert_eq!(mark(&mut dbi, 8 * 8), (true, vec![0, 3, 7]));
    }

    #[test]
    fn multi_word_rows_keep_bits_in_their_words() {
        // Granularity 128: two words per way; bits 63, 64 and 127 straddle
        // the word boundary.
        let config =
            DbiConfig::new(2048, Alpha::QUARTER, 128, 2, DbiReplacementPolicy::Lrw).unwrap();
        let mut dbi = Dbi::new(config);
        for b in [128 + 127, 128 + 64, 128 + 63, 128] {
            mark(&mut dbi, b);
        }
        assert!(!dbi.is_dirty(128 + 65));
        let row: Vec<u64> = dbi.row_dirty_blocks(128).collect();
        assert_eq!(row, [128, 128 + 63, 128 + 64, 128 + 127]);
        assert_eq!(dbi.entries().collect::<Vec<_>>(), [(1, 4)]);
        assert!(dbi.clear_dirty(128 + 64));
        dbi.assert_invariants();
        let mut flushed = Vec::new();
        assert!(dbi.flush_row(128, &mut flushed));
        assert_eq!(flushed, [128, 128 + 63, 128 + 127]);
        dbi.assert_invariants();
    }

    #[test]
    fn works_with_every_replacement_policy() {
        for policy in DbiReplacementPolicy::ALL {
            let config = DbiConfig::new(256, Alpha::QUARTER, 8, 2, policy).unwrap();
            let mut dbi = Dbi::new(config);
            for row in 0..64u64 {
                mark(&mut dbi, row * 8 + (row % 8));
                dbi.assert_invariants();
            }
            assert!(dbi.dirty_count() > 0, "{policy}: retains dirty state");
        }
    }

    #[test]
    fn entries_report_rows_and_populations() {
        let mut dbi = small();
        for b in [0, 1, 9] {
            mark(&mut dbi, b);
        }
        let mut entries: Vec<(u64, usize)> = dbi.entries().collect();
        entries.sort_unstable();
        assert_eq!(entries, vec![(0, 2), (1, 1)]);
    }

    #[test]
    fn capacity_limits_dirty_population() {
        // The DBI bounds dirty blocks to alpha * cache blocks (property 3 in
        // the paper's introduction).
        let mut dbi = small();
        for b in 0..10_000u64 {
            mark(&mut dbi, b % 256);
        }
        assert!(dbi.dirty_count() <= 64);
        dbi.assert_invariants();
    }
}
