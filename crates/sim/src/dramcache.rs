//! A mostly-clean DRAM cache with DBI-backed self-balancing dispatch
//! (paper Section 7, "Load Balancing Memory Accesses").
//!
//! Sim et al. (MICRO 2012) balance read traffic between a die-stacked DRAM
//! cache and off-chip memory: when the off-chip channel is idle, a read
//! that hits the DRAM cache can be *dispatched off-chip anyway*, using
//! otherwise-wasted bandwidth and keeping the DRAM cache free for other
//! requests. Two pieces of state make this safe and profitable, and the
//! original design pays for them with a counting Bloom filter plus a
//! dirty-page cache:
//!
//! 1. a block may be dispatched off-chip **only if it is clean** in the
//!    DRAM cache (off-chip data would be stale otherwise), and
//! 2. keeping the cache *mostly clean* — writing back heavily-written
//!    pages eagerly — maximizes the dispatchable fraction.
//!
//! The DBI paper's observation: a DBI "can seamlessly serve both purposes"
//! — its dirty bits answer (1) exactly, and its LRW replacement naturally
//! identifies write-heavy rows for (2). This module implements that
//! design: a block-granularity DRAM cache whose dirty state lives in a
//! [`Dbi`], with a dispatch policy driven by channel occupancy and DBI
//! queries.

use std::collections::VecDeque;

use cache_sim::{Cache, CacheConfig, InsertPos};
use dbi::{ContainerPolicy, Dbi, DbiConfig, DirtyContainer, DirtyStore, ReprCensus, RowId};
use dram_sim::MemoryController;

use crate::system::assert_tags_reach;

/// Width of the physical addresses a DRAM cache serves: the 40 bits the
/// Table 4 storage model prices tags with.
const PHYS_ADDR_BITS: u32 = 40;

/// The highest block of the physical address space, for `block_bytes`.
fn highest_phys_block(block_bytes: u32) -> u64 {
    (1 << (PHYS_ADDR_BITS - block_bytes.ilog2())) - 1
}

/// Configuration of the [`MostlyCleanDramCache`].
#[derive(Debug, Clone)]
pub struct DramCacheConfig {
    /// DRAM-cache capacity in bytes (die-stacked DRAM is tens to hundreds
    /// of MB).
    pub capacity_bytes: u64,
    /// Associativity of the (SRAM-tag) DRAM cache.
    pub ways: usize,
    /// Cache block size in bytes.
    pub block_bytes: u32,
    /// Access latency of the DRAM cache, CPU cycles (faster than off-chip,
    /// slower than SRAM).
    pub hit_latency: u64,
    /// Cycles one access occupies the DRAM-cache channel.
    pub occupancy: u64,
    /// DBI geometry for the cache's dirty state.
    pub dbi: DbiConfig,
}

impl DramCacheConfig {
    /// A 64 MB die-stacked cache with the paper-default DBI sizing.
    ///
    /// # Panics
    ///
    /// Never for these constants (valid geometry by construction).
    #[must_use]
    pub fn stacked_64mb() -> Self {
        let capacity_bytes: u64 = 64 * 1024 * 1024;
        let blocks = capacity_bytes / 64;
        DramCacheConfig {
            capacity_bytes,
            ways: 16,
            block_bytes: 64,
            hit_latency: 90,
            occupancy: 12,
            dbi: DbiConfig::for_cache_blocks(blocks).expect("valid geometry"),
        }
    }
}

/// Where a read was serviced from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Hit in the DRAM cache, served there.
    DramCache,
    /// Present and clean in the DRAM cache, but the off-chip channel was
    /// idle — served off-chip to balance load.
    BalancedOffChip,
    /// Not present: served off-chip (and filled).
    MissOffChip,
}

/// Counters for the [`MostlyCleanDramCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct DramCacheStats {
    /// Reads served by the DRAM cache.
    pub cache_hits: u64,
    /// Clean hits deliberately dispatched off-chip.
    pub balanced_dispatches: u64,
    /// Misses served off-chip.
    pub misses: u64,
    /// Dirty hits that *had* to stay on the cache (dispatch blocked by the
    /// DBI).
    pub dirty_pins: u64,
    /// Writebacks generated by DBI evictions (the eager cleaning that
    /// keeps the cache mostly clean).
    pub eager_cleans: u64,
}

/// A die-stacked DRAM cache kept mostly clean by its DBI.
#[derive(Debug)]
pub struct MostlyCleanDramCache {
    tags: Cache,
    dbi: Dbi,
    hit_latency: u64,
    occupancy: u64,
    /// Next cycle the DRAM-cache channel is free.
    channel_free: u64,
    stats: DramCacheStats,
}

impl MostlyCleanDramCache {
    /// Creates an empty DRAM cache.
    ///
    /// # Panics
    ///
    /// Panics on degenerate cache geometry, or if its 32-bit tags do not
    /// reach every block of the 40-bit physical address space.
    #[must_use]
    pub fn new(config: &DramCacheConfig) -> Self {
        let tags = Cache::new(
            CacheConfig::new(config.capacity_bytes, config.ways, config.block_bytes)
                .expect("valid DRAM-cache geometry"),
        );
        assert_tags_reach(
            "DRAM cache",
            tags.config(),
            highest_phys_block(config.block_bytes),
        );
        MostlyCleanDramCache {
            tags,
            dbi: Dbi::new(config.dbi),
            hit_latency: config.hit_latency,
            occupancy: config.occupancy,
            channel_free: 0,
            stats: DramCacheStats::default(),
        }
    }

    /// Services a read of `block` at `now`, choosing between the DRAM
    /// cache and the off-chip controller. Returns the completion cycle and
    /// where the data came from.
    pub fn read(
        &mut self,
        block: u64,
        now: u64,
        offchip: &mut MemoryController,
    ) -> (u64, Dispatch) {
        if self.tags.touch(block) {
            // Present. Dirty blocks must be served here (off-chip is
            // stale); clean blocks may be dispatched off-chip when that
            // channel is idle and ours is busy — the self-balancing rule.
            let dirty = self.dbi.is_dirty(block);
            let cache_busy = self.channel_free > now;
            let offchip_idle = offchip.channel_free_at() <= now;
            if !dirty && cache_busy && offchip_idle {
                self.stats.balanced_dispatches += 1;
                return (offchip.read(block, now), Dispatch::BalancedOffChip);
            }
            if dirty {
                self.stats.dirty_pins += 1;
            }
            self.stats.cache_hits += 1;
            let start = now.max(self.channel_free);
            self.channel_free = start + self.occupancy;
            return (start + self.hit_latency, Dispatch::DramCache);
        }
        // Miss: fetch off-chip and fill (clean).
        self.stats.misses += 1;
        let done = offchip.read(block, now);
        if let Some(victim) = self.tags.insert(block, 0, InsertPos::Mru, false) {
            if self.dbi.clear_dirty(victim.block) {
                offchip.enqueue_write(victim.block, done);
            }
        }
        (done, Dispatch::MissOffChip)
    }

    /// Absorbs a write of `block` at `now`, marking it dirty in the DBI.
    /// DBI evictions eagerly clean whole rows to off-chip memory — this is
    /// what keeps the cache "mostly clean" and the dispatcher free.
    pub fn write(&mut self, block: u64, now: u64, offchip: &mut MemoryController) {
        if !self.tags.touch(block) {
            if let Some(victim) = self.tags.insert(block, 0, InsertPos::Mru, false) {
                if self.dbi.clear_dirty(victim.block) {
                    offchip.enqueue_write(victim.block, now);
                }
            }
        }
        let outcome = self.dbi.mark_dirty(block);
        for &b in outcome.writebacks() {
            offchip.enqueue_write(b, now);
            self.stats.eager_cleans += 1;
        }
        let start = now.max(self.channel_free);
        self.channel_free = start + self.occupancy;
    }

    /// Fraction of resident blocks that are clean (the "mostly clean"
    /// property the dispatcher depends on).
    #[must_use]
    pub fn clean_fraction(&self) -> f64 {
        let resident = self.tags.resident();
        if resident == 0 {
            return 1.0;
        }
        1.0 - self.dbi.dirty_count() as f64 / resident as f64
    }

    /// The DBI holding the cache's dirty state.
    #[must_use]
    pub fn dbi(&self) -> &Dbi {
        &self.dbi
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> &DramCacheStats {
        &self.stats
    }
}

// ---------------------------------------------------------------------------
// GbDramCache: the GB-scale scenario on adaptive dirty containers.
// ---------------------------------------------------------------------------

/// Geometry of a [`GbDramCache`].
///
/// At GB scale, per-block SRAM metadata is the cost problem: an 8 GB cache
/// of 64 B blocks has 128 Mi blocks and a million 8 KB rows. This scenario
/// keeps *exact* presence and dirty metadata for every resident row in
/// adaptive [`DirtyContainer`]s (dense words only where the row is actually
/// hot) and models the tag array with a 1-in-`sample_every` set sample —
/// the only structure whose cost still scales with capacity.
#[derive(Debug, Clone)]
pub struct GbCacheConfig {
    /// Cache capacity in bytes.
    pub capacity_bytes: u64,
    /// Cache block size in bytes.
    pub block_bytes: u32,
    /// Blocks per DRAM row (the container length; at most
    /// [`dbi::MAX_BITS`]).
    pub row_blocks: usize,
    /// One in `sample_every` rows carries real tags for hit-rate sampling.
    pub sample_every: u64,
    /// Associativity of the sampled tag sets.
    pub ways: usize,
    /// Container policy for the presence and dirty metadata.
    pub policy: ContainerPolicy,
}

impl GbCacheConfig {
    /// A `gigabytes`-sized cache of 8 KB rows (64 B × 128 blocks) with a
    /// 1-in-64 tag sample — 8 GB puts it at the million-row scale.
    ///
    /// # Panics
    ///
    /// Never for these constants (valid geometry by construction).
    #[must_use]
    pub fn gb(gigabytes: u64) -> Self {
        GbCacheConfig {
            capacity_bytes: gigabytes << 30,
            block_bytes: 64,
            row_blocks: 128,
            sample_every: 64,
            ways: 16,
            policy: ContainerPolicy::Adaptive,
        }
    }

    /// Same geometry with a different container policy (for the
    /// dense-only / sparse-only / adaptive comparison).
    #[must_use]
    pub fn with_policy(mut self, policy: ContainerPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Row capacity: how many rows fit before eviction starts.
    #[must_use]
    pub fn capacity_rows(&self) -> u64 {
        self.capacity_bytes / (u64::from(self.block_bytes) * self.row_blocks as u64)
    }
}

/// Counters for a [`GbDramCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct GbCacheStats {
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Accesses that found their block resident.
    pub hits: u64,
    /// Accesses that filled their block.
    pub fills: u64,
    /// Rows made resident.
    pub row_fills: u64,
    /// Rows evicted at capacity.
    pub row_evictions: u64,
    /// Dirty blocks written back by row evictions and flushes.
    pub writebacks: u64,
    /// Lookups that fell in a sampled tag set.
    pub sampled_lookups: u64,
    /// Sampled lookups that hit in the sampled tag array.
    pub sampled_hits: u64,
}

/// A GB-scale DRAM cache: full-scale presence/dirty metadata on adaptive
/// containers, sampled tags, FIFO row replacement.
///
/// Rows (not blocks) are the allocation unit, as in sector/footprint DRAM
/// caches: the first access to a row makes it resident, capacity evicts
/// the oldest resident row, and evicting a row writes back exactly its
/// dirty blocks — which the row's [`DirtyContainer`] enumerates without
/// touching any tag state. Queries go through [`GbDramCache::dirty`], the
/// same typed-view idiom as `Cache::dirty`.
#[derive(Debug)]
pub struct GbDramCache {
    row_blocks: u64,
    sample_every: u64,
    capacity_rows: u64,
    /// Presence bit per resident block, keyed by row.
    presence: DirtyStore,
    /// Dirty bit per resident block, keyed by row.
    dirty: DirtyStore,
    /// Resident rows in fill order (the FIFO replacement state).
    fifo: VecDeque<RowId>,
    /// Real tags for the sampled rows, at `1/sample_every` scale.
    tags: Cache,
    stats: GbCacheStats,
}

impl GbDramCache {
    /// Creates an empty GB-scale cache.
    ///
    /// # Panics
    ///
    /// Panics if `row_blocks` is out of container range, `sample_every`
    /// is zero, the capacity is not a whole number of rows, or the
    /// sampled tag geometry is degenerate or its 32-bit tags do not reach
    /// every block of the 40-bit physical address space (a sampled tag
    /// address is never above the block it stands for).
    #[must_use]
    pub fn new(config: &GbCacheConfig) -> Self {
        assert!(config.sample_every > 0, "sample_every must be nonzero");
        assert!(
            config.capacity_bytes
                == config.capacity_rows()
                    * u64::from(config.block_bytes)
                    * config.row_blocks as u64,
            "capacity must be a whole number of rows"
        );
        let sampled_capacity = config.capacity_bytes / config.sample_every;
        let tags = Cache::new(
            CacheConfig::new(sampled_capacity, config.ways, config.block_bytes)
                .expect("valid sampled tag geometry"),
        );
        assert_tags_reach(
            "sampled DRAM-cache",
            tags.config(),
            highest_phys_block(config.block_bytes),
        );
        GbDramCache {
            row_blocks: config.row_blocks as u64,
            sample_every: config.sample_every,
            capacity_rows: config.capacity_rows(),
            presence: DirtyStore::new(config.row_blocks, config.policy),
            dirty: DirtyStore::new(config.row_blocks, config.policy),
            fifo: VecDeque::new(),
            tags,
            stats: GbCacheStats::default(),
        }
    }

    /// DRAM row of `block`.
    #[must_use]
    pub fn row_of(&self, block: u64) -> RowId {
        block / self.row_blocks
    }

    fn is_sampled(&self, row: RowId) -> bool {
        row.is_multiple_of(self.sample_every)
    }

    /// Makes `block` resident (if it was not), evicting the oldest row
    /// when the fill pushes residency past capacity. `writeback` receives
    /// the dirty blocks of evicted rows, ascending.
    fn fill(&mut self, block: u64, mut writeback: impl FnMut(u64)) -> bool {
        let row = self.row_of(block);
        let new_row = !self.presence.contains_row(block);
        if !self.presence.mark(block) {
            return false;
        }
        self.stats.fills += 1;
        if new_row {
            self.stats.row_fills += 1;
            self.fifo.push_back(row);
            while self.fifo.len() as u64 > self.capacity_rows {
                let victim = self.fifo.pop_front().expect("fifo non-empty");
                self.stats.row_evictions += 1;
                self.presence.drain_row(victim, |_| {});
                self.stats.writebacks += self.dirty.drain_row(victim, &mut writeback);
            }
        }
        true
    }

    fn sample(&mut self, block: u64, write: bool) {
        if !self.is_sampled(self.row_of(block)) {
            return;
        }
        // The sampled tag array sees its rows at 1/sample_every density:
        // compress the address so sampled rows pack its sets the way all
        // rows would pack a full-scale tag array.
        let compressed =
            self.row_of(block) / self.sample_every * self.row_blocks + block % self.row_blocks;
        self.stats.sampled_lookups += 1;
        if self.tags.touch(compressed) {
            self.stats.sampled_hits += 1;
            if write {
                self.tags.mark_dirty(compressed, true);
            }
        } else {
            self.tags.insert(compressed, 0, InsertPos::Mru, write);
        }
    }

    /// Services a read of `block`, filling it on a miss. Returns whether
    /// it hit; `writeback` receives dirty blocks of any row evicted by the
    /// fill.
    pub fn read(&mut self, block: u64, writeback: impl FnMut(u64)) -> bool {
        self.stats.reads += 1;
        self.sample(block, false);
        let hit = self.presence.is_dirty(block);
        if hit {
            self.stats.hits += 1;
        } else {
            self.fill(block, writeback);
        }
        hit
    }

    /// Absorbs a write of `block` (write-allocate), marking it dirty.
    /// Returns whether it hit; `writeback` receives dirty blocks of any
    /// row evicted by the fill.
    pub fn write(&mut self, block: u64, writeback: impl FnMut(u64)) -> bool {
        self.stats.writes += 1;
        self.sample(block, true);
        let hit = self.presence.is_dirty(block);
        if hit {
            self.stats.hits += 1;
        } else {
            self.fill(block, writeback);
        }
        self.dirty.mark(block);
        hit
    }

    /// Writes back every dirty block — rows ascending, blocks ascending
    /// within each row — leaving the cache resident but clean. Returns the
    /// number written.
    pub fn flush(&mut self, mut writeback: impl FnMut(u64)) -> u64 {
        let mut written = 0;
        self.dirty.drain_all(|_row, b| {
            written += 1;
            writeback(b);
        });
        self.stats.writebacks += written;
        written
    }

    /// The typed dirty-query view (same idiom as `Cache::dirty`).
    #[must_use]
    pub fn dirty(&self) -> GbDirtyView<'_> {
        GbDirtyView { cache: self }
    }

    /// Resident rows.
    #[must_use]
    pub fn resident_rows(&self) -> u64 {
        self.fifo.len() as u64
    }

    /// Modeled metadata bytes: presence plus dirty containers. This is the
    /// figure-of-merit the container policies compete on.
    #[must_use]
    pub fn metadata_bytes(&self) -> u64 {
        self.presence.metadata_bytes() + self.dirty.metadata_bytes()
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> &GbCacheStats {
        &self.stats
    }

    /// Checks presence/dirty/FIFO synchronization.
    ///
    /// # Panics
    ///
    /// Panics if a dirty block is not present, a FIFO row is not resident,
    /// or a resident row is not in the FIFO.
    pub fn assert_invariants(&self) {
        assert_eq!(
            self.fifo.len() as u64,
            self.presence.row_count(),
            "FIFO and presence disagree on resident rows"
        );
        for &row in &self.fifo {
            assert!(
                self.presence.row(row).is_some(),
                "FIFO row {row} has no presence container"
            );
        }
        for (row, container) in self.dirty.rows() {
            let present = self
                .presence
                .row(row)
                .unwrap_or_else(|| panic!("dirty row {row} is not resident"));
            for offset in container.iter_ones() {
                assert!(
                    present.get(offset),
                    "dirty block at row {row} offset {offset} is not present"
                );
            }
        }
    }
}

/// Read-only view over a [`GbDramCache`]'s dirty metadata — the GB-scale
/// analogue of `cache_sim::DirtyView`.
#[derive(Debug, Clone, Copy)]
pub struct GbDirtyView<'a> {
    cache: &'a GbDramCache,
}

impl<'a> GbDirtyView<'a> {
    /// Dirty bit of `block`; `None` if the block is not resident.
    #[must_use]
    pub fn is_dirty(&self, block: u64) -> Option<bool> {
        self.cache
            .presence
            .is_dirty(block)
            .then(|| self.cache.dirty.is_dirty(block))
    }

    /// The dirty container of `row`, if any of its blocks is dirty.
    #[must_use]
    pub fn row(&self, row: RowId) -> Option<&'a DirtyContainer> {
        self.cache.dirty.row(row)
    }

    /// Number of dirty blocks.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.cache.dirty.dirty_count()
    }

    /// Rows holding at least one dirty block.
    #[must_use]
    pub fn row_count(&self) -> u64 {
        self.cache.dirty.row_count()
    }

    /// Iterates every dirty block, ascending.
    pub fn blocks(&self) -> impl Iterator<Item = u64> + 'a {
        self.cache.dirty.blocks()
    }

    /// Representation census of the dirty containers.
    #[must_use]
    pub fn census(&self) -> ReprCensus {
        self.cache.dirty.repr_census()
    }
}

impl dbi::snap::Snapshot for GbCacheStats {
    fn snapshot(&self, w: &mut dbi::snap::SnapWriter) {
        let GbCacheStats {
            reads,
            writes,
            hits,
            fills,
            row_fills,
            row_evictions,
            writebacks,
            sampled_lookups,
            sampled_hits,
        } = *self;
        for x in [
            reads,
            writes,
            hits,
            fills,
            row_fills,
            row_evictions,
            writebacks,
            sampled_lookups,
            sampled_hits,
        ] {
            w.u64(x);
        }
    }

    fn restore(&mut self, r: &mut dbi::snap::SnapReader<'_>) -> Result<(), dbi::snap::SnapError> {
        self.reads = r.u64()?;
        self.writes = r.u64()?;
        self.hits = r.u64()?;
        self.fills = r.u64()?;
        self.row_fills = r.u64()?;
        self.row_evictions = r.u64()?;
        self.writebacks = r.u64()?;
        self.sampled_lookups = r.u64()?;
        self.sampled_hits = r.u64()?;
        Ok(())
    }
}

impl dbi::snap::Snapshot for GbDramCache {
    fn snapshot(&self, w: &mut dbi::snap::SnapWriter) {
        self.presence.snapshot(w);
        self.dirty.snapshot(w);
        w.usize(self.fifo.len());
        for &row in &self.fifo {
            w.u64(row);
        }
        self.tags.snapshot(w);
        self.stats.snapshot(w);
    }

    fn restore(&mut self, r: &mut dbi::snap::SnapReader<'_>) -> Result<(), dbi::snap::SnapError> {
        use dbi::snap::SnapError;
        self.presence.restore(r)?;
        self.dirty.restore(r)?;
        let n = r.usize()?;
        if n as u64 != self.presence.row_count() {
            return Err(SnapError::Corrupt(format!(
                "FIFO holds {n} rows but presence holds {}",
                self.presence.row_count()
            )));
        }
        self.fifo.clear();
        let mut seen = std::collections::HashSet::with_capacity(n);
        for _ in 0..n {
            let row = r.u64()?;
            if self.presence.row(row).is_none() {
                return Err(SnapError::Corrupt(format!(
                    "FIFO row {row} has no presence container"
                )));
            }
            if !seen.insert(row) {
                return Err(SnapError::Corrupt(format!("FIFO row {row} duplicated")));
            }
            self.fifo.push_back(row);
        }
        self.tags.restore(r)?;
        self.stats.restore(r)?;
        // Cross-structure validation: dirty ⊆ presence.
        for (row, container) in self.dirty.rows() {
            let Some(present) = self.presence.row(row) else {
                return Err(SnapError::Corrupt(format!(
                    "dirty row {row} is not resident"
                )));
            };
            if container.iter_ones().any(|offset| !present.get(offset)) {
                return Err(SnapError::Corrupt(format!(
                    "dirty block in row {row} is not present"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::DramConfig;

    fn setup() -> (MostlyCleanDramCache, MemoryController) {
        let mut config = DramCacheConfig::stacked_64mb();
        // Shrink for tests: 64 KB cache, DBI alpha 1/4, and a hit latency
        // clearly below the *unloaded* off-chip latency so the hit/miss
        // contrast is visible in a two-access test.
        config.capacity_bytes = 64 * 1024;
        config.hit_latency = 40;
        config.dbi = DbiConfig::for_cache_blocks(1024).expect("valid");
        (
            MostlyCleanDramCache::new(&config),
            MemoryController::new(DramConfig::ddr3_1066()),
        )
    }

    #[test]
    fn miss_fill_hit_cycle() {
        let (mut dc, mut mem) = setup();
        let (t1, d1) = dc.read(5, 0, &mut mem);
        assert_eq!(d1, Dispatch::MissOffChip);
        let (t2, d2) = dc.read(5, t1, &mut mem);
        assert_eq!(d2, Dispatch::DramCache);
        assert!(t2 - t1 < t1, "cache hit must be faster than the miss");
        assert_eq!(dc.stats().cache_hits, 1);
        assert_eq!(dc.stats().misses, 1);
    }

    #[test]
    fn dirty_blocks_are_never_dispatched_off_chip() {
        let (mut dc, mut mem) = setup();
        dc.write(7, 0, &mut mem);
        // Saturate the DRAM-cache channel so dispatch would trigger...
        let (_, d0) = dc.read(7, 0, &mut mem);
        // ...and hammer the same dirty block: it must stay on the cache.
        let (_, d1) = dc.read(7, 1, &mut mem);
        assert_eq!(d0, Dispatch::DramCache);
        assert_eq!(d1, Dispatch::DramCache, "dirty block pinned to the cache");
        assert!(dc.stats().dirty_pins >= 1);
        assert_eq!(dc.stats().balanced_dispatches, 0);
    }

    #[test]
    fn clean_hits_balance_to_idle_off_chip() {
        let (mut dc, mut mem) = setup();
        let (t, _) = dc.read(9, 0, &mut mem); // fill, clean
                                              // Issue two reads in the same cycle *after* off-chip went idle:
                                              // the first occupies the cache channel, the second balances.
        let start = t + 10_000; // off-chip idle again by then
        let (_, d0) = dc.read(9, start, &mut mem);
        let (_, d1) = dc.read(9, start, &mut mem);
        assert_eq!(d0, Dispatch::DramCache);
        assert_eq!(d1, Dispatch::BalancedOffChip);
        assert_eq!(dc.stats().balanced_dispatches, 1);
    }

    #[test]
    fn eager_cleaning_keeps_the_cache_mostly_clean() {
        let (mut dc, mut mem) = setup();
        // Write far more blocks than the DBI tracks (256 = alpha * 1024).
        for b in 0..1024u64 {
            dc.write(b, b, &mut mem);
        }
        assert!(dc.stats().eager_cleans > 0, "DBI evictions cleaned rows");
        assert!(
            dc.clean_fraction() >= 0.75,
            "dirty fraction bounded by alpha: clean = {:.2}",
            dc.clean_fraction()
        );
        dc.dbi().assert_invariants();
    }

    /// A small GB-cache geometry: 4 rows of 64 blocks, every row sampled.
    fn gb_small(policy: ContainerPolicy) -> GbDramCache {
        GbDramCache::new(&GbCacheConfig {
            capacity_bytes: 4 * 64 * 64,
            block_bytes: 64,
            row_blocks: 64,
            sample_every: 1,
            ways: 4,
            policy,
        })
    }

    #[test]
    fn gb_read_fills_and_hits() {
        let mut gb = gb_small(ContainerPolicy::Adaptive);
        assert!(!gb.read(5, |_| panic!("no eviction")));
        assert!(gb.read(5, |_| panic!("no eviction")), "second read hits");
        assert_eq!(gb.resident_rows(), 1);
        assert_eq!(gb.presence.dirty_count(), 1);
        assert_eq!(gb.dirty().count(), 0);
        assert_eq!(gb.dirty().is_dirty(5), Some(false));
        assert_eq!(gb.dirty().is_dirty(6), None, "not resident");
        gb.assert_invariants();
    }

    #[test]
    fn gb_write_marks_dirty_and_flush_drains() {
        let mut gb = gb_small(ContainerPolicy::Adaptive);
        gb.write(64 + 3, |_| ());
        gb.write(64 + 9, |_| ());
        assert_eq!(gb.dirty().is_dirty(64 + 3), Some(true));
        assert_eq!(gb.dirty().count(), 2);
        assert_eq!(gb.dirty().row_count(), 1);
        let mut out = Vec::new();
        assert_eq!(gb.flush(|b| out.push(b)), 2);
        assert_eq!(out, vec![64 + 3, 64 + 9]);
        assert_eq!(gb.dirty().count(), 0);
        assert_eq!(gb.presence.dirty_count(), 2, "flush cleans, doesn't evict");
        gb.assert_invariants();
    }

    #[test]
    fn gb_row_eviction_writes_back_exactly_the_dirty_blocks() {
        let mut gb = gb_small(ContainerPolicy::Adaptive);
        gb.write(1, |_| ()); // row 0: dirty blocks 1, 2
        gb.write(2, |_| ());
        gb.read(3, |_| ()); // ...and a clean one
        for row in 1..4u64 {
            gb.read(row * 64, |_| panic!("under capacity"));
        }
        assert_eq!(gb.resident_rows(), 4);
        // Fifth row: row 0 (oldest) is evicted; only its dirty blocks
        // come back.
        let mut wb = Vec::new();
        gb.read(4 * 64, |b| wb.push(b));
        assert_eq!(wb, vec![1, 2]);
        assert_eq!(gb.stats().row_evictions, 1);
        assert_eq!(gb.stats().writebacks, 2);
        assert_eq!(gb.dirty().is_dirty(1), None, "evicted row is gone");
        assert_eq!(gb.resident_rows(), 4);
        gb.assert_invariants();
    }

    #[test]
    fn gb_policies_agree_on_behavior_not_bytes() {
        let mut traces: Vec<(Vec<u64>, u64)> = Vec::new();
        for policy in ContainerPolicy::ALL {
            let mut gb = gb_small(policy);
            let mut wb = Vec::new();
            for i in 0..600u64 {
                let b = (i * 97) % 320; // 5 rows onto 4-row capacity
                if i % 3 == 0 {
                    gb.write(b, |b| wb.push(b));
                } else {
                    gb.read(b, |b| wb.push(b));
                }
            }
            gb.assert_invariants();
            traces.push((wb, gb.stats().hits));
        }
        assert_eq!(traces[0], traces[1], "policy changes bytes, not behavior");
        assert_eq!(traces[0], traces[2]);
    }

    #[test]
    fn gb_adaptive_beats_dense_on_sparse_rows() {
        let mut adaptive = gb_small(ContainerPolicy::Adaptive);
        let mut dense = gb_small(ContainerPolicy::DenseOnly);
        for row in 0..4u64 {
            adaptive.write(row * 64, |_| ());
            dense.write(row * 64, |_| ());
        }
        assert!(
            adaptive.metadata_bytes() * 4 <= dense.metadata_bytes(),
            "adaptive {} B vs dense {} B",
            adaptive.metadata_bytes(),
            dense.metadata_bytes()
        );
        assert_eq!(adaptive.dirty().census().sparse, 4);
        assert_eq!(dense.dirty().census().dense, 4);
    }

    #[test]
    fn gb_sampled_tags_follow_sampled_rows() {
        let mut gb = GbDramCache::new(&GbCacheConfig {
            capacity_bytes: 8 * 64 * 64,
            block_bytes: 64,
            row_blocks: 64,
            sample_every: 4,
            ways: 4,
            policy: ContainerPolicy::Adaptive,
        });
        gb.read(0, |_| ()); // row 0: sampled
        gb.read(64, |_| ()); // row 1: not sampled
        gb.read(0, |_| ());
        assert_eq!(gb.stats().sampled_lookups, 2, "row 1 skips the sample");
        assert_eq!(gb.stats().sampled_hits, 1);
    }

    #[test]
    fn gb_snapshot_roundtrip_and_forgery() {
        use dbi::snap::{restore_bytes, snapshot_bytes, Snapshot};
        let mut gb = gb_small(ContainerPolicy::Adaptive);
        let mut wb = Vec::new();
        for i in 0..200u64 {
            let b = (i * 37) % 320;
            if i % 2 == 0 {
                gb.write(b, |b| wb.push(b));
            } else {
                gb.read(b, |b| wb.push(b));
            }
        }
        let bytes = snapshot_bytes(&gb);
        let mut fresh = gb_small(ContainerPolicy::Adaptive);
        restore_bytes(&mut fresh, &bytes).unwrap();
        fresh.assert_invariants();
        assert_eq!(fresh.stats(), gb.stats());
        assert_eq!(fresh.metadata_bytes(), gb.metadata_bytes());
        assert_eq!(
            fresh.dirty().blocks().collect::<Vec<_>>(),
            gb.dirty().blocks().collect::<Vec<_>>()
        );
        // Resumed run behaves bit-identically.
        let (mut wa, mut wf) = (Vec::new(), Vec::new());
        for i in 0..100u64 {
            gb.write((i * 53) % 320, |b| wa.push(b));
            fresh.write((i * 53) % 320, |b| wf.push(b));
        }
        assert_eq!(wa, wf);
        assert_eq!(gb.stats(), fresh.stats());

        // Forged: a dirty block outside the presence set.
        let mut w = dbi::snap::SnapWriter::new();
        {
            let mut forged = gb_small(ContainerPolicy::Adaptive);
            forged.read(5, |_| ()); // present: block 5 only
            forged.presence.snapshot(&mut w);
            let mut dirty = DirtyStore::new(64, ContainerPolicy::Adaptive);
            dirty.mark(9); // dirty block 9 was never filled
            dirty.snapshot(&mut w);
            w.usize(1);
            w.u64(0);
            forged.tags.snapshot(&mut w);
            forged.stats.snapshot(&mut w);
        }
        let mut target = gb_small(ContainerPolicy::Adaptive);
        assert!(matches!(
            restore_bytes(&mut target, &w.finish()),
            Err(dbi::snap::SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn victim_writeback_preserves_dirty_data() {
        let (mut dc, mut mem) = setup();
        dc.write(3, 0, &mut mem);
        // Evict block 3 by filling its set (64 KB / 64 B / 16 ways = 64
        // sets; 3 + 64k collide).
        for k in 1..=16u64 {
            let _ = dc.read(3 + 64 * k, 100 * k, &mut mem);
        }
        assert!(!dc.dbi().is_dirty(3), "dirty state cleared on eviction");
        // The writeback reached the off-chip controller.
        let pending_or_written = mem.pending_writes() as u64 + mem.stats().writes;
        assert!(pending_or_written >= 1);
    }

    #[test]
    fn tags_must_reach_the_physical_address_space() {
        // 64 B blocks: 2^34 physical blocks. Eight 16-way sets tag them
        // all; four sets reach only block 4 * (2^32 - 1) - 1.
        let mut config = DramCacheConfig::stacked_64mb();
        config.capacity_bytes = 8 * 16 * 64;
        let _ = MostlyCleanDramCache::new(&config);
        config.capacity_bytes = 4 * 16 * 64;
        let err = std::panic::catch_unwind(|| MostlyCleanDramCache::new(&config)).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted message");
        assert!(
            msg.contains("DRAM cache") && msg.contains("0x3fffffffb"),
            "{msg}"
        );
    }

    #[test]
    #[should_panic(expected = "sampled DRAM-cache 32-bit tags")]
    fn sampled_tags_must_reach_the_physical_address_space() {
        let _ = GbDramCache::new(&GbCacheConfig {
            capacity_bytes: 4 * 64 * 64,
            block_bytes: 64,
            row_blocks: 64,
            sample_every: 1,
            ways: 64,
            policy: ContainerPolicy::Adaptive,
        });
    }
}
