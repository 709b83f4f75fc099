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

use cache_sim::{Cache, CacheConfig, InsertPos};
use dbi::{Dbi, DbiConfig};
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
    /// Reused for the writebacks a DBI eviction forces.
    writebacks: Vec<u64>,
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
            writebacks: Vec::with_capacity(config.dbi.granularity()),
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
        self.writebacks.clear();
        self.dbi.mark_dirty(block, &mut self.writebacks);
        for &b in &self.writebacks {
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
}
