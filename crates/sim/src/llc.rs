//! The shared last-level cache with mechanism-specific behaviour.
//!
//! All nine mechanisms of the paper's Table 2 are implemented here against
//! the same substrates: a `cache-sim` tag/data store, an optional `dbi`, the
//! TA-DIP dueling monitor, the Skip-Cache miss predictor, and the VWQ Set
//! State Vector. A single tag-port next-free-cycle models the contention
//! resource that distinguishes the mechanisms in multi-core runs (paper
//! Section 6.2): every tag probe — demand, writeback, or sweep — occupies
//! the port.

use std::collections::TryReserveError;

use cache_sim::dueling::{BimodalCounter, DuelingSelector, PolicyChoice};
use cache_sim::lastwrite::{RewriteFilter, RewriteFilterStats};
use cache_sim::predictor::{MissPredictor, MissPredictorConfig};
use cache_sim::ssv::SetStateVector;
use cache_sim::{Cache, CacheConfig, InsertPos, ThreadId, Victim};
use dbi::Dbi;
use dram_sim::MemoryController;

use crate::checker::VersionChecker;
use crate::config::{Latencies, Mechanism, SystemConfig};
use crate::faults::FaultInjector;
use crate::invariants::{Sanitizer, SanitizerReport};

/// Fraction of the LLC ways (from the LRU end) the VWQ harvests from, and
/// that its Set State Vector summarizes (the paper's "LRU ways").
const VWQ_LRU_FRACTION: usize = 4;

/// Outcome of an LLC demand read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Cycle the data is available to the requester.
    pub completion: u64,
    /// Whether the access hit in the LLC.
    pub hit: bool,
    /// Whether the tag lookup was bypassed (predicted miss, went straight
    /// to memory).
    pub bypassed: bool,
}

/// Event counters for the shared LLC.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct LlcStats {
    /// Tag-store probes of any kind (paper Figure 6c).
    pub tag_lookups: u64,
    /// Demand reads received.
    pub demand_reads: u64,
    /// Demand reads that hit.
    pub demand_hits: u64,
    /// Reads that bypassed the tag lookup.
    pub bypasses: u64,
    /// Writeback requests received from the level above.
    pub writebacks_received: u64,
    /// Proactive (sweep-generated) writebacks: AWB / DAWB / VWQ cleans.
    pub sweep_writebacks: u64,
    /// Writebacks forced by DBI entry evictions.
    pub dbi_eviction_writebacks: u64,
    /// DRAM writes issued, attributed per thread.
    pub dram_writes_per_core: Vec<u64>,
}

impl LlcStats {
    /// Total DRAM writes issued by the LLC.
    #[must_use]
    pub fn dram_writes(&self) -> u64 {
        self.dram_writes_per_core.iter().sum()
    }
}

/// The shared LLC.
#[derive(Debug)]
pub struct SharedLlc {
    cache: Cache,
    mechanism: Mechanism,
    lat: Latencies,
    dbi: Option<Dbi>,
    dueling: Option<DuelingSelector>,
    bimodal: BimodalCounter,
    predictor: Option<MissPredictor>,
    ssv: Option<SetStateVector>,
    /// Extension: last-write filter gating AWB sweeps (Section 8 /
    /// Wang et al.).
    rewrite_filter: Option<RewriteFilter>,
    /// Blocks per DRAM row: the sweep span of DAWB and VWQ.
    dram_row_blocks: u64,
    /// Next cycle the tag port is free of *demand* probes.
    demand_port_free: u64,
    /// Next cycle the tag port is free of all probes (demand + sweeps).
    port_free: u64,
    /// Reusable buffer for AWB sweep targets, so per-eviction sweeps do not
    /// allocate.
    sweep_scratch: Vec<u64>,
    /// Reusable buffer for DBI-eviction writeback targets.
    dbi_evict_scratch: Vec<u64>,
    /// Online invariant sanitizer (opt-in via `SystemConfig::sanitize`).
    sanitizer: Option<Box<Sanitizer>>,
    /// Deterministic fault injector (opt-in via `SystemConfig::fault`).
    injector: Option<FaultInjector>,
    stats: LlcStats,
}

impl SharedLlc {
    /// Builds the LLC (and its mechanism-specific side structures) for
    /// `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration implies degenerate cache or DBI
    /// geometry — system configurations are validated programmer inputs.
    #[must_use]
    pub fn new(config: &SystemConfig) -> Self {
        SharedLlc::with_cache(config, Cache::new(Self::geometry(config)))
    }

    /// [`SharedLlc::new`], failing instead of aborting when the LLC's tag
    /// store cannot be allocated.
    ///
    /// # Errors
    ///
    /// Returns the allocator's error for the tag store.
    ///
    /// # Panics
    ///
    /// As [`SharedLlc::new`].
    pub fn try_new(config: &SystemConfig) -> Result<Self, TryReserveError> {
        Ok(SharedLlc::with_cache(
            config,
            Cache::try_new(Self::geometry(config))?,
        ))
    }

    fn geometry(config: &SystemConfig) -> CacheConfig {
        CacheConfig::new(config.llc_bytes(), config.llc_ways, config.block_bytes)
            .expect("valid LLC geometry")
            .with_replacement(config.llc_replacement)
    }

    fn with_cache(config: &SystemConfig, cache: Cache) -> Self {
        let sets = cache.config().sets();
        let threads = config.cores;
        let mechanism = config.mechanism;

        let dbi = mechanism
            .uses_dbi()
            .then(|| Dbi::new(config.dbi.build(config.llc_blocks()).expect("valid DBI")));
        let dueling = mechanism
            .uses_tadip()
            .then(|| DuelingSelector::new(sets, 32, threads, 10));
        let wants_predictor = matches!(
            mechanism,
            Mechanism::SkipCache | Mechanism::Dbi { clb: true, .. }
        );
        let predictor = wants_predictor.then(|| {
            MissPredictor::new(
                MissPredictorConfig {
                    threshold: config.predictor_threshold,
                    epoch_cycles: config.predictor_epoch_cycles,
                    sampled_sets: 32,
                },
                sets,
                threads,
            )
        });
        let ssv = matches!(mechanism, Mechanism::Vwq)
            .then(|| SetStateVector::new(sets, (config.llc_ways / VWQ_LRU_FRACTION).max(1)));
        let rewrite_filter = (config.awb_rewrite_filter
            && matches!(mechanism, Mechanism::Dbi { awb: true, .. }))
        .then(|| RewriteFilter::new(4096, 256));
        // A row's dirty blocks fill either scratch list; sized once here.
        let dbi_row = dbi.as_ref().map_or(0, |d| d.config().granularity());
        SharedLlc {
            cache,
            mechanism,
            lat: config.latencies,
            dbi,
            dueling,
            bimodal: BimodalCounter::default(),
            predictor,
            ssv,
            rewrite_filter,
            dram_row_blocks: u64::from(config.dram.mapping.blocks_per_row()),
            demand_port_free: 0,
            port_free: 0,
            sweep_scratch: Vec::with_capacity(dbi_row),
            dbi_evict_scratch: Vec::with_capacity(dbi_row),
            sanitizer: config.sanitize.then(|| {
                Box::new(Sanitizer::new(
                    matches!(mechanism, Mechanism::Vwq).then_some(sets),
                ))
            }),
            injector: config.fault.map(FaultInjector::new),
            stats: LlcStats {
                dram_writes_per_core: vec![0; threads],
                ..LlcStats::default()
            },
        }
    }

    /// The mechanism this LLC implements.
    #[must_use]
    pub fn mechanism(&self) -> Mechanism {
        self.mechanism
    }

    /// The DBI, when the mechanism maintains one.
    #[must_use]
    pub fn dbi(&self) -> Option<&Dbi> {
        self.dbi.as_ref()
    }

    /// The underlying cache state (inspection / tests).
    #[must_use]
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Counters accumulated since construction.
    #[must_use]
    pub fn stats(&self) -> &LlcStats {
        &self.stats
    }

    /// Statistics of the AWB rewrite filter, when enabled.
    #[must_use]
    pub fn rewrite_filter_stats(&self) -> Option<&RewriteFilterStats> {
        self.rewrite_filter.as_ref().map(RewriteFilter::stats)
    }

    /// Occupies the tag port for a demand probe. Demand probes are
    /// prioritized over sweep probes (paper footnote 4): they serialize
    /// only among themselves, plus at most one occupancy of delay from a
    /// non-preemptible probe already in progress.
    fn occupy_tag_port_demand(&mut self, now: u64) -> u64 {
        let occ = self.lat.llc_tag_occupancy;
        let mut start = now.max(self.demand_port_free);
        if self.port_free > start {
            // A background probe is in flight; wait out at most one.
            start = self.port_free.min(start + occ);
        }
        self.demand_port_free = start + occ;
        self.port_free = self.port_free.max(self.demand_port_free);
        self.stats.tag_lookups += 1;
        start
    }

    /// Occupies the tag port for a background (sweep / DBI-eviction) probe;
    /// these serialize behind every other probe.
    fn occupy_tag_port_background(&mut self, now: u64) -> u64 {
        let start = now.max(self.port_free);
        self.port_free = start + self.lat.llc_tag_occupancy;
        self.stats.tag_lookups += 1;
        start
    }

    /// Issues a writeback of `block` to the memory controller. This is the
    /// single funnel every mechanism's writebacks pass through, which makes
    /// it the natural hook for both the drop-a-writeback fault and the
    /// sanitizer's shadow bookkeeping. Returns whether the write actually
    /// reached the controller (false only when an injected fault ate it).
    fn write_dram(
        &mut self,
        block: u64,
        thread: ThreadId,
        now: u64,
        dram: &mut MemoryController,
        checker: Option<&mut VersionChecker>,
    ) -> bool {
        if let Some(inj) = &mut self.injector {
            if inj.drop_writeback(block) {
                return false;
            }
        }
        dram.enqueue_write(block, now);
        if let Some(c) = checker {
            c.record_dram_write(block);
        }
        if let Some(s) = &mut self.sanitizer {
            s.note_written_back(block);
        }
        let t = usize::from(thread).min(self.stats.dram_writes_per_core.len() - 1);
        self.stats.dram_writes_per_core[t] += 1;
        true
    }

    fn insert_pos(&mut self, block: u64, thread: ThreadId) -> InsertPos {
        match &self.dueling {
            None => InsertPos::Mru,
            Some(d) => match d.choose(self.cache.set_of(block).raw(), thread) {
                PolicyChoice::A => InsertPos::Mru,
                PolicyChoice::B => self.bimodal.next_pos(),
            },
        }
    }

    fn ssv_refresh(&mut self, probe: u64) {
        if let Some(ssv) = &mut self.ssv {
            let set = self.cache.set_of(probe);
            let stale = self
                .injector
                .as_mut()
                .is_some_and(|i| i.ssv_stale(set.raw()));
            if !stale {
                ssv.refresh(&self.cache, probe);
            }
            // The mirror follows the refresh *stream*, not the bits, so
            // legitimate staleness between refreshes matches on both
            // sides; only a bit that stopped refreshing diverges.
            if let Some(s) = &mut self.sanitizer {
                s.mirror_ssv(&self.cache, probe, ssv.tracked_ways());
            }
        }
    }

    /// Services a demand read of `block` by `thread` arriving at `now`.
    pub fn read(
        &mut self,
        block: u64,
        thread: ThreadId,
        now: u64,
        dram: &mut MemoryController,
        checker: Option<&mut VersionChecker>,
    ) -> ReadOutcome {
        self.stats.demand_reads += 1;
        if let Some(p) = &mut self.predictor {
            p.tick(now);
        }
        let set = self.cache.set_of(block).raw();

        // Cache Lookup Bypass (paper Section 3.2): predicted misses skip
        // the tag lookup. Skip Cache can bypass unconditionally (its LLC is
        // write-through, so never dirty); DBI+CLB must first ask the DBI.
        let predicted_miss = self
            .predictor
            .as_ref()
            .is_some_and(|p| p.should_bypass(thread, set));
        if predicted_miss {
            let bypass_ok = match self.mechanism {
                Mechanism::SkipCache => true,
                Mechanism::Dbi { .. } => {
                    // One DBI probe; dirty blocks must be read from the cache.
                    !self.dbi.as_ref().expect("DBI mechanism").is_dirty(block)
                }
                _ => false,
            };
            if bypass_ok {
                if let Some(s) = &mut self.sanitizer {
                    s.check_bypass(block);
                }
                self.stats.bypasses += 1;
                let issue = now
                    + if self.mechanism.uses_dbi() {
                        self.lat.dbi
                    } else {
                        0
                    };
                let completion = dram.read(block, issue);
                // Bypassed blocks are not allocated in the LLC.
                return ReadOutcome {
                    completion,
                    hit: false,
                    bypassed: true,
                };
            }
        }

        let start = self.occupy_tag_port_demand(now);
        let hit = self.cache.touch(block);
        if let Some(p) = &mut self.predictor {
            if p.is_sampled(set) {
                p.record_sampled_access(thread, hit);
            }
        }
        if hit {
            self.stats.demand_hits += 1;
            return ReadOutcome {
                completion: start + self.lat.llc_tag + self.lat.llc_data,
                hit: true,
                bypassed: false,
            };
        }
        if let Some(d) = &mut self.dueling {
            d.record_miss(set, thread);
        }
        let completion = dram.read(block, start + self.lat.llc_tag);
        self.fill(block, thread, false, None, completion, dram, checker);
        ReadOutcome {
            completion,
            hit: false,
            bypassed: false,
        }
    }

    /// Inserts `block` (a miss fill or a missing writeback allocation),
    /// handling the displaced victim.
    ///
    /// Demand fills (`pos = None`) follow the mechanism's insertion policy
    /// (TA-DIP for everything but Baseline); writeback allocations insert
    /// at MRU so that the dirty blocks of a streamed row age out together —
    /// scattering them through the LRU stack would destroy exactly the
    /// row locality the writeback optimizations harvest.
    #[allow(clippy::too_many_arguments)] // internal helper; the arguments are the fill
    fn fill(
        &mut self,
        block: u64,
        thread: ThreadId,
        dirty_in_tag: bool,
        pos: Option<InsertPos>,
        now: u64,
        dram: &mut MemoryController,
        checker: Option<&mut VersionChecker>,
    ) {
        let pos = pos.unwrap_or_else(|| self.insert_pos(block, thread));
        if let Some(victim) = self.cache.fill(block, thread, pos, dirty_in_tag) {
            self.handle_eviction(victim, now, dram, checker);
        }
        self.ssv_refresh(block);
    }

    /// Applies the mechanism's dirty-eviction behaviour to a displaced
    /// victim (paper Sections 3.1 and 2.2.3).
    fn handle_eviction(
        &mut self,
        victim: Victim,
        now: u64,
        dram: &mut MemoryController,
        mut checker: Option<&mut VersionChecker>,
    ) {
        match self.mechanism {
            Mechanism::Baseline | Mechanism::TaDip => {
                if victim.dirty {
                    self.write_dram(victim.block, victim.thread, now, dram, checker);
                }
            }
            Mechanism::Dawb => {
                if victim.dirty {
                    self.write_dram(
                        victim.block,
                        victim.thread,
                        now,
                        dram,
                        checker.as_deref_mut(),
                    );
                    self.dawb_sweep(victim.block, now, dram, checker);
                }
            }
            Mechanism::Vwq => {
                if victim.dirty {
                    self.write_dram(
                        victim.block,
                        victim.thread,
                        now,
                        dram,
                        checker.as_deref_mut(),
                    );
                    self.vwq_sweep(victim.block, now, dram, checker);
                }
            }
            Mechanism::SkipCache => {
                debug_assert!(!victim.dirty, "write-through LLC holds no dirty blocks");
            }
            Mechanism::Dbi { awb, .. } => {
                let dbi = self.dbi.as_mut().expect("DBI mechanism");
                if dbi.clear_dirty(victim.block) {
                    self.write_dram(
                        victim.block,
                        victim.thread,
                        now,
                        dram,
                        checker.as_deref_mut(),
                    );
                    if awb {
                        self.awb_sweep(victim.block, victim.thread, now, dram, checker);
                    }
                }
            }
        }
    }

    /// DAWB (paper Section 3.1): probe the tag store for *every* block of
    /// the victim's DRAM row; write back and clean the dirty ones. The
    /// indiscriminate probes are DAWB's cost — each occupies the tag port.
    fn dawb_sweep(
        &mut self,
        evicted: u64,
        now: u64,
        dram: &mut MemoryController,
        mut checker: Option<&mut VersionChecker>,
    ) {
        let base = (evicted / self.dram_row_blocks) * self.dram_row_blocks;
        for b in base..base + self.dram_row_blocks {
            if b == evicted {
                continue;
            }
            let t = self.occupy_tag_port_background(now);
            if let Some(owner) = self.cache.take_dirty(b, usize::MAX) {
                self.write_dram(b, owner, t, dram, checker.as_deref_mut());
                self.stats.sweep_writebacks += 1;
            }
        }
    }

    /// VWQ (paper Section 3.1): like DAWB, but consult the Set State
    /// Vector first (free) and only harvest dirty blocks from the LRU ways
    /// of marked sets.
    fn vwq_sweep(
        &mut self,
        evicted: u64,
        now: u64,
        dram: &mut MemoryController,
        mut checker: Option<&mut VersionChecker>,
    ) {
        let tracked = self.ssv.as_ref().expect("VWQ has an SSV").tracked_ways();
        let rows = self.dram_row_blocks;
        let base = (evicted / rows) * rows;
        let sets = self.cache.config().sets();
        let first = self.cache.set_of(base).raw();
        // Consecutive blocks fall in consecutive sets, wrapping at the last
        // set. Walk the row in ascending block order, one SSV word at a
        // time, probing only blocks whose set is marked (the SSV check is
        // free; a probe is not). A probe refreshes only its own set's bit,
        // one already passed, so a word read before its probes stays
        // exact for the sets after them.
        let mut k = 0; // offset of the next block in the row
        while k < rows {
            let set = (first + k) % sets;
            let end = (set + rows - k).min(sets).min((set / 64 + 1) * 64);
            let word = self
                .ssv
                .as_ref()
                .expect("VWQ has an SSV")
                .word((set / 64) as usize);
            let mut marked = (word >> (set % 64)) & (u64::MAX >> (64 - (end - set)));
            while marked != 0 {
                let b = base + k + u64::from(marked.trailing_zeros());
                marked &= marked - 1;
                if b == evicted {
                    continue;
                }
                let t = self.occupy_tag_port_background(now);
                if let Some(owner) = self.cache.take_dirty(b, tracked) {
                    self.write_dram(b, owner, t, dram, checker.as_deref_mut());
                    self.stats.sweep_writebacks += 1;
                    self.ssv_refresh(b);
                }
            }
            k += end - set;
        }
    }

    /// AWB (paper Section 3.1): the DBI entry lists the co-row dirty
    /// blocks directly, so the tag store is probed *only* for blocks that
    /// are actually dirty.
    fn awb_sweep(
        &mut self,
        evicted: u64,
        thread: ThreadId,
        now: u64,
        dram: &mut MemoryController,
        mut checker: Option<&mut VersionChecker>,
    ) {
        let dbi = self.dbi.as_ref().expect("DBI mechanism");
        let row = dbi.row_of(evicted);
        if let Some(filter) = &mut self.rewrite_filter {
            if filter.should_sweep(row) {
                filter.note_sweep(row);
            } else {
                // Predicted to be re-dirtied soon: sweeping would be a
                // premature writeback. Only the demand-evicted block is
                // written (already done by the caller).
                filter.note_suppressed();
                return;
            }
        }
        let mut co_dirty = std::mem::take(&mut self.sweep_scratch);
        co_dirty.clear();
        co_dirty.extend(
            self.dbi
                .as_ref()
                .expect("DBI mechanism")
                .row_dirty_blocks(evicted),
        );
        for &b in &co_dirty {
            let t = self.occupy_tag_port_background(now);
            debug_assert!(self.cache.probe(b), "DBI-dirty blocks are resident");
            let owner = self.cache.owner(b).unwrap_or(thread);
            self.write_dram(b, owner, t, dram, checker.as_deref_mut());
            self.dbi.as_mut().expect("DBI mechanism").clear_dirty(b);
            self.stats.sweep_writebacks += 1;
        }
        self.sweep_scratch = co_dirty;
    }

    /// Receives a writeback of `block` from the level above (paper Section
    /// 2.2.2).
    pub fn writeback(
        &mut self,
        block: u64,
        thread: ThreadId,
        now: u64,
        dram: &mut MemoryController,
        mut checker: Option<&mut VersionChecker>,
    ) {
        self.stats.writebacks_received += 1;
        if let Some(s) = &mut self.sanitizer {
            // From here on the hierarchy owes this block's data to DRAM.
            s.note_dirtied(block);
        }
        let start = self.occupy_tag_port_demand(now);
        match self.mechanism {
            Mechanism::SkipCache => {
                // Write-through, no-allocate: update in place if present,
                // and always push the data to memory.
                let _present = self.cache.touch(block);
                self.write_dram(block, thread, start, dram, checker);
            }
            Mechanism::Dbi { .. } => {
                if let Some(filter) = &mut self.rewrite_filter {
                    let row = self.dbi.as_ref().expect("DBI mechanism").row_of(block);
                    filter.note_write(row);
                }
                if !self.cache.touch(block) {
                    // Insert the block (clean in the tag store — the dirty
                    // bit lives in the DBI).
                    self.fill(
                        block,
                        thread,
                        false,
                        Some(InsertPos::Mru),
                        start,
                        dram,
                        checker.as_deref_mut(),
                    );
                }
                let mut evicted = std::mem::take(&mut self.dbi_evict_scratch);
                evicted.clear();
                self.dbi
                    .as_mut()
                    .expect("DBI mechanism")
                    .mark_dirty(block, &mut evicted);
                if let Some(inj) = &mut self.injector {
                    if inj.flip_dbi_bit(block) {
                        self.dbi.as_mut().expect("DBI mechanism").clear_dirty(block);
                    }
                }
                // DBI eviction: write back everything the entry marked; the
                // blocks stay resident and become clean (paper Section
                // 2.2.4).
                let skip_drain = !evicted.is_empty()
                    && self
                        .injector
                        .as_mut()
                        .is_some_and(|inj| inj.skip_drain(evicted[0]));
                let mut written = 0u64;
                if !skip_drain {
                    for &b in &evicted {
                        let t = self.occupy_tag_port_background(now);
                        debug_assert!(self.cache.probe(b), "DBI-dirty blocks are resident");
                        let owner = self.cache.owner(b).unwrap_or(thread);
                        if self.write_dram(b, owner, t, dram, checker.as_deref_mut()) {
                            written += 1;
                            self.stats.dbi_eviction_writebacks += 1;
                        }
                    }
                }
                if let Some(s) = &mut self.sanitizer {
                    s.check_eviction_writeback(&evicted, written);
                }
                self.dbi_evict_scratch = evicted;
            }
            _ => {
                if !self.cache.touch_dirty(block) {
                    self.fill(
                        block,
                        thread,
                        true,
                        Some(InsertPos::Mru),
                        start,
                        dram,
                        checker,
                    );
                }
            }
        }
        self.ssv_refresh(block);
    }

    /// Writes back every dirty block and clears all dirty state; used at
    /// the end of checked runs. Returns the number of blocks written.
    pub fn flush_dirty(
        &mut self,
        now: u64,
        dram: &mut MemoryController,
        mut checker: Option<&mut VersionChecker>,
    ) -> u64 {
        let mut written = 0;
        if let Some(dbi) = &mut self.dbi {
            dbi.flush_each(|_row, b| {
                dram.enqueue_write(b, now);
                if let Some(c) = checker.as_deref_mut() {
                    c.record_dram_write(b);
                }
                written += 1;
            });
        } else {
            let dirty: Vec<u64> = self
                .cache
                .blocks()
                .filter(|&(_, d, _)| d)
                .map(|(b, _, _)| b)
                .collect();
            for b in dirty {
                self.cache.mark_dirty(b, false);
                dram.enqueue_write(b, now);
                if let Some(c) = checker.as_deref_mut() {
                    c.record_dram_write(b);
                }
                written += 1;
            }
        }
        written
    }

    /// Runs one sanitizer full-state scan comparing the shadow state
    /// against the mechanism's (no-op unless `SystemConfig::sanitize`).
    pub fn sanitizer_scan(&mut self) {
        if let Some(s) = self.sanitizer.as_deref_mut() {
            s.scan(&self.cache, self.dbi.as_ref(), self.ssv.as_ref());
        }
    }

    /// Final scan plus the sanitizer's structured report, when enabled.
    ///
    /// Must be taken *before* any end-of-run flush: `flush_dirty` pushes
    /// writes to the controller directly, below the shadow bookkeeping.
    #[must_use]
    pub fn sanitizer_report(&mut self) -> Option<SanitizerReport> {
        self.sanitizer_scan();
        let fault = self.injector.as_ref().and_then(FaultInjector::record);
        self.sanitizer.as_deref().map(|s| s.report(fault))
    }

    /// Asserts the cross-structure invariant of DBI mechanisms: every
    /// block the DBI marks dirty is resident in the cache.
    ///
    /// # Panics
    ///
    /// Panics on violation; no-op for non-DBI mechanisms.
    pub fn assert_dbi_residency(&self) {
        if let Some(dbi) = &self.dbi {
            dbi.assert_invariants();
            for b in dbi.dirty_blocks() {
                assert!(
                    self.cache.probe(b),
                    "DBI marks block {b} dirty but it is not resident"
                );
            }
        }
    }
}

impl dbi::snap::Snapshot for LlcStats {
    fn snapshot(&self, w: &mut dbi::snap::SnapWriter) {
        let LlcStats {
            tag_lookups,
            demand_reads,
            demand_hits,
            bypasses,
            writebacks_received,
            sweep_writebacks,
            dbi_eviction_writebacks,
            ref dram_writes_per_core,
        } = *self;
        for x in [
            tag_lookups,
            demand_reads,
            demand_hits,
            bypasses,
            writebacks_received,
            sweep_writebacks,
            dbi_eviction_writebacks,
        ] {
            w.u64(x);
        }
        w.usize(dram_writes_per_core.len());
        for &x in dram_writes_per_core {
            w.u64(x);
        }
    }

    fn restore(&mut self, r: &mut dbi::snap::SnapReader<'_>) -> Result<(), dbi::snap::SnapError> {
        self.tag_lookups = r.u64()?;
        self.demand_reads = r.u64()?;
        self.demand_hits = r.u64()?;
        self.bypasses = r.u64()?;
        self.writebacks_received = r.u64()?;
        self.sweep_writebacks = r.u64()?;
        self.dbi_eviction_writebacks = r.u64()?;
        r.expect_len("per-core write counters", self.dram_writes_per_core.len())?;
        for x in &mut self.dram_writes_per_core {
            *x = r.u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use dram_sim::DramConfig;

    fn tiny_config(mechanism: Mechanism) -> SystemConfig {
        let mut c = SystemConfig::for_cores(1, mechanism);
        c.llc_bytes_per_core = 64 * 1024; // 1024 blocks, 64 sets x 16 ways
        c.llc_ways = 16;
        c
    }

    fn setup(mechanism: Mechanism) -> (SharedLlc, MemoryController) {
        let config = tiny_config(mechanism);
        (
            SharedLlc::new(&config),
            MemoryController::new(DramConfig::ddr3_1066()),
        )
    }

    #[test]
    fn read_miss_fills_and_hits_after() {
        let (mut llc, mut dram) = setup(Mechanism::Baseline);
        let miss = llc.read(5, 0, 100, &mut dram, None);
        assert!(!miss.hit && !miss.bypassed);
        let hit = llc.read(5, 0, miss.completion, &mut dram, None);
        assert!(hit.hit);
        assert!(hit.completion < miss.completion + 100, "hits are fast");
        assert_eq!(llc.stats().demand_reads, 2);
        assert_eq!(llc.stats().demand_hits, 1);
        assert_eq!(llc.stats().tag_lookups, 2);
    }

    #[test]
    fn baseline_writeback_sets_tag_dirty_and_evicts_to_dram() {
        let (mut llc, mut dram) = setup(Mechanism::Baseline);
        llc.writeback(7, 0, 0, &mut dram, None);
        assert_eq!(llc.cache().dirty().is_dirty(7), Some(true));
        // Fill the set (64 sets): blocks 7 + 64k for k=1..16 map to set 7.
        for k in 1..=16u64 {
            llc.writeback(7 + 64 * k, 0, 0, &mut dram, None);
        }
        // Block 7 was LRU among the writebacks; it must have gone to DRAM.
        assert!(llc.stats().dram_writes() >= 1);
        assert!(!llc.cache().probe(7), "evicted");
    }

    #[test]
    fn dbi_writeback_keeps_tag_clean() {
        let (mut llc, mut dram) = setup(Mechanism::Dbi {
            awb: false,
            clb: false,
        });
        llc.writeback(7, 0, 0, &mut dram, None);
        assert_eq!(
            llc.cache().dirty().is_dirty(7),
            Some(false),
            "dirty bit lives in the DBI"
        );
        assert!(llc.dbi().expect("dbi").is_dirty(7));
        llc.assert_dbi_residency();
    }

    #[test]
    fn dbi_eviction_writebacks_leave_blocks_resident_and_clean() {
        let (mut llc, mut dram) = setup(Mechanism::Dbi {
            awb: false,
            clb: false,
        });
        // DBI here: 256 tracked / 64 granularity = 4 entries in a single
        // 4-way set. Marking a 5th row evicts the LRW one (row 0).
        let g = llc.dbi().expect("dbi").config().granularity() as u64;
        llc.writeback(0, 0, 0, &mut dram, None);
        llc.writeback(1, 0, 0, &mut dram, None);
        for row in 1..=4u64 {
            llc.writeback(row * g, 0, 0, &mut dram, None);
        }
        // Row 0's blocks were written back by the DBI eviction...
        assert_eq!(llc.stats().dbi_eviction_writebacks, 2);
        // ...but stay resident in the cache, now clean.
        assert!(llc.cache().probe(0) && llc.cache().probe(1));
        assert!(!llc.dbi().expect("dbi").is_dirty(0));
        llc.assert_dbi_residency();
    }

    #[test]
    fn awb_sweeps_only_dirty_co_row_blocks() {
        let (mut llc, mut dram) = setup(Mechanism::Dbi {
            awb: true,
            clb: false,
        });
        // Make blocks 0 and 1 dirty (row 0).
        llc.writeback(0, 0, 0, &mut dram, None);
        llc.writeback(1, 0, 0, &mut dram, None);
        let before = llc.stats().tag_lookups;
        // Evict block 0 from the cache by filling its set with reads
        // (set 0: blocks 0, 64, 128, ...).
        for k in 1..=16u64 {
            let _ = llc.read(64 * k, 0, 1000 * k, &mut dram, None);
        }
        // The dirty eviction of block 0 swept block 1 (1 probe), not the
        // other 62 blocks of the row.
        assert_eq!(llc.stats().sweep_writebacks, 1);
        assert!(!llc.dbi().expect("dbi").is_dirty(1));
        let probes = llc.stats().tag_lookups - before;
        assert!(
            probes < 30,
            "AWB must not probe whole rows ({probes} probes)"
        );
        llc.assert_dbi_residency();
    }

    #[test]
    fn dawb_probes_the_whole_row() {
        let (mut llc, mut dram) = setup(Mechanism::Dawb);
        llc.writeback(0, 0, 0, &mut dram, None);
        llc.writeback(1, 0, 0, &mut dram, None);
        let before = llc.stats().tag_lookups;
        for k in 1..=16u64 {
            let _ = llc.read(64 * k, 0, 1000 * k, &mut dram, None);
        }
        let probes = llc.stats().tag_lookups - before;
        // 16 demand lookups + a 127-probe sweep on the dirty eviction.
        assert!(
            probes > 120,
            "DAWB sweeps whole DRAM rows ({probes} probes)"
        );
        assert_eq!(
            llc.stats().sweep_writebacks,
            1,
            "but only one block was dirty"
        );
    }

    #[test]
    fn skip_cache_forwards_every_writeback() {
        let (mut llc, mut dram) = setup(Mechanism::SkipCache);
        for b in 0..10u64 {
            llc.writeback(b, 0, 0, &mut dram, None);
        }
        assert_eq!(llc.stats().dram_writes(), 10);
        // Nothing in the cache is dirty.
        assert!(llc.cache().blocks().all(|(_, dirty, _)| !dirty));
    }

    #[test]
    fn flush_dirty_cleans_everything() {
        for mechanism in [
            Mechanism::Baseline,
            Mechanism::Dbi {
                awb: false,
                clb: false,
            },
        ] {
            let (mut llc, mut dram) = setup(mechanism);
            for b in 0..20u64 {
                llc.writeback(b, 0, 0, &mut dram, None);
            }
            let written = llc.flush_dirty(0, &mut dram, None);
            assert_eq!(written, 20, "{mechanism}");
            assert_eq!(
                llc.flush_dirty(0, &mut dram, None),
                0,
                "{mechanism}: idempotent"
            );
        }
    }

    #[test]
    fn demand_reads_jump_ahead_of_sweep_probes() {
        // Demand probes wait at most one occupancy for background probes
        // (paper footnote 4), so a read issued while a DAWB sweep's 127
        // probes still occupy the port is barely delayed.
        let (mut llc, mut dram) = setup(Mechanism::Dawb);
        llc.writeback(0, 0, 0, &mut dram, None);
        // Reads at times 1..16 trigger the dirty eviction of block 0 and
        // its whole-row sweep; the sweep's probes chain the background
        // port far past the eviction time.
        let mut last = 0;
        for k in 1..=16u64 {
            last = llc.read(64 * k, 0, k, &mut dram, None).completion;
        }
        let t0 = last + 50;
        let r = llc.read(3, 0, t0, &mut dram, None);
        assert!(!r.hit);
        // Without priority the read would wait out the remaining sweep
        // probes (~127 x 4 cycles); with priority it pays at most one
        // occupancy plus its own DRAM access.
        assert!(
            r.completion < t0 + 300,
            "demand read delayed from {t0} to {}",
            r.completion
        );
    }
}
