//! The per-core engine, in two halves: a front end with the trace source
//! and the private L1/L2 cache levels, and a back end with an approximate
//! out-of-order window model.
//!
//! The paper's simulator models single-issue out-of-order cores with a
//! 128-entry instruction window and 32 MSHRs. The back end reproduces the
//! first-order behaviour of that core: non-memory instructions retire at
//! one per cycle; loads issue to the hierarchy without stalling and overlap
//! (memory-level parallelism) until either the window would have to pass an
//! incomplete load by more than 128 instructions or all MSHRs are busy;
//! stores retire through a store buffer and never stall the core, but their
//! fills and writebacks exercise the hierarchy fully.
//!
//! The split follows the data flow. The LLC is non-inclusive and the
//! cores share no data, so which level serves a core's access, and which
//! blocks its L1/L2 evict to the LLC, depend only on that core's own
//! trace. [`Front::produce`] resolves the next record that far, and
//! [`CoreEngine::execute`] runs it on the back end — at once on the same
//! thread, or later, after the record has crossed a ring from another.

use std::collections::VecDeque;

use cache_sim::{Cache, CacheConfig, InsertPos, ThreadId};
use dbi::Dbi;
use dram_sim::MemoryController;
use trace_gen::mix::WorkloadMix;
use trace_gen::{MemOp, TraceGenerator};

use crate::checker::VersionChecker;
use crate::config::{DbiParams, SystemConfig};
use crate::llc::SharedLlc;

/// The level that served a record's access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Served {
    L1,
    L2,
    /// Missed both private levels: one LLC read.
    Llc,
}

/// A record's memory access as its front end resolved it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Access {
    /// Block address, with the core's region offset applied.
    pub(crate) addr: u64,
    pub(crate) write: bool,
    pub(crate) served: Served,
}

/// Receives, in order, the blocks a core's L1/L2 fills write back to the
/// LLC.
pub(crate) trait Writebacks {
    fn writeback(&mut self, block: u64);
}

impl Writebacks for Vec<u64> {
    fn writeback(&mut self, block: u64) {
        self.push(block);
    }
}

/// Drops every writeback: for records produced only to bring a front end
/// up to a stream position.
struct Discard;

impl Writebacks for Discard {
    fn writeback(&mut self, _block: u64) {}
}

/// Everything a run's front ends depend on: the benchmarks in core order,
/// the trace seed, the L1/L2 geometry, and the L2 DBI when there is one.
/// Two runs with equal keys produce equal record streams on every core,
/// however their back ends (mechanism, LLC, DRAM, windows) differ, so one
/// run's recorded streams can stand in for another's front ends.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FrontKey {
    text: String,
    cores: usize,
}

impl FrontKey {
    /// The key of `mix`'s front ends on `config`.
    #[must_use]
    pub fn new(mix: &WorkloadMix, config: &SystemConfig) -> FrontKey {
        FrontKey::of(mix.benchmarks().iter().map(|b| b.label()), config)
    }

    /// The key of front ends running the benchmarks labelled `labels`,
    /// in core order, on `config`.
    ///
    /// Every `SystemConfig` field is named below, so a new one does not
    /// compile until it is classified: in the key if `Front::new`, the
    /// trace generator or the per-core address layout reads it, ignored
    /// otherwise.
    pub(crate) fn of<'a>(labels: impl Iterator<Item = &'a str>, config: &SystemConfig) -> FrontKey {
        let SystemConfig {
            cores: _,
            mechanism: _,
            llc_bytes_per_core: _,
            llc_ways: _,
            llc_replacement: _,
            l1_bytes,
            l1_ways,
            l2_bytes,
            l2_ways,
            block_bytes,
            latencies: _,
            dbi,
            dram: _,
            window_insts: _,
            mshrs: _,
            predictor_epoch_cycles: _,
            predictor_threshold: _,
            awb_rewrite_filter: _,
            l2_dbi,
            warmup_insts: _,
            measure_insts: _,
            seed,
            check: _,
            sanitize: _,
            sanitize_interval: _,
            fault: _,
        } = config;
        let l2_dbi = if *l2_dbi {
            let DbiParams {
                alpha,
                granularity,
                associativity,
                policy,
            } = dbi;
            format!(
                "{}/{}:{granularity}:{associativity}:{}",
                alpha.numerator(),
                alpha.denominator(),
                policy.label()
            )
        } else {
            "none".to_string()
        };
        let benchmarks: Vec<&str> = labels.collect();
        FrontKey {
            text: format!(
                "mix={} seed={seed} l1={l1_bytes}:{l1_ways} l2={l2_bytes}:{l2_ways} \
                 blk={block_bytes} l2dbi={l2_dbi}",
                benchmarks.join("+")
            ),
            cores: benchmarks.len(),
        }
    }

    /// Front ends (active cores) under this key.
    pub(crate) fn cores(&self) -> usize {
        self.cores
    }
}

/// A core's front end: trace source and private caches.
#[derive(Debug)]
pub(crate) struct Front {
    thread: ThreadId,
    generator: TraceGenerator,
    addr_offset: u64,
    l1: Cache,
    l2: Cache,
    /// Optional L2-level DBI (paper Section 7, "other cache levels"):
    /// when present, L2 dirty bits live here and dirty evictions push
    /// whole-row batches of writebacks down to the LLC.
    l2_dbi: Option<Dbi>,
    /// Reusable buffer for L2-DBI eviction sweeps, so per-eviction sweeps
    /// do not allocate.
    l2_sweep_scratch: Vec<u64>,
}

impl Front {
    pub(crate) fn new(
        thread: ThreadId,
        generator: TraceGenerator,
        addr_offset: u64,
        config: &SystemConfig,
    ) -> Self {
        let l1 = Cache::new(
            CacheConfig::new(config.l1_bytes, config.l1_ways, config.block_bytes)
                .expect("valid L1 geometry"),
        );
        let l2 = Cache::new(
            CacheConfig::new(config.l2_bytes, config.l2_ways, config.block_bytes)
                .expect("valid L2 geometry"),
        );
        let l2_dbi = config.l2_dbi.then(|| {
            let l2_blocks = config.l2_bytes / u64::from(config.block_bytes);
            Dbi::new(config.dbi.build(l2_blocks).expect("valid L2 DBI geometry"))
        });
        Front {
            thread,
            generator,
            addr_offset,
            l1,
            l2,
            l2_sweep_scratch: Vec::with_capacity(
                l2_dbi.as_ref().map_or(0, |d| d.config().granularity()),
            ),
            l2_dbi,
        }
    }

    /// The private caches, named by level.
    pub(crate) fn private_caches(&self) -> [(&'static str, &Cache); 2] {
        [("L1", &self.l1), ("L2", &self.l2)]
    }

    /// The most LLC writebacks one record can cause: an L2 fill's victim
    /// and an L1 victim's L2 allocation, or under the L2 DBI up to three
    /// whole-row batches.
    pub(crate) fn max_writebacks(&self) -> usize {
        self.l2_dbi
            .as_ref()
            .map_or(2, |d| 3 * d.config().granularity())
    }

    /// Resolves the next trace record against L1 and L2 without executing
    /// it: returns its gap, whether it is a dependent load, and its access,
    /// and hands the writebacks its fills cause to `w`, in order.
    pub(crate) fn produce<W: Writebacks>(&mut self, w: &mut W) -> (u32, bool, Access) {
        let record = self.generator.next_record();
        let addr = record.addr + self.addr_offset;
        let write = record.op == MemOp::Write;
        let access = Access {
            addr,
            write,
            served: self.lookup(addr, write),
        };
        self.fill(access, w);
        (record.gap, record.dependent, access)
    }

    /// Produces and drops the next `records` records, leaving the front end
    /// where it would be had it fed them to its back end.
    pub(crate) fn skip(&mut self, records: u64) {
        for _ in 0..records {
            self.produce(&mut Discard);
        }
    }

    /// Which level serves an access to `addr`, updating its recency (and
    /// for a store hitting L1, its dirty bit).
    fn lookup(&mut self, addr: u64, write: bool) -> Served {
        let l1_hit = if write {
            self.l1.touch_dirty(addr)
        } else {
            self.l1.touch(addr)
        };
        if l1_hit {
            Served::L1
        } else if self.l2.touch(addr) {
            Served::L2
        } else {
            Served::Llc
        }
    }

    /// Installs a missed block in the private levels after its access.
    /// Write-allocate: a store fetches the block (read-for-ownership)
    /// without stalling the core, then installs it dirty in L1.
    fn fill<W: Writebacks>(&mut self, a: Access, w: &mut W) {
        match a.served {
            Served::L1 => {}
            Served::L2 => self.fill_l1(a.addr, a.write, w),
            Served::Llc => {
                self.fill_l2(a.addr, w);
                self.fill_l1(a.addr, a.write, w);
            }
        }
    }

    fn fill_l1<W: Writebacks>(&mut self, addr: u64, dirty: bool, w: &mut W) {
        if let Some(victim) = self.l1.fill(addr, self.thread, InsertPos::Mru, dirty) {
            if victim.dirty {
                self.l2_writeback(victim.block, w);
            }
        }
    }

    fn fill_l2<W: Writebacks>(&mut self, addr: u64, w: &mut W) {
        if let Some(victim) = self.l2.fill(addr, self.thread, InsertPos::Mru, false) {
            if self.l2_dbi.is_some() {
                self.l2_evict(victim.block, w);
            } else if victim.dirty {
                w.writeback(victim.block);
            }
        }
    }

    fn l2_writeback<W: Writebacks>(&mut self, block: u64, w: &mut W) {
        if self.l2_dbi.is_some() {
            // L2 dirty bits live in the L2 DBI; the tag stays clean.
            if !self.l2.touch(block) {
                if let Some(victim) = self.l2.fill(block, self.thread, InsertPos::Mru, false) {
                    self.l2_evict(victim.block, w);
                }
            }
            // L2-DBI eviction: the whole row's dirty blocks go to the LLC
            // as one batch (they stay resident in L2, clean).
            let mut evicted = std::mem::take(&mut self.l2_sweep_scratch);
            evicted.clear();
            self.l2_dbi
                .as_mut()
                .expect("checked above")
                .mark_dirty(block, &mut evicted);
            for &b in &evicted {
                w.writeback(b);
            }
            self.l2_sweep_scratch = evicted;
            return;
        }
        if self.l2.touch_dirty(block) {
            return;
        }
        // Allocate the writeback in L2; its victim may cascade to the LLC.
        if let Some(victim) = self.l2.fill(block, self.thread, InsertPos::Mru, true) {
            if victim.dirty {
                w.writeback(victim.block);
            }
        }
    }

    /// Handles an L2 eviction under the L2-DBI organization: if the victim
    /// is dirty, its whole row's dirty blocks are written back to the LLC
    /// together (the row-batching the paper's Section 7 describes).
    fn l2_evict<W: Writebacks>(&mut self, victim: u64, w: &mut W) {
        let dbi = self.l2_dbi.as_mut().expect("L2 DBI organization");
        if !dbi.clear_dirty(victim) {
            return;
        }
        w.writeback(victim);
        let mut co_dirty = std::mem::take(&mut self.l2_sweep_scratch);
        co_dirty.clear();
        co_dirty.extend(dbi.row_dirty_blocks(victim));
        for &b in &co_dirty {
            dbi.clear_dirty(b);
            w.writeback(b);
        }
        self.l2_sweep_scratch = co_dirty;
    }

    /// Flushes the private levels: L1 dirty blocks into L2, then L2 dirty
    /// blocks into the LLC through `w`. Used before verification.
    pub(crate) fn flush_private<W: Writebacks>(&mut self, w: &mut W) {
        let l1_dirty: Vec<u64> = self
            .l1
            .blocks()
            .filter(|&(_, d, _)| d)
            .map(|(b, _, _)| b)
            .collect();
        for b in l1_dirty {
            self.l1.mark_dirty(b, false);
            self.l2_writeback(b, w);
        }
        if let Some(dbi) = &mut self.l2_dbi {
            dbi.flush_each(|_row, b| w.writeback(b));
            return;
        }
        let l2_dirty: Vec<u64> = self
            .l2
            .blocks()
            .filter(|&(_, d, _)| d)
            .map(|(b, _, _)| b)
            .collect();
        for b in l2_dirty {
            self.l2.mark_dirty(b, false);
            w.writeback(b);
        }
    }

    #[cfg(test)]
    pub(crate) fn offset_for_test(&mut self, addr_offset: u64) {
        self.addr_offset = addr_offset;
    }
}

/// A core's back end: window state and counters.
#[derive(Debug)]
pub(crate) struct CoreEngine {
    pub(crate) thread: ThreadId,
    pub(crate) benchmark: String,
    window_insts: u64,
    mshrs: usize,
    l1_lat: u64,
    l2_lat: u64,
    /// Current cycle of this core's retire point.
    pub(crate) cycle: u64,
    /// Instructions retired so far.
    pub(crate) insts: u64,
    /// In-flight loads: (instruction index, completion cycle), oldest first.
    outstanding: VecDeque<(u64, u64)>,
    /// Completion cycle of the most recent load (dependent loads must wait
    /// for it before issuing).
    last_load_completion: u64,
    // Counters (monotonic; the system reads them around the
    // measurement window).
    pub(crate) llc_reads: u64,
    pub(crate) llc_read_misses: u64,
    /// Trace records executed, the unit of the simulator's records/second
    /// throughput.
    pub(crate) records: u64,
}

impl CoreEngine {
    pub(crate) fn new(thread: ThreadId, benchmark: String, config: &SystemConfig) -> Self {
        CoreEngine {
            thread,
            benchmark,
            window_insts: config.window_insts,
            mshrs: config.mshrs,
            l1_lat: config.latencies.l1,
            l2_lat: config.latencies.l2,
            cycle: 0,
            insts: 0,
            // One past the MSHR count: `note_load` pushes, then retires.
            outstanding: VecDeque::with_capacity(config.mshrs + 1),
            last_load_completion: 0,
            llc_reads: 0,
            llc_read_misses: 0,
            records: 0,
        }
    }

    /// Executes one record as its front end resolved it: retires the
    /// instructions up to its access, performs the access, hands the LLC
    /// the `writebacks` its fills caused (at this core's cycle, in order),
    /// and, for a load, joins it to the window's outstanding loads.
    pub(crate) fn execute(
        &mut self,
        (gap, dependent, access): (u32, bool, Access),
        writebacks: impl IntoIterator<Item = u64>,
        llc: &mut SharedLlc,
        dram: &mut MemoryController,
        mut checker: Option<&mut VersionChecker>,
    ) {
        self.issue(gap, dependent);
        let completion = self.access(access, llc, dram, checker.as_deref_mut());
        for block in writebacks {
            llc.writeback(block, self.thread, self.cycle, dram, checker.as_deref_mut());
        }
        if !access.write {
            self.retire_load(completion);
        }
    }

    /// Retires `n` instructions, stalling on the window limit against
    /// outstanding loads.
    fn advance(&mut self, n: u64) {
        let mut remaining = n;
        loop {
            // Drop loads that have completed by now.
            while self
                .outstanding
                .front()
                .is_some_and(|&(_, done)| done <= self.cycle)
            {
                self.outstanding.pop_front();
            }
            match self.outstanding.front().copied() {
                None => {
                    self.insts += remaining;
                    self.cycle += remaining;
                    return;
                }
                Some((idx, done)) => {
                    // The window can run at most `window_insts` past the
                    // oldest incomplete load.
                    let horizon = idx + self.window_insts;
                    let free = horizon.saturating_sub(self.insts);
                    if free >= remaining {
                        self.insts += remaining;
                        self.cycle += remaining;
                        return;
                    }
                    self.insts += free;
                    self.cycle += free;
                    remaining -= free;
                    // Stall until the oldest load returns.
                    self.cycle = self.cycle.max(done);
                    self.outstanding.pop_front();
                }
            }
        }
    }

    fn note_load(&mut self, completion: u64) {
        if completion <= self.cycle {
            return; // L1/L2 hits resolve within the pipeline
        }
        self.outstanding.push_back((self.insts, completion));
        if self.outstanding.len() > self.mshrs {
            let (_, done) = self.outstanding.pop_front().expect("nonempty");
            self.cycle = self.cycle.max(done);
        }
    }

    /// Retires the `gap` instructions before a record's access and the
    /// access's own; a `dependent` load (pointer chase) then waits for the
    /// previous load's data.
    fn issue(&mut self, gap: u32, dependent: bool) {
        self.records += 1;
        self.advance(u64::from(gap) + 1);
        if dependent {
            self.cycle = self.cycle.max(self.last_load_completion);
        }
    }

    /// Performs the access at the current cycle and returns when its data
    /// arrives: after the serving level's latency, or from the LLC, whose
    /// read issues once the L1 and L2 tag checks are done.
    fn access(
        &mut self,
        a: Access,
        llc: &mut SharedLlc,
        dram: &mut MemoryController,
        mut checker: Option<&mut VersionChecker>,
    ) -> u64 {
        if a.write {
            if let Some(c) = checker.as_deref_mut() {
                c.record_store(a.addr);
            }
        }
        match a.served {
            Served::L1 => self.cycle + self.l1_lat,
            Served::L2 => self.cycle + self.l2_lat,
            Served::Llc => {
                let issue = self.cycle + self.l1_lat + self.l2_lat;
                self.llc_reads += 1;
                let outcome = llc.read(a.addr, self.thread, issue, dram, checker);
                if !outcome.hit {
                    self.llc_read_misses += 1;
                }
                outcome.completion
            }
        }
    }

    /// Retires a load whose data arrives at `completion`, after the
    /// record's writebacks: it joins the window's outstanding loads.
    fn retire_load(&mut self, completion: u64) {
        self.last_load_completion = self.last_load_completion.max(completion);
        self.note_load(completion);
    }

    #[cfg(test)]
    pub(crate) fn advance_for_test(&mut self, n: u64) {
        self.advance(n);
    }

    #[cfg(test)]
    pub(crate) fn note_load_for_test(&mut self, completion: u64) {
        self.note_load(completion);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Mechanism, SystemConfig};

    fn engine() -> CoreEngine {
        let mut config = SystemConfig::for_cores(1, Mechanism::Baseline);
        config.window_insts = 8;
        config.mshrs = 2;
        CoreEngine::new(0, "test".into(), &config)
    }

    #[test]
    fn advance_without_loads_is_one_ipc() {
        let mut c = engine();
        c.advance_for_test(100);
        assert_eq!(c.insts, 100);
        assert_eq!(c.cycle, 100);
    }

    #[test]
    fn window_stalls_on_old_incomplete_load() {
        let mut c = engine();
        c.advance_for_test(1);
        // A load at instruction 1, completing at cycle 500.
        c.note_load_for_test(500);
        // The window (8 insts) lets 8 more instructions pass; the 9th must
        // wait for the load.
        c.advance_for_test(20);
        assert_eq!(c.insts, 21);
        // 1 + 8 free instructions, stall to 500, then the remaining 12.
        assert_eq!(c.cycle, 512);
    }

    #[test]
    fn independent_loads_overlap() {
        let mut c = engine();
        c.advance_for_test(1);
        c.note_load_for_test(300); // both in flight together
        c.advance_for_test(1);
        c.note_load_for_test(305);
        c.advance_for_test(20);
        // Window: oldest load at inst 1 allows up to inst 9 before the
        // stall; both loads complete by 305, not 300 + 305.
        assert!(c.cycle < 350, "loads must overlap, cycle = {}", c.cycle);
        assert_eq!(c.insts, 22);
    }

    #[test]
    fn mshr_limit_forces_retirement() {
        let mut c = engine();
        // Three outstanding loads with 2 MSHRs: the third issue retires
        // the oldest.
        c.advance_for_test(1);
        c.note_load_for_test(1000);
        c.advance_for_test(1);
        c.note_load_for_test(1100);
        c.advance_for_test(1);
        c.note_load_for_test(1200);
        assert!(c.cycle >= 1000, "MSHR pressure stalls on the oldest load");
    }

    #[test]
    fn completed_loads_do_not_stall() {
        let mut c = engine();
        c.advance_for_test(10);
        c.note_load_for_test(5); // completed in the past
        c.advance_for_test(100);
        assert_eq!(c.cycle, 110, "no stall for already-complete loads");
    }
}
