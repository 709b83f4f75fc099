//! The per-core engine: an approximate out-of-order window model plus the
//! private L1/L2 cache levels.
//!
//! The paper's simulator models single-issue out-of-order cores with a
//! 128-entry instruction window and 32 MSHRs. This engine reproduces the
//! first-order behaviour of that core: non-memory instructions retire at
//! one per cycle; loads issue to the hierarchy without stalling and overlap
//! (memory-level parallelism) until either the window would have to pass an
//! incomplete load by more than 128 instructions or all MSHRs are busy;
//! stores retire through a store buffer and never stall the core, but their
//! fills and writebacks exercise the hierarchy fully.

use std::collections::VecDeque;

use cache_sim::{Cache, CacheConfig, InsertPos, ThreadId};
use dbi::Dbi;
use dram_sim::MemoryController;
use trace_gen::{MemOp, TraceGenerator};

use crate::checker::VersionChecker;
use crate::config::SystemConfig;
use crate::llc::SharedLlc;

/// One core: trace source, window state, private caches, counters.
#[derive(Debug)]
pub(crate) struct CoreEngine {
    pub(crate) thread: ThreadId,
    pub(crate) benchmark: String,
    generator: TraceGenerator,
    addr_offset: u64,
    l1: Cache,
    l2: Cache,
    /// Optional L2-level DBI (paper Section 7, "other cache levels"):
    /// when present, L2 dirty bits live here and dirty evictions push
    /// whole-row batches of writebacks down to the LLC.
    l2_dbi: Option<Dbi>,
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
    // Counters (monotonic; the system snapshots them around the
    // measurement window).
    pub(crate) llc_reads: u64,
    pub(crate) llc_read_misses: u64,
    /// Trace records executed (one per [`CoreEngine::step`] call), the unit
    /// the perf-baseline harness reports throughput in.
    pub(crate) records: u64,
    /// Reusable buffer for L2-DBI eviction sweeps, so per-eviction sweeps
    /// do not allocate.
    l2_sweep_scratch: Vec<u64>,
}

impl CoreEngine {
    pub(crate) fn new(
        thread: ThreadId,
        benchmark: String,
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
        CoreEngine {
            thread,
            benchmark,
            generator,
            addr_offset,
            l1,
            l2,
            l2_dbi,
            window_insts: config.window_insts,
            mshrs: config.mshrs,
            l1_lat: config.latencies.l1,
            l2_lat: config.latencies.l2,
            cycle: 0,
            insts: 0,
            outstanding: VecDeque::new(),
            last_load_completion: 0,
            llc_reads: 0,
            llc_read_misses: 0,
            records: 0,
            l2_sweep_scratch: Vec::new(),
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

    /// Executes one trace record against the hierarchy.
    pub(crate) fn step(
        &mut self,
        llc: &mut SharedLlc,
        dram: &mut MemoryController,
        mut checker: Option<&mut VersionChecker>,
    ) {
        let record = self.generator.next_record();
        self.records += 1;
        self.advance(u64::from(record.gap) + 1); // gap + the memory instruction
        let addr = record.addr + self.addr_offset;
        match record.op {
            MemOp::Read => {
                if record.dependent {
                    // A dependent load (pointer chase) cannot issue until
                    // the previous load's data has returned.
                    self.cycle = self.cycle.max(self.last_load_completion);
                }
                let completion = self.read_path(addr, llc, dram, checker);
                self.last_load_completion = self.last_load_completion.max(completion);
                self.note_load(completion);
            }
            MemOp::Write => {
                if let Some(c) = checker.as_deref_mut() {
                    c.record_store(addr);
                }
                self.write_path(addr, llc, dram, checker);
            }
        }
    }

    fn read_path(
        &mut self,
        addr: u64,
        llc: &mut SharedLlc,
        dram: &mut MemoryController,
        checker: Option<&mut VersionChecker>,
    ) -> u64 {
        if self.l1.touch(addr) {
            return self.cycle + self.l1_lat;
        }
        if self.l2.touch(addr) {
            self.fill_l1(addr, false, llc, dram, checker);
            return self.cycle + self.l2_lat;
        }
        // L1 and L2 tag checks precede the LLC access.
        let issue = self.cycle + self.l1_lat + self.l2_lat;
        self.llc_reads += 1;
        let mut checker = checker;
        let outcome = llc.read(addr, self.thread, issue, dram, checker.as_deref_mut());
        if !outcome.hit {
            self.llc_read_misses += 1;
        }
        self.fill_l2(addr, llc, dram, checker.as_deref_mut());
        self.fill_l1(addr, false, llc, dram, checker);
        outcome.completion
    }

    fn write_path(
        &mut self,
        addr: u64,
        llc: &mut SharedLlc,
        dram: &mut MemoryController,
        mut checker: Option<&mut VersionChecker>,
    ) {
        if self.l1.touch_dirty(addr) {
            return;
        }
        // Write-allocate: fetch the block (read-for-ownership) without
        // stalling the core, then install it dirty in L1.
        if !self.l2.touch(addr) {
            let issue = self.cycle + self.l1_lat + self.l2_lat;
            self.llc_reads += 1;
            let outcome = llc.read(addr, self.thread, issue, dram, checker.as_deref_mut());
            if !outcome.hit {
                self.llc_read_misses += 1;
            }
            self.fill_l2(addr, llc, dram, checker.as_deref_mut());
        }
        self.fill_l1(addr, true, llc, dram, checker);
    }

    fn fill_l1(
        &mut self,
        addr: u64,
        dirty: bool,
        llc: &mut SharedLlc,
        dram: &mut MemoryController,
        checker: Option<&mut VersionChecker>,
    ) {
        if let Some(victim) = self.l1.fill(addr, self.thread, InsertPos::Mru, dirty) {
            if victim.dirty {
                self.l2_writeback(victim.block, llc, dram, checker);
            }
        }
    }

    fn fill_l2(
        &mut self,
        addr: u64,
        llc: &mut SharedLlc,
        dram: &mut MemoryController,
        checker: Option<&mut VersionChecker>,
    ) {
        if let Some(victim) = self.l2.fill(addr, self.thread, InsertPos::Mru, false) {
            if self.l2_dbi.is_some() {
                self.l2_evict(victim.block, llc, dram, checker);
            } else if victim.dirty {
                llc.writeback(victim.block, self.thread, self.cycle, dram, checker);
            }
        }
    }

    fn l2_writeback(
        &mut self,
        block: u64,
        llc: &mut SharedLlc,
        dram: &mut MemoryController,
        mut checker: Option<&mut VersionChecker>,
    ) {
        if self.l2_dbi.is_some() {
            // L2 dirty bits live in the L2 DBI; the tag stays clean.
            if !self.l2.touch(block) {
                if let Some(victim) = self.l2.fill(block, self.thread, InsertPos::Mru, false) {
                    self.l2_evict(victim.block, llc, dram, checker.as_deref_mut());
                }
            }
            let outcome = self
                .l2_dbi
                .as_mut()
                .expect("checked above")
                .mark_dirty(block);
            if let Some(evicted) = outcome.evicted {
                // L2-DBI eviction: the whole row's dirty blocks go to the
                // LLC as one batch (they stay resident in L2, clean).
                for &b in evicted.blocks() {
                    llc.writeback(b, self.thread, self.cycle, dram, checker.as_deref_mut());
                }
            }
            return;
        }
        if self.l2.touch_dirty(block) {
            return;
        }
        // Allocate the writeback in L2; its victim may cascade to the LLC.
        if let Some(victim) = self.l2.fill(block, self.thread, InsertPos::Mru, true) {
            if victim.dirty {
                llc.writeback(victim.block, self.thread, self.cycle, dram, checker);
            }
        }
    }

    /// Handles an L2 eviction under the L2-DBI organization: if the victim
    /// is dirty, its whole row's dirty blocks are written back to the LLC
    /// together (the row-batching the paper's Section 7 describes).
    fn l2_evict(
        &mut self,
        victim: u64,
        llc: &mut SharedLlc,
        dram: &mut MemoryController,
        mut checker: Option<&mut VersionChecker>,
    ) {
        let dbi = self.l2_dbi.as_mut().expect("L2 DBI organization");
        if !dbi.clear_dirty(victim) {
            return;
        }
        llc.writeback(
            victim,
            self.thread,
            self.cycle,
            dram,
            checker.as_deref_mut(),
        );
        let mut co_dirty = std::mem::take(&mut self.l2_sweep_scratch);
        co_dirty.clear();
        co_dirty.extend(dbi.row_dirty_blocks(victim));
        for &b in &co_dirty {
            self.l2_dbi
                .as_mut()
                .expect("L2 DBI organization")
                .clear_dirty(b);
            llc.writeback(b, self.thread, self.cycle, dram, checker.as_deref_mut());
        }
        self.l2_sweep_scratch = co_dirty;
    }

    #[cfg(test)]
    pub(crate) fn advance_for_test(&mut self, n: u64) {
        self.advance(n);
    }

    #[cfg(test)]
    pub(crate) fn note_load_for_test(&mut self, completion: u64) {
        self.note_load(completion);
    }

    /// Flushes the private levels: L1 dirty blocks into L2, then L2 dirty
    /// blocks into the LLC. Used before verification.
    pub(crate) fn flush_private(
        &mut self,
        llc: &mut SharedLlc,
        dram: &mut MemoryController,
        mut checker: Option<&mut VersionChecker>,
    ) {
        let l1_dirty: Vec<u64> = self
            .l1
            .blocks()
            .filter(|&(_, d, _)| d)
            .map(|(b, _, _)| b)
            .collect();
        for b in l1_dirty {
            self.l1.mark_dirty(b, false);
            self.l2_writeback(b, llc, dram, checker.as_deref_mut());
        }
        if let Some(dbi) = &mut self.l2_dbi {
            let (thread, cycle) = (self.thread, self.cycle);
            dbi.flush_each(|_row, b| {
                llc.writeback(b, thread, cycle, dram, checker.as_deref_mut());
            });
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
            llc.writeback(b, self.thread, self.cycle, dram, checker.as_deref_mut());
        }
    }
}

impl dbi::snap::Snapshot for CoreEngine {
    fn snapshot(&self, w: &mut dbi::snap::SnapWriter) {
        // `l2_sweep_scratch` is cleared at the start of every sweep; the
        // remaining config-derived fields (latencies, window, MSHRs) are
        // validated structurally, not stored.
        w.u64(u64::from(self.thread));
        self.generator.snapshot(w);
        self.l1.snapshot(w);
        self.l2.snapshot(w);
        match &self.l2_dbi {
            Some(d) => {
                w.bool(true);
                d.snapshot(w);
            }
            None => w.bool(false),
        }
        w.u64(self.cycle);
        w.u64(self.insts);
        w.usize(self.outstanding.len());
        for &(idx, done) in &self.outstanding {
            w.u64(idx);
            w.u64(done);
        }
        w.u64(self.last_load_completion);
        w.u64(self.llc_reads);
        w.u64(self.llc_read_misses);
        w.u64(self.records);
    }

    fn restore(&mut self, r: &mut dbi::snap::SnapReader<'_>) -> Result<(), dbi::snap::SnapError> {
        use dbi::snap::SnapError;
        r.expect_u64("core thread id", u64::from(self.thread))?;
        self.generator.restore(r)?;
        self.l1.restore(r)?;
        self.l2.restore(r)?;
        r.expect_bool("L2 DBI presence", self.l2_dbi.is_some())?;
        if let Some(d) = &mut self.l2_dbi {
            d.restore(r)?;
        }
        self.cycle = r.u64()?;
        self.insts = r.u64()?;
        let n = r.usize()?;
        if n > self.mshrs {
            return Err(SnapError::Corrupt(format!(
                "{n} outstanding loads exceed the {} MSHRs",
                self.mshrs
            )));
        }
        self.outstanding.clear();
        for _ in 0..n {
            let idx = r.u64()?;
            let done = r.u64()?;
            self.outstanding.push_back((idx, done));
        }
        self.last_load_completion = r.u64()?;
        self.llc_reads = r.u64()?;
        self.llc_read_misses = r.u64()?;
        self.records = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Mechanism, SystemConfig};
    use trace_gen::Benchmark;

    fn engine() -> CoreEngine {
        let mut config = SystemConfig::for_cores(1, Mechanism::Baseline);
        config.window_insts = 8;
        config.mshrs = 2;
        CoreEngine::new(
            0,
            "test".into(),
            TraceGenerator::from_benchmark(Benchmark::Mcf, 1),
            0,
            &config,
        )
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
