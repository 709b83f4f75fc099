//! A benchmark-side replica of the simulator's drive loop, built only
//! from public APIs, so that each layer call can be timed from outside.
//!
//! It mirrors `System::new`, `System::micro_step`/`finish` and
//! `CoreEngine::step` for the default configuration: the trace generator
//! feeds a window/MSHR core model over private L1/L2 `Cache`s, whose
//! misses and dirty evictions call the public `SharedLlc::read` and
//! `SharedLlc::writeback`, which drive the `MemoryController`. The
//! replica's result must equal `System::run()` counter for counter; the
//! traced run fails otherwise, so a drift between the two is caught
//! rather than measured.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use cache_sim::{Cache, CacheConfig, InsertPos, ThreadId};
use dram_sim::{DramEnergy, DramStats, MemoryController};
use system_sim::{CoreResult, LlcStats, MixResult, ReadOutcome, SharedLlc, SystemConfig};
use trace_gen::mix::WorkloadMix;
use trace_gen::{MemOp, TraceGenerator};

use crate::spans::{Layer, Tracer};

/// Alignment of per-core address regions, in blocks (`system.rs`).
const CORE_REGION_ALIGN: u64 = 1 << 14;

/// Host time spent building each layer of one replica.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub llc: Duration,
    pub dram: Duration,
    pub cache: Duration,
    pub trace: Duration,
}

/// (instructions, cycles, LLC reads, LLC read misses, DRAM writes).
type CoreSnapshot = (u64, u64, u64, u64, u64);

struct Core {
    thread: ThreadId,
    benchmark: &'static str,
    generator: TraceGenerator,
    addr_offset: u64,
    l1: Cache,
    l2: Cache,
    window_insts: u64,
    mshrs: usize,
    l1_lat: u64,
    l2_lat: u64,
    cycle: u64,
    insts: u64,
    outstanding: VecDeque<(u64, u64)>,
    last_load_completion: u64,
    llc_reads: u64,
    llc_read_misses: u64,
    records: u64,
}

/// The replicated system.
pub struct Replica {
    config: SystemConfig,
    cores: Vec<Core>,
    llc: SharedLlc,
    dram: MemoryController,
    pub setup: SetupTimes,
}

fn timed<R>(acc: &mut Duration, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed();
    r
}

impl Replica {
    /// Builds the replica of `System::new(mix, config)`.
    ///
    /// # Errors
    ///
    /// Refuses configurations the replica does not model: the L2 DBI,
    /// the shadow-memory checker, the sanitizer, and fault injection.
    pub fn new(mix: &WorkloadMix, config: &SystemConfig) -> Result<Replica, String> {
        if config.l2_dbi || config.check || config.sanitize || config.fault.is_some() {
            return Err("the replica covers the default configuration only \
                        (no L2 DBI, checker, sanitizer or faults)"
                .to_string());
        }
        let mut setup = SetupTimes::default();
        let cache = |bytes, ways| {
            Cache::new(
                CacheConfig::new(bytes, ways, config.block_bytes).expect("valid private geometry"),
            )
        };
        let mut cores = Vec::with_capacity(mix.cores());
        let mut offset = 0u64;
        for (i, &bench) in mix.benchmarks().iter().enumerate() {
            let seed = config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let generator = timed(&mut setup.trace, || {
                TraceGenerator::from_benchmark(bench, seed)
            });
            let space = generator.address_space_blocks();
            let (l1, l2) = timed(&mut setup.cache, || {
                (
                    cache(config.l1_bytes, config.l1_ways),
                    cache(config.l2_bytes, config.l2_ways),
                )
            });
            cores.push(Core {
                thread: u8::try_from(i).expect("at most 64 cores"),
                benchmark: bench.label(),
                generator,
                addr_offset: offset,
                l1,
                l2,
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
            });
            offset += space.div_ceil(CORE_REGION_ALIGN) * CORE_REGION_ALIGN;
        }
        let llc = timed(&mut setup.llc, || SharedLlc::new(config));
        let dram = timed(&mut setup.dram, || {
            MemoryController::new(config.dram.clone())
        });
        Ok(Replica {
            config: config.clone(),
            cores,
            llc,
            dram,
            setup,
        })
    }

    fn snapshot(&self, i: usize) -> CoreSnapshot {
        let c = &self.cores[i];
        (
            c.insts,
            c.cycle,
            c.llc_reads,
            c.llc_read_misses,
            self.llc.stats().dram_writes_per_core[i],
        )
    }

    /// Steps the earliest core by one trace record inside a record span.
    fn step_next(&mut self, steps: &mut u64, tracer: &mut Tracer) -> usize {
        tracer.begin_record(*steps);
        let i = self
            .cores
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.cycle)
            .map(|(i, _)| i)
            .expect("at least one core");
        self.cores[i].step(&mut self.llc, &mut self.dram, tracer);
        tracer.end_record();
        *steps += 1;
        i
    }

    /// Runs warmup + measurement like `System::run` and returns the
    /// measured result.
    pub fn run(mut self, tracer: &mut Tracer) -> MixResult {
        let n = self.cores.len();
        let mut steps = 0u64;
        while self
            .cores
            .iter()
            .any(|c| c.insts < self.config.warmup_insts)
        {
            self.step_next(&mut steps, tracer);
        }
        let base: Vec<CoreSnapshot> = (0..n).map(|i| self.snapshot(i)).collect();
        let llc_base = self.llc.stats().clone();
        let dram_base = *self.dram.stats();
        let energy_base = *self.dram.energy();
        let dbi_base = self.llc.dbi().map(|d| *d.stats());
        let mut end: Vec<Option<CoreSnapshot>> = vec![None; n];
        let mut done = 0;
        while done < n {
            let i = self.step_next(&mut steps, tracer);
            if end[i].is_none() && self.cores[i].insts >= base[i].0 + self.config.measure_insts {
                end[i] = Some(self.snapshot(i));
                done += 1;
            }
        }
        let cores = self
            .cores
            .iter()
            .zip(base.iter().zip(&end))
            .map(|(c, (b, e))| {
                let e = e.expect("every core finished");
                CoreResult {
                    benchmark: c.benchmark.to_string(),
                    insts: e.0 - b.0,
                    cycles: e.1 - b.1,
                    llc_reads: e.2 - b.2,
                    llc_read_misses: e.3 - b.3,
                    dram_writes: e.4 - b.4,
                }
            })
            .collect();
        let llc = llc_since(self.llc.stats(), &llc_base);
        let dram: DramStats = self.dram.stats().since(&dram_base);
        let energy: DramEnergy = self.dram.energy().since(&energy_base);
        let dbi = self
            .llc
            .dbi()
            .map(|d| d.stats().since(dbi_base.as_ref().expect("DBI baseline")));
        for c in &self.cores {
            tracer.add_cache_stats(c.l1.stats(), c.l2.stats());
        }
        MixResult {
            cores,
            llc,
            dram,
            energy,
            dbi,
            rewrite_filter: self.llc.rewrite_filter_stats().copied(),
            check: None,
            sanitizer: self.llc.sanitizer_report(),
            records_processed: self.cores.iter().map(|c| c.records).sum(),
        }
    }
}

/// `LlcStats` deltas over the measured window. The struct cannot be
/// built field by field outside its crate, so the end value is cloned
/// and each counter rebased.
fn llc_since(end: &LlcStats, start: &LlcStats) -> LlcStats {
    let mut d = end.clone();
    d.tag_lookups -= start.tag_lookups;
    d.demand_reads -= start.demand_reads;
    d.demand_hits -= start.demand_hits;
    d.bypasses -= start.bypasses;
    d.writebacks_received -= start.writebacks_received;
    d.sweep_writebacks -= start.sweep_writebacks;
    d.dbi_eviction_writebacks -= start.dbi_eviction_writebacks;
    for (w, s) in d
        .dram_writes_per_core
        .iter_mut()
        .zip(&start.dram_writes_per_core)
    {
        *w -= s;
    }
    d
}

impl Core {
    /// Retires `n` instructions, stalling on the window limit against
    /// outstanding loads.
    fn advance(&mut self, n: u64) {
        let mut remaining = n;
        loop {
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
                    let free = (idx + self.window_insts).saturating_sub(self.insts);
                    if free >= remaining {
                        self.insts += remaining;
                        self.cycle += remaining;
                        return;
                    }
                    self.insts += free;
                    self.cycle += free;
                    remaining -= free;
                    self.cycle = self.cycle.max(done);
                    self.outstanding.pop_front();
                }
            }
        }
    }

    fn note_load(&mut self, completion: u64) {
        if completion <= self.cycle {
            return;
        }
        self.outstanding.push_back((self.insts, completion));
        if self.outstanding.len() > self.mshrs {
            let (_, done) = self.outstanding.pop_front().expect("nonempty");
            self.cycle = self.cycle.max(done);
        }
    }

    fn step(&mut self, llc: &mut SharedLlc, dram: &mut MemoryController, tr: &mut Tracer) {
        let record = tr.time(Layer::Trace, || self.generator.next_record());
        self.records += 1;
        self.advance(u64::from(record.gap) + 1);
        let addr = record.addr + self.addr_offset;
        match record.op {
            MemOp::Read => {
                if record.dependent {
                    self.cycle = self.cycle.max(self.last_load_completion);
                }
                let completion = self.read_path(addr, llc, dram, tr);
                self.last_load_completion = self.last_load_completion.max(completion);
                self.note_load(completion);
            }
            MemOp::Write => self.write_path(addr, llc, dram, tr),
        }
    }

    /// An LLC demand read on behalf of this core, issued after the L1 and
    /// L2 tag checks and counted like `CoreEngine` counts it.
    fn llc_read(
        &mut self,
        addr: u64,
        llc: &mut SharedLlc,
        dram: &mut MemoryController,
        tr: &mut Tracer,
    ) -> ReadOutcome {
        let issue = self.cycle + self.l1_lat + self.l2_lat;
        self.llc_reads += 1;
        let outcome = tr.llc_read(dram, |dram| llc.read(addr, self.thread, issue, dram, None));
        if !outcome.hit {
            self.llc_read_misses += 1;
        }
        outcome
    }

    fn read_path(
        &mut self,
        addr: u64,
        llc: &mut SharedLlc,
        dram: &mut MemoryController,
        tr: &mut Tracer,
    ) -> u64 {
        if tr.time(Layer::Cache, || self.l1.touch(addr)) {
            return self.cycle + self.l1_lat;
        }
        if tr.time(Layer::Cache, || self.l2.touch(addr)) {
            self.fill_l1(addr, false, llc, dram, tr);
            return self.cycle + self.l2_lat;
        }
        let outcome = self.llc_read(addr, llc, dram, tr);
        self.fill_l2(addr, llc, dram, tr);
        self.fill_l1(addr, false, llc, dram, tr);
        outcome.completion
    }

    fn write_path(
        &mut self,
        addr: u64,
        llc: &mut SharedLlc,
        dram: &mut MemoryController,
        tr: &mut Tracer,
    ) {
        if tr.time(Layer::Cache, || self.l1.touch(addr)) {
            tr.time(Layer::Cache, || self.l1.mark_dirty(addr, true));
            return;
        }
        if !tr.time(Layer::Cache, || self.l2.touch(addr)) {
            let _ = self.llc_read(addr, llc, dram, tr);
            self.fill_l2(addr, llc, dram, tr);
        }
        self.fill_l1(addr, true, llc, dram, tr);
    }

    fn fill_l1(
        &mut self,
        addr: u64,
        dirty: bool,
        llc: &mut SharedLlc,
        dram: &mut MemoryController,
        tr: &mut Tracer,
    ) {
        let victim = tr.time(Layer::Cache, || {
            self.l1.insert(addr, self.thread, InsertPos::Mru, dirty)
        });
        if let Some(victim) = victim.filter(|v| v.dirty) {
            self.l2_writeback(victim.block, llc, dram, tr);
        }
    }

    fn fill_l2(
        &mut self,
        addr: u64,
        llc: &mut SharedLlc,
        dram: &mut MemoryController,
        tr: &mut Tracer,
    ) {
        let victim = tr.time(Layer::Cache, || {
            self.l2.insert(addr, self.thread, InsertPos::Mru, false)
        });
        if let Some(victim) = victim.filter(|v| v.dirty) {
            tr.llc_writeback(dram, |dram| {
                llc.writeback(victim.block, self.thread, self.cycle, dram, None);
            });
        }
    }

    fn l2_writeback(
        &mut self,
        block: u64,
        llc: &mut SharedLlc,
        dram: &mut MemoryController,
        tr: &mut Tracer,
    ) {
        if tr.time(Layer::Cache, || self.l2.touch(block)) {
            tr.time(Layer::Cache, || self.l2.mark_dirty(block, true));
            return;
        }
        let victim = tr.time(Layer::Cache, || {
            self.l2.insert(block, self.thread, InsertPos::Mru, true)
        });
        if let Some(victim) = victim.filter(|v| v.dirty) {
            tr.llc_writeback(dram, |dram| {
                llc.writeback(victim.block, self.thread, self.cycle, dram, None);
            });
        }
    }
}
