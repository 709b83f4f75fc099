//! The assembled system: cores + shared LLC + DRAM, and the run loop.

use cache_sim::lastwrite::RewriteFilterStats;
use dbi::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use dbi::DbiStats;
use dram_sim::{DramEnergy, DramStats, MemoryController};
use trace_gen::mix::WorkloadMix;
use trace_gen::{Benchmark, TraceGenerator};

use crate::checker::{LostWrite, VersionChecker};
use crate::config::SystemConfig;
use crate::core::CoreEngine;
use crate::invariants::SanitizerReport;
use crate::llc::{LlcStats, SharedLlc};
use crate::metrics::CoreResult;

/// Alignment of per-core address regions, in blocks (1 MB of 64 B blocks —
/// a whole number of DRAM row groups, so cores never share a row).
const CORE_REGION_ALIGN: u64 = 1 << 14;

/// Measurement snapshot of one core: (instructions, cycles, LLC reads,
/// LLC read misses, attributed DRAM writes).
type CoreSnapshot = (u64, u64, u64, u64, u64);

/// Result of one simulation's measurement window.
#[derive(Debug, Clone)]
pub struct MixResult {
    /// Per-core outcomes, in mix order.
    pub cores: Vec<CoreResult>,
    /// LLC counters over the measurement window.
    pub llc: LlcStats,
    /// DRAM counters over the measurement window.
    pub dram: DramStats,
    /// DRAM energy over the measurement window.
    pub energy: DramEnergy,
    /// DBI counters over the measurement window (DBI mechanisms only).
    pub dbi: Option<DbiStats>,
    /// AWB rewrite-filter statistics (whole run; extension feature).
    pub rewrite_filter: Option<RewriteFilterStats>,
    /// Outcome of the shadow-memory check, when enabled.
    pub check: Option<Result<(), Vec<LostWrite>>>,
    /// The invariant sanitizer's report, when `SystemConfig::sanitize`
    /// was set.
    pub sanitizer: Option<SanitizerReport>,
    /// Trace records executed across the *whole* run (warmup, measurement,
    /// and any post-quota interference stepping) — the denominator of the
    /// simulator's own records/second throughput, not a paper metric.
    pub records_processed: u64,
}

impl MixResult {
    /// Total instructions measured across cores.
    #[must_use]
    pub fn total_insts(&self) -> u64 {
        self.cores.iter().map(|c| c.insts).sum()
    }

    /// Per-core IPCs in mix order.
    #[must_use]
    pub fn ipcs(&self) -> Vec<f64> {
        self.cores.iter().map(CoreResult::ipc).collect()
    }

    /// LLC tag lookups per kilo-instruction (paper Figure 6c).
    #[must_use]
    pub fn tag_lookups_pki(&self) -> f64 {
        crate::metrics::per_kilo(self.llc.tag_lookups, self.total_insts())
    }

    /// DRAM writes per kilo-instruction (paper Figure 6d).
    #[must_use]
    pub fn wpki(&self) -> f64 {
        crate::metrics::per_kilo(self.dram.writes, self.total_insts())
    }

    /// A deterministic fingerprint covering every field, used to prove two
    /// runs bit-identical (e.g. straight-through vs checkpoint-resumed).
    /// Energy floats are rendered as IEEE-754 bit patterns so the digest
    /// never depends on decimal formatting.
    #[must_use]
    pub fn digest(&self) -> String {
        let MixResult {
            cores,
            llc,
            dram,
            energy,
            dbi,
            rewrite_filter,
            check,
            sanitizer,
            records_processed,
        } = self;
        let energy_bits: Vec<String> = [
            energy.activate_pj,
            energy.read_pj,
            energy.write_pj,
            energy.forward_pj,
            energy.background_pj,
        ]
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect();
        format!(
            "{cores:?}|{llc:?}|{dram:?}|{}|{dbi:?}|{rewrite_filter:?}|{check:?}|{sanitizer:?}|{records_processed}",
            energy_bits.join(",")
        )
    }
}

fn diff_llc(end: &LlcStats, start: &LlcStats) -> LlcStats {
    LlcStats {
        tag_lookups: end.tag_lookups - start.tag_lookups,
        demand_reads: end.demand_reads - start.demand_reads,
        demand_hits: end.demand_hits - start.demand_hits,
        bypasses: end.bypasses - start.bypasses,
        writebacks_received: end.writebacks_received - start.writebacks_received,
        sweep_writebacks: end.sweep_writebacks - start.sweep_writebacks,
        dbi_eviction_writebacks: end.dbi_eviction_writebacks - start.dbi_eviction_writebacks,
        dram_writes_per_core: end
            .dram_writes_per_core
            .iter()
            .zip(&start.dram_writes_per_core)
            .map(|(e, s)| e - s)
            .collect(),
    }
}

/// Run-loop progress that lives outside the [`System`] itself: step count,
/// phase, and the measurement baselines captured at the warmup boundary.
///
/// The phase is *derived* from it (`!measuring` → warmup, otherwise
/// measuring until every core has an end snapshot), never stored
/// separately.
#[derive(Debug)]
pub(crate) struct RunState {
    pub(crate) steps: u64,
    pub(crate) measuring: bool,
    base: Vec<CoreSnapshot>,
    end: Vec<Option<CoreSnapshot>>,
    llc_base: LlcStats,
    dram_base: DramStats,
    energy_base: DramEnergy,
    dbi_base: Option<DbiStats>,
}

impl RunState {
    pub(crate) fn cold(sys: &System) -> RunState {
        RunState {
            steps: 0,
            measuring: false,
            base: Vec::new(),
            end: Vec::new(),
            llc_base: sys.llc.stats().clone(),
            dram_base: DramStats::default(),
            energy_base: DramEnergy::default(),
            dbi_base: None,
        }
    }

    fn done(&self) -> usize {
        self.end.iter().filter(|e| e.is_some()).count()
    }

    pub(crate) fn write(&self, w: &mut dbi::snap::SnapWriter) {
        w.u64(self.steps);
        w.bool(self.measuring);
        if !self.measuring {
            // Baselines don't exist yet; a warmup-phase resume recaptures
            // them at the boundary exactly as a straight-through run would.
            return;
        }
        w.usize(self.base.len());
        for &(insts, cycles, reads, misses, writes) in &self.base {
            for x in [insts, cycles, reads, misses, writes] {
                w.u64(x);
            }
        }
        for e in &self.end {
            match e {
                Some((insts, cycles, reads, misses, writes)) => {
                    w.bool(true);
                    for &x in [insts, cycles, reads, misses, writes] {
                        w.u64(x);
                    }
                }
                None => w.bool(false),
            }
        }
        self.llc_base.snapshot(w);
        self.dram_base.snapshot(w);
        self.energy_base.snapshot(w);
        match &self.dbi_base {
            Some(s) => {
                w.bool(true);
                s.snapshot(w);
            }
            None => w.bool(false),
        }
    }

    pub(crate) fn read(
        r: &mut dbi::snap::SnapReader<'_>,
        sys: &System,
    ) -> Result<RunState, dbi::snap::SnapError> {
        let mut st = RunState::cold(sys);
        st.steps = r.u64()?;
        st.measuring = r.bool()?;
        if !st.measuring {
            return Ok(st);
        }
        let n = sys.cores.len();
        r.expect_len("measurement baselines", n)?;
        for _ in 0..n {
            st.base
                .push((r.u64()?, r.u64()?, r.u64()?, r.u64()?, r.u64()?));
        }
        for _ in 0..n {
            st.end.push(if r.bool()? {
                Some((r.u64()?, r.u64()?, r.u64()?, r.u64()?, r.u64()?))
            } else {
                None
            });
        }
        st.llc_base.restore(r)?;
        st.dram_base.restore(r)?;
        st.energy_base.restore(r)?;
        r.expect_bool("DBI baseline presence", sys.llc.dbi().is_some())?;
        if sys.llc.dbi().is_some() {
            let mut s = DbiStats::default();
            s.restore(r)?;
            st.dbi_base = Some(s);
        }
        Ok(st)
    }
}

/// The assembled simulation.
#[derive(Debug)]
pub struct System {
    config: SystemConfig,
    cores: Vec<CoreEngine>,
    llc: SharedLlc,
    dram: MemoryController,
    checker: Option<VersionChecker>,
}

impl System {
    /// Builds a system running `mix` (one benchmark per active core).
    ///
    /// `mix.cores()` may be smaller than `config.cores` — the geometry
    /// (LLC size, latencies) stays that of the configured system, which is
    /// how "alone" baselines for weighted speedup are measured.
    ///
    /// # Panics
    ///
    /// Panics if the mix has more benchmarks than configured cores.
    #[must_use]
    pub fn new(mix: &WorkloadMix, config: &SystemConfig) -> Self {
        assert!(
            mix.cores() <= config.cores,
            "mix has {} benchmarks but the system has {} cores",
            mix.cores(),
            config.cores
        );
        let mut cores = Vec::with_capacity(mix.cores());
        let mut offset = 0u64;
        for (i, &bench) in mix.benchmarks().iter().enumerate() {
            let seed = config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let generator = TraceGenerator::from_benchmark(bench, seed);
            let space = generator.address_space_blocks();
            cores.push(CoreEngine::new(
                i as u8,
                bench.label().to_string(),
                generator,
                offset,
                config,
            ));
            offset += space.div_ceil(CORE_REGION_ALIGN) * CORE_REGION_ALIGN;
        }
        System {
            config: config.clone(),
            cores,
            llc: SharedLlc::new(config),
            dram: MemoryController::new(config.dram.clone()),
            checker: config.check.then(VersionChecker::new),
        }
    }

    fn step_core(&mut self, i: usize) {
        self.cores[i].step(&mut self.llc, &mut self.dram, self.checker.as_mut());
    }

    /// Steps the earliest core; `steps` counts records across the run so
    /// the sanitizer can scan every `sanitize_interval` records.
    fn step_next(&mut self, steps: &mut u64) -> usize {
        let i = self.argmin_cycle();
        self.step_core(i);
        *steps += 1;
        if self.config.sanitize && steps.is_multiple_of(self.config.sanitize_interval.max(1)) {
            self.llc.sanitizer_scan();
        }
        i
    }

    fn argmin_cycle(&self) -> usize {
        self.cores
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.cycle)
            .map(|(i, _)| i)
            .expect("at least one core")
    }

    /// Runs warmup + measurement and returns the measured results.
    ///
    /// Cores that finish their measurement quota keep running (and keep
    /// generating interference) until every core has finished, following
    /// the standard multi-programmed methodology. Checkpointing and resume
    /// live on [`crate::session::SimSession`], which drives these same
    /// micro-steps.
    ///
    /// # Panics
    ///
    /// Panics if the configured measurement window is empty.
    #[must_use]
    pub fn run(mut self) -> MixResult {
        assert!(
            self.config.measure_insts > 0,
            "measurement window must be nonempty"
        );
        let mut st = RunState::cold(&self);
        while self.micro_step(&mut st) {}
        self.finish(&st)
    }

    /// Advances the run by exactly one trace record, performing the
    /// warmup→measure transition when it falls due. Returns `false` once
    /// the run is complete (every core has retired its measurement quota)
    /// — a terminal state; further calls stay `false` and step nothing.
    ///
    /// Sanitizer scan points and measurement boundaries derive only from
    /// `st`, never from wall-clock time, so a run resumed from a
    /// checkpoint replays the exact step sequence of an uninterrupted one.
    pub(crate) fn micro_step(&mut self, st: &mut RunState) -> bool {
        let warm = self.config.warmup_insts;
        if !st.measuring {
            if self.cores.iter().any(|c| c.insts < warm) {
                let _ = self.step_next(&mut st.steps);
                return true;
            }
            // Warmup boundary: capture measurement baselines, then fall
            // straight through into the measurement phase — the next
            // record executes in this same call, exactly as the scalar
            // loop ran before the phases were split into micro-steps.
            st.base = self
                .cores
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    (
                        c.insts,
                        c.cycle,
                        c.llc_reads,
                        c.llc_read_misses,
                        self.llc.stats().dram_writes_per_core[i],
                    )
                })
                .collect();
            st.end = vec![None; self.cores.len()];
            st.llc_base = self.llc.stats().clone();
            st.dram_base = *self.dram.stats();
            st.energy_base = *self.dram.energy();
            st.dbi_base = self.llc.dbi().map(|d| *d.stats());
            st.measuring = true;
        }
        if st.done() >= self.cores.len() {
            return false;
        }
        let measure = self.config.measure_insts;
        let i = self.step_next(&mut st.steps);
        let c = &self.cores[i];
        if st.end[i].is_none() && c.insts >= st.base[i].0 + measure {
            st.end[i] = Some((
                c.insts,
                c.cycle,
                c.llc_reads,
                c.llc_read_misses,
                self.llc.stats().dram_writes_per_core[i],
            ));
        }
        true
    }

    /// Serializes the mid-run state (mechanisms + run-loop progress) into
    /// one self-checksummed checkpoint image, led by the trace seed so the
    /// image only resumes into a run of the same seed.
    pub(crate) fn checkpoint(&self, st: &RunState) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u64(self.config.seed);
        self.snapshot(&mut w);
        st.write(&mut w);
        // Coherence cross-check: total dirty LLC ways, recomputed from the
        // restored dirty words on restore.
        w.u64(self.dirty_ways());
        w.finish()
    }

    /// Restores a [`System::checkpoint`] image into this freshly built
    /// system and cross-checks the run-state against it: relations that
    /// hold for every legitimately captured snapshot, so a forged or
    /// mismatched image fails with [`SnapError::Corrupt`] instead of
    /// producing plausible-looking results. On error the system is left
    /// partially restored and must be discarded for a cold start.
    pub(crate) fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<RunState, SnapError> {
        let mut r = SnapReader::new(bytes)?;
        r.expect_u64("checkpoint seed", self.config.seed)?;
        self.restore(&mut r)?;
        let st = RunState::read(&mut r, self)?;
        let dirty = r.u64()?;
        r.finish()?;
        if dirty != self.dirty_ways() {
            return Err(SnapError::Corrupt(format!(
                "dirty-way cross-check: snapshot says {dirty}, restored LLC has {}",
                self.dirty_ways()
            )));
        }
        let records: u64 = self.cores.iter().map(|c| c.records).sum();
        if st.steps != records {
            return Err(SnapError::Corrupt(format!(
                "step count {} does not match {records} core records",
                st.steps
            )));
        }
        if st.measuring {
            for (i, c) in self.cores.iter().enumerate() {
                if c.insts < self.config.warmup_insts {
                    return Err(SnapError::Corrupt(format!(
                        "measuring snapshot with core {i} still below the warmup quota"
                    )));
                }
                let b = st.base[i];
                if b.0 > c.insts {
                    return Err(SnapError::Corrupt(format!(
                        "core {i} measurement baseline is ahead of the core"
                    )));
                }
                if let Some(e) = st.end[i] {
                    let window = self.config.measure_insts;
                    if e.0 < b.0 + window || e.0 > c.insts {
                        return Err(SnapError::Corrupt(format!(
                            "core {i} end snapshot outside its measurement window"
                        )));
                    }
                    if e.1 < b.1 || e.2 < b.2 || e.3 < b.3 || e.4 < b.4 {
                        return Err(SnapError::Corrupt(format!(
                            "core {i} end snapshot runs backwards from its baseline"
                        )));
                    }
                }
            }
        }
        Ok(st)
    }

    /// Total dirty LLC ways, computed through the bulk
    /// [`DirtyView::mask_words`](cache_sim::DirtyView::mask_words) query.
    fn dirty_ways(&self) -> u64 {
        let cache = self.llc.cache();
        let sets = cache.config().sets();
        let view = cache.dirty();
        let mut idx = [cache_sim::SetIdx(0); 64];
        let mut words = [0u64; 64];
        let mut total = 0u64;
        let mut set = 0u64;
        while set < sets {
            let n = ((sets - set) as usize).min(64);
            for (k, slot) in idx[..n].iter_mut().enumerate() {
                *slot = cache_sim::SetIdx(set + k as u64);
            }
            view.mask_words(&idx[..n], &mut words[..n]);
            total += words[..n]
                .iter()
                .map(|w| u64::from(w.count_ones()))
                .sum::<u64>();
            set += n as u64;
        }
        total
    }

    /// Folds a completed run into its measured results — the stat diffs
    /// against the warmup baselines, plus the end-of-run verification
    /// passes (mutating: the checker flushes the hierarchy).
    ///
    /// # Panics
    ///
    /// Panics if the run has not finished (some core has no end snapshot).
    pub(crate) fn finish(mut self, st: &RunState) -> MixResult {
        let cores: Vec<CoreResult> = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let e = st.end[i].expect("all cores finished");
                let b = st.base[i];
                CoreResult {
                    benchmark: c.benchmark.clone(),
                    insts: e.0 - b.0,
                    cycles: e.1 - b.1,
                    llc_reads: e.2 - b.2,
                    llc_read_misses: e.3 - b.3,
                    dram_writes: e.4 - b.4,
                }
            })
            .collect();
        let llc = diff_llc(self.llc.stats(), &st.llc_base);
        let dram = self.dram.stats().since(&st.dram_base);
        let energy = self.dram.energy().since(&st.energy_base);
        let dbi = self
            .llc
            .dbi()
            .map(|d| d.stats().since(st.dbi_base.as_ref().expect("dbi baseline")));

        let rewrite_filter = self.llc.rewrite_filter_stats().copied();
        let records_processed = self.cores.iter().map(|c| c.records).sum();
        // Taken before the verification flush: `flush_dirty` pushes writes
        // to the controller below the sanitizer's shadow bookkeeping.
        let sanitizer = self.llc.sanitizer_report();
        let check = self.checker.is_some().then(|| self.flush_and_verify());

        MixResult {
            cores,
            llc,
            dram,
            energy,
            dbi,
            rewrite_filter,
            check,
            sanitizer,
            records_processed,
        }
    }

    /// Flushes the whole hierarchy and verifies the shadow memory.
    fn flush_and_verify(&mut self) -> Result<(), Vec<LostWrite>> {
        self.llc.assert_dbi_residency();
        let now = self.cores.iter().map(|c| c.cycle).max().unwrap_or(0);
        for i in 0..self.cores.len() {
            self.cores[i].flush_private(&mut self.llc, &mut self.dram, self.checker.as_mut());
        }
        self.llc
            .flush_dirty(now, &mut self.dram, self.checker.as_mut());
        self.dram.flush(now);
        self.checker.as_ref().expect("checker enabled").verify()
    }
}

impl dbi::snap::Snapshot for System {
    fn snapshot(&self, w: &mut dbi::snap::SnapWriter) {
        // `config` is what *constructed* this system; a restore target is
        // always built from the same config, so only mutable state goes in.
        w.usize(self.cores.len());
        for c in &self.cores {
            c.snapshot(w);
        }
        self.llc.snapshot(w);
        self.dram.snapshot(w);
        match &self.checker {
            Some(c) => {
                w.bool(true);
                c.snapshot(w);
            }
            None => w.bool(false),
        }
    }

    fn restore(&mut self, r: &mut dbi::snap::SnapReader<'_>) -> Result<(), dbi::snap::SnapError> {
        r.expect_len("system cores", self.cores.len())?;
        for c in &mut self.cores {
            c.restore(r)?;
        }
        self.llc.restore(r)?;
        self.dram.restore(r)?;
        r.expect_bool("checker presence", self.checker.is_some())?;
        if let Some(c) = &mut self.checker {
            c.restore(r)?;
        }
        Ok(())
    }
}

/// Runs a multi-programmed mix to completion.
#[must_use]
pub fn run_mix(mix: &WorkloadMix, config: &SystemConfig) -> MixResult {
    System::new(mix, config).run()
}

/// Runs one benchmark alone on the configured system (the "alone" baseline
/// of the multi-core speedup metrics).
#[must_use]
pub fn run_alone(benchmark: Benchmark, config: &SystemConfig) -> MixResult {
    run_mix(&WorkloadMix::new(vec![benchmark]), config)
}
