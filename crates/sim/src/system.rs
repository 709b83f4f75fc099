//! The assembled system: cores + shared LLC + DRAM, and the run loop.

use std::collections::TryReserveError;

use cache_sim::lastwrite::RewriteFilterStats;
use cache_sim::{BlockAddr, CacheConfig};
use dbi::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use dbi::DbiStats;
use dram_sim::{DramEnergy, DramStats, MemoryController};
use trace_gen::mix::WorkloadMix;
use trace_gen::{Benchmark, TraceGenerator};

use crate::checker::{LostWrite, VersionChecker};
use crate::config::{SystemConfig, MAX_CORES};
use crate::core::{CoreEngine, Front, FrontKey};
use crate::feed::{CpuClaim, FrontRecorder, FrontReplay, FrontStreams, Pipe, Reader, Writer};
use crate::feed::{HELPER_STACK, RING_WORDS};
use crate::invariants::SanitizerReport;
use crate::llc::{LlcStats, SharedLlc};
use crate::metrics::CoreResult;

/// Alignment of per-core address regions, in blocks (1 MB of 64 B blocks —
/// a whole number of DRAM row groups, so cores never share a row).
const CORE_REGION_ALIGN: u64 = 1 << 14;

/// Panics unless caches of geometry `cache` can tag every block up to
/// `highest`: a tag holds only the 32 bits above the set index, so a block
/// beyond [`CacheConfig::max_block`] would never hit and could not fill.
pub(crate) fn assert_tags_reach(level: &str, cache: &CacheConfig, highest: BlockAddr) {
    assert!(
        highest <= cache.max_block(),
        "{level} 32-bit tags reach block {:#x}, below the highest block {highest:#x}",
        cache.max_block()
    );
}

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
    /// runs bit-identical (e.g. ring vs inline, or replayed front ends).
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

    /// The result as one checksummed snapshot stream, each stats struct
    /// written by its own [`Snapshot`] impl: the result store's entry
    /// payload. `check` and `sanitizer` are not written, since runs with
    /// either never go through the store.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let MixResult {
            cores,
            llc,
            dram,
            energy,
            dbi,
            rewrite_filter,
            check: _,
            sanitizer: _,
            records_processed,
        } = self;
        let mut w = SnapWriter::new();
        w.usize(cores.len());
        for core in cores {
            core.snapshot(&mut w);
        }
        // Ahead of the LLC stats, whose restore checks it.
        w.usize(llc.dram_writes_per_core.len());
        llc.snapshot(&mut w);
        dram.snapshot(&mut w);
        energy.snapshot(&mut w);
        write_optional(&mut w, dbi.as_ref());
        write_optional(&mut w, rewrite_filter.as_ref());
        w.u64(*records_processed);
        w.finish()
    }

    /// Decodes a [`MixResult::to_bytes`] stream, with `check` and
    /// `sanitizer` `None`.
    ///
    /// # Errors
    ///
    /// A [`SnapError`] for a bad checksum, a truncated stream, trailing
    /// bytes, a bool byte other than 0 or 1, or a core or per-core counter
    /// count above [`MAX_CORES`] (or of no cores).
    pub fn from_bytes(bytes: &[u8]) -> Result<MixResult, SnapError> {
        let mut r = SnapReader::new(bytes)?;
        let cores = (0..count(&mut r, "cores", 1)?)
            .map(|_| restored(&mut r))
            .collect::<Result<_, _>>()?;
        let mut llc = LlcStats {
            dram_writes_per_core: vec![0; count(&mut r, "per-core write counters", 0)?],
            ..LlcStats::default()
        };
        llc.restore(&mut r)?;
        // The fields are read in the order they are written here.
        let result = MixResult {
            cores,
            llc,
            dram: restored(&mut r)?,
            energy: restored(&mut r)?,
            dbi: r.bool()?.then(|| restored(&mut r)).transpose()?,
            rewrite_filter: r.bool()?.then(|| restored(&mut r)).transpose()?,
            check: None,
            sanitizer: None,
            records_processed: r.u64()?,
        };
        r.finish()?;
        Ok(result)
    }
}

/// Reads a per-core count, which lies in `min..=MAX_CORES`.
fn count(r: &mut SnapReader<'_>, what: &str, min: usize) -> Result<usize, SnapError> {
    let n = r.u64()?;
    usize::try_from(n)
        .ok()
        .filter(|n| (min..=MAX_CORES).contains(n))
        .ok_or_else(|| SnapError::Corrupt(format!("{n} {what}")))
}

/// Writes `value` behind a presence flag.
fn write_optional(w: &mut SnapWriter, value: Option<&impl Snapshot>) {
    w.bool(value.is_some());
    if let Some(value) = value {
        value.snapshot(w);
    }
}

/// A `T` restored from its default.
fn restored<T: Snapshot + Default>(r: &mut SnapReader<'_>) -> Result<T, SnapError> {
    let mut value = T::default();
    value.restore(r)?;
    Ok(value)
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
struct RunState {
    steps: u64,
    measuring: bool,
    /// Cores still below the warmup quota.
    warming: usize,
    /// Cores with an end snapshot.
    finished: usize,
    base: Vec<CoreSnapshot>,
    end: Vec<Option<CoreSnapshot>>,
    llc_base: LlcStats,
    dram_base: DramStats,
    energy_base: DramEnergy,
    dbi_base: Option<DbiStats>,
}

impl RunState {
    fn cold(sys: &System) -> RunState {
        let warm = sys.config.warmup_insts;
        RunState {
            steps: 0,
            measuring: false,
            warming: sys.cores.iter().filter(|c| c.insts < warm).count(),
            finished: 0,
            base: Vec::new(),
            end: Vec::new(),
            llc_base: sys.llc.stats().clone(),
            dram_base: DramStats::default(),
            energy_base: DramEnergy::default(),
            dbi_base: None,
        }
    }
}

/// Where [`System::micro_step`] takes each core's next record from.
enum Feed<'a> {
    /// Produced on demand by the system's own front ends, its writebacks
    /// into this scratch, so the front ends' state always equals the
    /// consumed state.
    Inline(Vec<u64>),
    /// Read from the cores' rings, which a helper thread fills by running
    /// the front ends ahead.
    Ring(&'a Pipe, &'a mut [Reader]),
    /// Produced on demand as `Inline`, and each record's words also
    /// written to the recorder's streams.
    Record(&'a mut FrontRecorder),
    /// Read from streams an earlier run with the same front key recorded;
    /// a core's front end catches up and runs inline only when its stream
    /// runs out or fails a check.
    Replay(&'a mut FrontReplay),
}

/// How [`System::drive`] feeds the back end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    /// One thread, [`Feed::Inline`].
    Inline,
    /// A helper thread fills rings of `words` words per core.
    Ring { words: usize },
}

/// The assembled simulation.
#[derive(Debug)]
pub struct System {
    config: SystemConfig,
    /// Each core's trace generator and private caches.
    fronts: Vec<Front>,
    /// Each core's timing model and counters.
    cores: Vec<CoreEngine>,
    /// `cores[i].cycle`, kept dense for the per-record pick of the
    /// earliest core.
    cycles: Vec<u64>,
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
    /// Panics if the mix has more benchmarks than configured cores, or if
    /// its highest block is beyond the 32-bit tags of the L1, L2 or LLC.
    #[must_use]
    pub fn new(mix: &WorkloadMix, config: &SystemConfig) -> Self {
        System::with_llc(mix, config, SharedLlc::new(config))
    }

    /// [`System::new`], failing instead of aborting when the LLC's tag
    /// store cannot be allocated (an LLC size from user input).
    ///
    /// # Errors
    ///
    /// Returns the allocator's error for the LLC tag store.
    ///
    /// # Panics
    ///
    /// As [`System::new`].
    pub fn try_new(mix: &WorkloadMix, config: &SystemConfig) -> Result<Self, TryReserveError> {
        Ok(System::with_llc(mix, config, SharedLlc::try_new(config)?))
    }

    fn with_llc(mix: &WorkloadMix, config: &SystemConfig, llc: SharedLlc) -> Self {
        assert!(
            mix.cores() <= config.cores,
            "mix has {} benchmarks but the system has {} cores",
            mix.cores(),
            config.cores
        );
        let mut fronts = Vec::with_capacity(mix.cores());
        let mut cores = Vec::with_capacity(mix.cores());
        let (mut offset, mut highest) = (0u64, 0u64);
        for (i, &bench) in mix.benchmarks().iter().enumerate() {
            let seed = config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let generator = TraceGenerator::from_benchmark(bench, seed);
            let space = generator.address_space_blocks();
            fronts.push(Front::new(i as u8, generator, offset, config));
            cores.push(CoreEngine::new(i as u8, bench.label().to_string(), config));
            highest = highest.max((offset + space).saturating_sub(1));
            offset += space.div_ceil(CORE_REGION_ALIGN) * CORE_REGION_ALIGN;
        }
        if let Some(front) = fronts.first() {
            for (level, cache) in front.private_caches() {
                assert_tags_reach(level, cache.config(), highest);
            }
        }
        assert_tags_reach("LLC", llc.cache().config(), highest);
        System {
            config: config.clone(),
            fronts,
            cycles: vec![0; cores.len()],
            cores,
            llc,
            dram: MemoryController::new(config.dram.clone()),
            checker: config.check.then(VersionChecker::new),
        }
    }

    /// Executes core `i`'s next record from `feed`; `steps` counts
    /// records across the run so the sanitizer can scan every
    /// `sanitize_interval` records.
    fn step(&mut self, i: usize, steps: &mut u64, feed: &mut Feed<'_>) {
        let core = &mut self.cores[i];
        match feed {
            Feed::Inline(writebacks) => {
                let record = self.fronts[i].produce(writebacks);
                core.execute(
                    record,
                    writebacks.drain(..),
                    &mut self.llc,
                    &mut self.dram,
                    self.checker.as_mut(),
                );
            }
            Feed::Ring(pipe, readers) => {
                readers[i].replay(pipe, i, core, &mut self.llc, &mut self.dram);
            }
            Feed::Record(recorder) => {
                recorder.step(i, &mut self.fronts[i], core, &mut self.llc, &mut self.dram);
            }
            Feed::Replay(replay) => {
                replay.step(i, &mut self.fronts[i], core, &mut self.llc, &mut self.dram);
            }
        }
        self.cycles[i] = core.cycle;
        *steps += 1;
        if self.config.sanitize && steps.is_multiple_of(self.config.sanitize_interval.max(1)) {
            self.llc.sanitizer_scan();
        }
    }

    /// The core with the lowest cycle, the first such on a tie.
    fn argmin_cycle(&self) -> usize {
        self.cycles
            .iter()
            .enumerate()
            .min_by_key(|&(_, &c)| c)
            .map(|(i, _)| i)
            .expect("at least one core")
    }

    /// Runs warmup + measurement and returns the measured results.
    ///
    /// Cores that finish their measurement quota keep running (and keep
    /// generating interference) until every core has finished, following
    /// the standard multi-programmed methodology.
    ///
    /// When the process has a CPU to spare and the shadow-memory check is
    /// off, the cores' front ends run ahead on a helper thread; the
    /// results are the same either way.
    ///
    /// # Panics
    ///
    /// Panics if the configured measurement window is empty.
    #[must_use]
    pub fn run(self) -> MixResult {
        self.run_with_streams(None)
    }

    /// [`System::run`], recording the front ends' streams into `streams`
    /// or taking the records from them instead of running the front ends.
    /// Either happens only if the run has the streams' front key and runs
    /// without the shadow-memory check (its final flush reads L1/L2);
    /// otherwise the run ignores them, and a recording stays unfinished.
    /// The result is the same either way.
    ///
    /// This is where the form is chosen: the front ends run ahead on a
    /// helper thread only when nothing reads them before the run ends —
    /// no shadow-memory check, no streams — and the process has a CPU to
    /// spare.
    ///
    /// # Panics
    ///
    /// As [`System::run`].
    #[must_use]
    pub fn run_with_streams(self, streams: Option<&mut FrontStreams>) -> MixResult {
        let streams = streams.filter(|s| {
            self.checker.is_none()
                && *s.key() == FrontKey::of(self.cores.iter().map(|c| &*c.benchmark), &self.config)
        });
        let mut claim = CpuClaim::simulation();
        let form = if streams.is_none() && self.checker.is_none() && claim.helper() {
            Form::Ring { words: RING_WORDS }
        } else {
            Form::Inline
        };
        self.drive(form, streams)
    }

    /// Runs to the end in the given form, an inline one writing or
    /// reading `streams`.
    fn drive(mut self, form: Form, streams: Option<&mut FrontStreams>) -> MixResult {
        assert!(
            self.config.measure_insts > 0,
            "measurement window must be nonempty"
        );
        let mut st = RunState::cold(&self);
        match (form, streams) {
            (Form::Inline, None) => self.steps(&mut st, &mut Feed::Inline(Vec::new())),
            (Form::Inline, Some(FrontStreams::Record(recorder))) => {
                self.steps(&mut st, &mut Feed::Record(&mut *recorder));
                recorder.complete(&mut self.fronts);
            }
            (Form::Inline, Some(FrontStreams::Replay(replay))) => {
                self.steps(&mut st, &mut Feed::Replay(replay));
            }
            (Form::Ring { words }, streams) => {
                assert!(
                    self.checker.is_none() && streams.is_none(),
                    "the shadow-memory check and recorded streams run inline"
                );
                // The front ends end up ahead of the consumed records, so
                // they do not go back: only the check reads them.
                let mut fronts = std::mem::take(&mut self.fronts);
                let mut writers: Vec<Writer> = fronts.iter().map(Writer::new).collect();
                let mut readers = vec![Reader::default(); fronts.len()];
                let pipe = Pipe::new(fronts.len(), words);
                std::thread::scope(|s| {
                    // Stops the helper however this thread leaves the scope.
                    let _closer = pipe.closer();
                    std::thread::Builder::new()
                        .stack_size(HELPER_STACK)
                        .spawn_scoped(s, || pipe.fill(&mut fronts, &mut writers))
                        .expect("spawn the trace front-end thread");
                    self.steps(&mut st, &mut Feed::Ring(&pipe, &mut readers));
                });
            }
        }
        self.finish(&st)
    }

    /// The drive loop, the only code that calls [`System::micro_step`]:
    /// steps the run to its end.
    fn steps(&mut self, st: &mut RunState, feed: &mut Feed<'_>) {
        while self.micro_step(st, feed) {}
    }

    /// Advances the run by exactly one trace record, performing the
    /// warmup→measure transition when it falls due. Returns `false` once
    /// the run is complete (every core has retired its measurement quota)
    /// — a terminal state; further calls stay `false` and step nothing.
    ///
    /// Sanitizer scan points and measurement boundaries derive only from
    /// `st`, never from wall-clock time, so every form of a run steps the
    /// same sequence.
    fn micro_step(&mut self, st: &mut RunState, feed: &mut Feed<'_>) -> bool {
        let warm = self.config.warmup_insts;
        if !st.measuring {
            if st.warming > 0 {
                let i = self.argmin_cycle();
                let below = self.cores[i].insts < warm;
                self.step(i, &mut st.steps, feed);
                if below && self.cores[i].insts >= warm {
                    st.warming -= 1;
                }
                return true;
            }
            // Warmup boundary: capture measurement baselines, then fall
            // straight through into the measurement phase — the next
            // record executes in this same call, exactly as the scalar
            // loop ran before the phases were split into micro-steps.
            st.base = (0..self.cores.len()).map(|i| self.measured(i)).collect();
            st.end = vec![None; self.cores.len()];
            st.llc_base = self.llc.stats().clone();
            st.dram_base = *self.dram.stats();
            st.energy_base = *self.dram.energy();
            st.dbi_base = self.llc.dbi().map(|d| *d.stats());
            st.measuring = true;
        }
        if st.finished >= self.cores.len() {
            return false;
        }
        let measure = self.config.measure_insts;
        let i = self.argmin_cycle();
        self.step(i, &mut st.steps, feed);
        // A core's instructions never fall below its baseline; a sum
        // could wrap past `u64::MAX`.
        if st.end[i].is_none() && self.cores[i].insts - st.base[i].0 >= measure {
            st.end[i] = Some(self.measured(i));
            st.finished += 1;
        }
        true
    }

    /// Core `i`'s measured counters as they stand.
    fn measured(&self, i: usize) -> CoreSnapshot {
        let c = &self.cores[i];
        let writes = self.llc.stats().dram_writes_per_core[i];
        (c.insts, c.cycle, c.llc_reads, c.llc_read_misses, writes)
    }

    /// Folds a completed run into its measured results — the stat diffs
    /// against the warmup baselines, plus the end-of-run verification
    /// passes (mutating: the checker flushes the hierarchy).
    ///
    /// # Panics
    ///
    /// Panics if the run has not finished (some core has no end snapshot).
    fn finish(mut self, st: &RunState) -> MixResult {
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
        let now = self.cycles.iter().copied().max().unwrap_or(0);
        let mut blocks = Vec::new();
        for (front, core) in self.fronts.iter_mut().zip(&self.cores) {
            front.flush_private(&mut blocks);
            for block in blocks.drain(..) {
                self.llc.writeback(
                    block,
                    core.thread,
                    core.cycle,
                    &mut self.dram,
                    self.checker.as_mut(),
                );
            }
        }
        self.llc
            .flush_dirty(now, &mut self.dram, self.checker.as_mut());
        self.dram.flush(now);
        self.checker.as_ref().expect("checker enabled").verify()
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

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::Duration;

    use super::*;
    use crate::config::Mechanism;
    use crate::faults::{FaultClass, FaultPlan};

    fn small(cores: usize, mechanism: Mechanism) -> (WorkloadMix, SystemConfig) {
        let mix = WorkloadMix::new(
            (0..cores)
                .map(|i| Benchmark::ALL[(i * 5 + 3) % Benchmark::ALL.len()])
                .collect(),
        );
        let mut config = SystemConfig::for_cores(cores, mechanism);
        config.warmup_insts = 20_000;
        config.measure_insts = 20_000;
        (mix, config)
    }

    /// `sys` run to the end in the given form.
    fn run_as(sys: System, form: Form) -> MixResult {
        sys.drive(form, None)
    }

    fn digest(mix: &WorkloadMix, config: &SystemConfig, form: Form) -> String {
        run_as(System::new(mix, config), form).digest()
    }

    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn ring_and_inline_runs_agree_on_every_configuration() {
        let ring = Form::Ring { words: RING_WORDS };
        for mechanism in Mechanism::ALL {
            for cores in [1, 2, 4, 8] {
                for l2_dbi in [false, true] {
                    for sanitize in [false, true] {
                        for fault in [None, Some(FaultPlan::new(FaultClass::DropWriteback, 7))] {
                            let (mix, mut config) = small(cores, mechanism);
                            config.l2_dbi = l2_dbi;
                            config.sanitize = sanitize;
                            config.fault = fault;
                            let case = format!(
                                "{mechanism} × {cores} cores, L2 DBI {l2_dbi}, \
                                 sanitizer {sanitize}, fault {fault:?}"
                            );
                            let inline = digest(&mix, &config, Form::Inline);
                            assert_eq!(digest(&mix, &config, ring), inline, "{case}");
                        }
                    }
                }
            }
        }
    }

    /// A fresh directory for recorded streams, removed on drop.
    struct SpillDir(std::path::PathBuf);

    impl SpillDir {
        fn new(tag: &str) -> SpillDir {
            let dir = std::env::temp_dir()
                .join(format!("system-sim-streams-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create a stream directory");
            SpillDir(dir)
        }

        /// A copy of `self` named `tag`, with `edit` applied to the bytes
        /// of core `core`'s stream.
        fn edited(&self, tag: &str, core: usize, edit: impl Fn(&mut Vec<u8>)) -> SpillDir {
            let copy = SpillDir::new(tag);
            for entry in std::fs::read_dir(&self.0).expect("read the streams") {
                let path = entry.expect("a stream").path();
                let mut bytes = std::fs::read(&path).expect("read a stream");
                if path.ends_with(format!("core{core}.words")) {
                    edit(&mut bytes);
                }
                std::fs::write(copy.0.join(path.file_name().expect("a name")), bytes)
                    .expect("write a stream");
            }
            copy
        }
    }

    impl Drop for SpillDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Runs `mix` on `config`, recording its front ends into `dir`.
    fn recorded(mix: &WorkloadMix, config: &SystemConfig, dir: &SpillDir) -> MixResult {
        let key = crate::core::FrontKey::new(mix, config);
        let recorder = FrontRecorder::create(&dir.0, &key).expect("create the streams");
        let mut streams = FrontStreams::Record(recorder);
        let result = System::new(mix, config).run_with_streams(Some(&mut streams));
        let FrontStreams::Record(recorder) = streams else {
            unreachable!("still the recorder")
        };
        recorder.finish().expect("a whole recording");
        result
    }

    /// The streams in `dir` of `mix` on `config`, opened for replay.
    fn replay_of(mix: &WorkloadMix, config: &SystemConfig, dir: &SpillDir) -> FrontStreams {
        let key = crate::core::FrontKey::new(mix, config);
        FrontStreams::Replay(FrontReplay::open(&dir.0, &key).expect("open the streams"))
    }

    fn records_replayed(streams: &FrontStreams) -> u64 {
        match streams {
            FrontStreams::Replay(replay) => replay.records_replayed(),
            FrontStreams::Record(_) => 0,
        }
    }

    /// The digest of `mix` on `config` replaying `dir`, and the records
    /// replayed.
    fn replayed(mix: &WorkloadMix, config: &SystemConfig, dir: &SpillDir) -> (String, u64) {
        let mut streams = replay_of(mix, config, dir);
        let result = System::new(mix, config).run_with_streams(Some(&mut streams));
        (result.digest(), records_replayed(&streams))
    }

    #[test]
    fn replayed_streams_agree_with_inline_runs_on_every_mechanism() {
        for cores in [1, 2, 4, 8] {
            for l2_dbi in [false, true] {
                let (mix, mut leader) = small(cores, Mechanism::Baseline);
                leader.l2_dbi = l2_dbi;
                let tag = format!("{cores}-{l2_dbi}");
                let full = SpillDir::new(&tag);
                let recorded = recorded(&mix, &leader, &full);
                assert_eq!(
                    recorded.digest(),
                    run_as(System::new(&mix, &leader), Form::Inline).digest(),
                    "recording {tag}"
                );
                // The last core's stream ends halfway through a chunk; a
                // byte in the middle of core 0's stream is flipped.
                let truncated = full.edited(&format!("{tag}-cut"), cores - 1, |bytes| {
                    bytes.truncate(bytes.len() / 2 + 5);
                });
                let flipped = full.edited(&format!("{tag}-flip"), 0, |bytes| {
                    let mid = bytes.len() / 2;
                    bytes[mid] ^= 0x10;
                });
                for mechanism in Mechanism::ALL {
                    let mut config = leader.clone();
                    config.mechanism = mechanism;
                    let case = format!("{mechanism} × {cores} cores, L2 DBI {l2_dbi}");
                    let inline = run_as(System::new(&mix, &config), Form::Inline);
                    let (digest, records) = replayed(&mix, &config, &full);
                    assert_eq!(digest, inline.digest(), "{case}, whole streams");
                    assert!(records > 0, "{case} replayed nothing");
                    for (streams, what) in [(&truncated, "truncated"), (&flipped, "flipped")] {
                        let (digest, records) = replayed(&mix, &config, streams);
                        assert_eq!(digest, inline.digest(), "{case}, {what} stream");
                        assert!(records < inline.records_processed, "{case}, {what}");
                    }
                }
            }
        }
    }

    /// Core by core, the words of the first `records` records that `mix`'s
    /// front ends produce on `config`.
    fn front_words(mix: &WorkloadMix, config: &SystemConfig, records: usize) -> Vec<Vec<u64>> {
        let mut sys = System::new(mix, config);
        let mut words = Vec::new();
        sys.fronts
            .iter_mut()
            .map(|front| {
                let mut stream = Vec::new();
                for _ in 0..records {
                    crate::feed::encode_next(front, &mut words);
                    stream.extend_from_slice(&words);
                }
                stream
            })
            .collect()
    }

    #[test]
    fn the_front_key_holds_exactly_what_the_front_ends_read() {
        use crate::core::FrontKey;
        use cache_sim::ReplacementKind;
        use dbi::{Alpha, DbiReplacementPolicy};

        type Flip = (&'static str, fn(&mut SystemConfig));
        let (mix, base) = small(2, Mechanism::Baseline);
        // Naming every field here makes a new one fail to compile until it
        // is added to one of the two lists below.
        let SystemConfig {
            cores: _,
            mechanism: _,
            llc_bytes_per_core: _,
            llc_ways: _,
            llc_replacement: _,
            l1_bytes: _,
            l1_ways: _,
            l2_bytes: _,
            l2_ways: _,
            block_bytes: _,
            latencies: _,
            dbi: _,
            dram: _,
            window_insts: _,
            mshrs: _,
            predictor_epoch_cycles: _,
            predictor_threshold: _,
            awb_rewrite_filter: _,
            l2_dbi: _,
            warmup_insts: _,
            measure_insts: _,
            seed: _,
            check: _,
            sanitize: _,
            sanitize_interval: _,
            fault: _,
        } = &base;
        let outside: [Flip; 19] = [
            ("cores", |c| c.cores = 4),
            ("mechanism", |c| {
                c.mechanism = Mechanism::Dbi {
                    awb: true,
                    clb: true,
                }
            }),
            ("llc_bytes_per_core", |c| c.llc_bytes_per_core *= 2),
            ("llc_ways", |c| c.llc_ways = 16),
            ("llc_replacement", |c| {
                c.llc_replacement = ReplacementKind::Rrip
            }),
            ("latencies", |c| c.latencies.l2 += 3),
            ("dbi without an L2 DBI", |c| c.dbi.granularity = 32),
            ("dram", |c| c.dram.write_buffer_capacity /= 2),
            ("window_insts", |c| c.window_insts = 64),
            ("mshrs", |c| c.mshrs = 8),
            ("predictor_epoch_cycles", |c| {
                c.predictor_epoch_cycles = 1000
            }),
            ("predictor_threshold", |c| c.predictor_threshold = 0.5),
            ("awb_rewrite_filter", |c| c.awb_rewrite_filter = true),
            ("warmup_insts", |c| c.warmup_insts = 1),
            ("measure_insts", |c| c.measure_insts = 1),
            ("check", |c| c.check = true),
            ("sanitize", |c| c.sanitize = true),
            ("sanitize_interval", |c| c.sanitize_interval = 1),
            ("fault", |c| {
                c.fault = Some(FaultPlan::new(FaultClass::DropWriteback, 7));
            }),
        ];
        let inside: [Flip; 11] = [
            ("seed", |c| c.seed += 1),
            ("l1_bytes", |c| c.l1_bytes *= 2),
            ("l1_ways", |c| c.l1_ways *= 2),
            ("l2_bytes", |c| c.l2_bytes *= 2),
            ("l2_ways", |c| c.l2_ways *= 2),
            ("block_bytes", |c| c.block_bytes *= 2),
            ("l2_dbi", |c| c.l2_dbi = true),
            ("dbi.alpha under an L2 DBI", |c| {
                c.l2_dbi = true;
                c.dbi.alpha = Alpha::HALF;
            }),
            ("dbi.granularity under an L2 DBI", |c| {
                c.l2_dbi = true;
                c.dbi.granularity = 32;
            }),
            ("dbi.associativity under an L2 DBI", |c| {
                c.l2_dbi = true;
                c.dbi.associativity = 8;
            }),
            ("dbi.policy under an L2 DBI", |c| {
                c.l2_dbi = true;
                c.dbi.policy = DbiReplacementPolicy::MaxDirty;
            }),
        ];
        let key = FrontKey::new(&mix, &base);
        let words = front_words(&mix, &base, 2_000);
        for (field, flip) in outside {
            let mut config = base.clone();
            flip(&mut config);
            assert_eq!(FrontKey::new(&mix, &config), key, "{field}");
            assert_eq!(front_words(&mix, &config, 2_000), words, "{field}");
        }
        let mut with_l2_dbi = base.clone();
        with_l2_dbi.l2_dbi = true;
        let l2_dbi_key = FrontKey::new(&mix, &with_l2_dbi);
        for (field, flip) in inside {
            let mut config = base.clone();
            flip(&mut config);
            let changed = FrontKey::new(&mix, &config);
            if field.starts_with("dbi.") {
                assert_ne!(changed, l2_dbi_key, "{field}");
            } else {
                assert_ne!(changed, key, "{field}");
            }
        }
        let reversed = WorkloadMix::new(mix.benchmarks().iter().rev().copied().collect());
        assert_ne!(FrontKey::new(&reversed, &base), key, "benchmark order");
        let fewer = WorkloadMix::new(mix.benchmarks()[..1].to_vec());
        assert_ne!(FrontKey::new(&fewer, &base), key, "benchmarks");
    }

    /// A window too long to ever close keeps the run going: the test that
    /// closes a core's window subtracts the core's baseline, where a sum
    /// would wrap past `u64::MAX` and close the window after one record.
    #[test]
    fn an_endless_window_never_closes() {
        let (mix, mut config) = small(1, Mechanism::Baseline);
        config.warmup_insts = 10_000;
        config.measure_insts = u64::MAX;
        let mut sys = System::new(&mix, &config);
        let mut st = RunState::cold(&sys);
        let mut feed = Feed::Inline(Vec::new());
        for _ in 0..50_000 {
            assert!(sys.micro_step(&mut st, &mut feed), "the run ended");
        }
        assert!(st.measuring, "the run never reached its window");
        assert_eq!(st.finished, 0, "the window closed");
    }

    #[test]
    fn the_checked_runs_keep_their_pinned_digests() {
        // Runs with the shadow-memory check and the sanitizer. The pinned
        // FNV-1a hash of the nine mechanisms' digests was taken with the
        // front ends executing each record on their back ends directly, so
        // it holds the checker's inputs and verdict, and the sanitizer's
        // report, to that older record path.
        let mut digests = String::new();
        for mechanism in Mechanism::ALL {
            let (mix, mut config) = small(4, mechanism);
            config.check = true;
            config.sanitize = true;
            config.measure_insts = 100_000;
            let result = System::new(&mix, &config).run();
            assert_eq!(result.check, Some(Ok(())), "{mechanism}");
            digests.push_str(&result.digest());
        }
        assert_eq!(fnv1a(&digests), 0xbec6_ef1f_74fc_f557);
    }

    #[test]
    fn tiny_rings_wrap_and_hand_over_every_word() {
        // Under the L2 DBI one record can carry whole-row writeback batches,
        // far longer than these rings.
        let (mix, mut config) = small(
            4,
            Mechanism::Dbi {
                awb: true,
                clb: true,
            },
        );
        config.l2_dbi = true;
        let inline = digest(&mix, &config, Form::Inline);
        for words in 1..=4 {
            assert_eq!(
                digest(&mix, &config, Form::Ring { words }),
                inline,
                "{words}-word rings"
            );
        }
    }

    #[test]
    fn vwq_sweeps_reproduce_the_per_block_walk() {
        // A 1 MiB LLC makes VWQ sweep thousands of blocks in a short run.
        // The pinned FNV-1a hash of the digest comes from a sweep that
        // tested every block of the row; walking the SSV words must give
        // the same run.
        let mix = WorkloadMix::new(vec![
            Benchmark::Lbm,
            Benchmark::Stream,
            Benchmark::GemsFdtd,
            Benchmark::Soplex,
        ]);
        let mut config = SystemConfig::for_cores(4, Mechanism::Vwq);
        config.llc_bytes_per_core = 256 * 1024;
        config.warmup_insts = 100_000;
        config.measure_insts = 100_000;
        let result = run_as(System::new(&mix, &config), Form::Inline);
        assert_eq!(result.llc.sweep_writebacks, 3727);
        assert_eq!(fnv1a(&result.digest()), 0x8036_a17e_ace4_6aa9);
    }

    /// Runs `sys` in ring form on its own thread and returns whether it
    /// panicked, failing the test if it takes longer than a few seconds.
    fn ring_run_panics(sys: System) -> bool {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| run_as(sys, Form::Ring { words: 64 })));
            let _ = tx.send(outcome.is_err());
        });
        rx.recv_timeout(Duration::from_secs(20))
            .expect("a panicking ring run must end, not hang")
    }

    #[test]
    fn a_front_end_panic_fails_the_run() {
        let (mix, config) = small(2, Mechanism::Baseline);
        let mut sys = System::new(&mix, &config);
        // Beyond the L1's 32-bit tags: the first L1 fill panics, on the
        // helper thread.
        sys.fronts[1].offset_for_test(1 << 40);
        assert!(ring_run_panics(sys));
    }

    #[test]
    fn a_back_end_panic_fails_the_run() {
        let (mix, config) = small(2, Mechanism::Baseline);
        let mut sys = System::new(&mix, &config);
        // An LLC of 8 sets tags fewer blocks than the L1 and L2 do: the
        // first LLC fill of a block past 2^37 panics, on the driving thread.
        let mut tiny = config.clone();
        tiny.llc_bytes_per_core = 8 * 1024;
        sys.llc = SharedLlc::new(&tiny);
        sys.fronts[1].offset_for_test(1 << 37);
        assert!(ring_run_panics(sys));
    }
}
