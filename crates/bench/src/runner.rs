//! The unified experiment runner: a work-list scheduler over simulation
//! units, backed by the persistent result store.
//!
//! Binaries used to nest their loops — `for mechanism { for mix { run } }`
//! — which parallelized (at best) across mixes while mechanisms ran
//! serially. The runner inverts that structure: a binary flattens *all* of
//! its `(mechanism × mix × seed)` points into one `Vec<RunUnit>` and hands
//! the list to [`Runner::run_units`], which drives it through
//! `parallel_map`. Mechanisms, mixes, and core counts all overlap; the
//! wall clock is bounded by total work over available cores instead of by
//! the slowest mechanism's serial leg.
//!
//! Each unit is first looked up in the [`ResultStore`]; only misses
//! simulate, and their results are written back for every later binary
//! (and rerun) to reuse. Observability: a progress/ETA line on stderr
//! while a work list drains, and a machine-parseable summary at exit —
//! `runner[NAME]: units=U hits=H sims=S ...` — that CI greps to assert a
//! warm store performs zero simulations.
//!
//! # Crash tolerance
//!
//! A multi-hour sweep must not lose hours of completed work to one bad
//! unit. Every simulation therefore runs under a guard: panics are caught
//! ([`std::panic::catch_unwind`]) and, when a watchdog limit is set, the
//! unit runs on its own thread so a wall-clock overrun can be detected
//! (the overrunning thread is abandoned — threads cannot be killed — and
//! its eventual result discarded). A failed unit gets exactly one retry
//! after a jittered backoff; failing again *quarantines* it: the failure
//! is recorded, every other unit still completes and reaches the store,
//! and the process exits nonzero after printing its summary. The
//! summary's `failed=K quarantined=[...]` fields, like `sims=`, are
//! machine-parseable.
//!
//! # Checkpoints
//!
//! Units are also resumable *within* themselves: while a unit simulates,
//! the runner writes a deterministic snapshot of the complete system
//! state to `<key>.ckpt` in the store directory on an *adaptive
//! wall-clock cadence* — by default every
//! [`DEFAULT_CHECKPOINT_TARGET`] of elapsed time per unit (override with
//! `--checkpoint-secs`, or pin a record-based cadence with
//! [`Runner::with_checkpoint_every`]). Measuring the interval per unit in
//! wall time rather than records bounds loss evenly across mechanisms of
//! very different speeds. A killed process (`kill -9` included) therefore
//! loses at most one checkpoint interval per in-flight unit — the rerun
//! restores each snapshot and continues,
//! and the sim crate's round-trip tests prove the resumed result is
//! bit-identical to a straight-through run. SIGINT/SIGTERM are handled
//! gracefully: in-flight units suspend at their next checkpoint, queued
//! units are skipped, the summary carries an `interrupted=` marker, and
//! the process exits `128 + signal`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use system_sim::{
    run_mix, splitmix64, CheckpointCadence, FaultPlan, Mechanism, MixResult, SessionOutcome,
    SimSession, SystemConfig,
};
use trace_gen::mix::WorkloadMix;
use trace_gen::Benchmark;

use crate::failpoints::{self, FailPlan as IoFailPlan};
use crate::store::{unit_key, ResultStore, StoreKey};
use crate::{parallel_map_jobs, BenchArgs};

/// Default wall-clock time between checkpoints of an in-flight unit
/// (override per campaign with `--checkpoint-secs`).
pub const DEFAULT_CHECKPOINT_TARGET: Duration = Duration::from_secs(5);

/// Records between clock probes under the wall-clock cadence: cheap
/// enough that the hot loop never notices the `Instant::now()` calls,
/// frequent enough (milliseconds at realistic speeds) that the measured
/// interval barely overshoots the target.
const CHECKPOINT_PROBE_RECORDS: u64 = 8192;

/// How stale a `.tmp-*` temp file must be before runner startup collects
/// it as an orphan. Generous: a concurrent runner sharing the store holds
/// its temp name for milliseconds, crashed runs forever.
const TMP_ORPHAN_AGE: Duration = Duration::from_secs(900);

/// Base delay before a failed unit's single retry (jittered ×1–2).
const RETRY_BACKOFF: Duration = Duration::from_millis(250);

/// The last fatal signal received (SIGINT=2 / SIGTERM=15); 0 when none.
static INTERRUPT_SIGNAL: AtomicI32 = AtomicI32::new(0);

/// The signal that interrupted this process, if any. Set asynchronously
/// by the handlers [`Runner::new`] installs; the runner polls it between
/// units and at every checkpoint.
#[must_use]
pub fn interrupted() -> Option<i32> {
    match INTERRUPT_SIGNAL.load(Ordering::Relaxed) {
        0 => None,
        sig => Some(sig),
    }
}

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // Only stores to an atomic — async-signal-safe.
    extern "C" fn record(sig: i32) {
        INTERRUPT_SIGNAL.store(sig, Ordering::Relaxed);
    }
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| unsafe {
        signal(2, record); // SIGINT
        signal(15, record); // SIGTERM
    });
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// `base` scaled by a deterministic jitter in [1, 2): units failing
/// together retry spread out instead of stampeding, while the same salt
/// always waits the same time (schedules stay reproducible).
fn jittered(base: Duration, salt: u64) -> Duration {
    let frac = (splitmix64(salt) >> 11) as f64 / (1u64 << 53) as f64;
    base.mul_f64(1.0 + frac)
}

/// One schedulable simulation: a workload on a fully specified system.
#[derive(Debug, Clone)]
pub struct RunUnit {
    /// The multi-programmed workload (one benchmark per core).
    pub mix: WorkloadMix,
    /// The complete system configuration.
    pub config: SystemConfig,
}

impl RunUnit {
    /// A unit running `mix` on `config`.
    #[must_use]
    pub fn new(mix: WorkloadMix, config: SystemConfig) -> RunUnit {
        RunUnit { mix, config }
    }

    /// A single-benchmark unit (the shape of every alone-IPC baseline).
    #[must_use]
    pub fn alone(benchmark: Benchmark, config: SystemConfig) -> RunUnit {
        RunUnit::new(WorkloadMix::new(vec![benchmark]), config)
    }

    fn key(&self) -> StoreKey {
        unit_key(&self.config, self.mix.benchmarks())
    }
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    sims: AtomicU64,
    skipped: AtomicU64,
    resumes: AtomicU64,
    sim_nanos: AtomicU64,
    unit_max_nanos: AtomicU64,
}

/// Why one attempt at a unit failed.
#[derive(Debug, Clone)]
pub enum UnitFault {
    /// The simulation panicked; the payload's message is preserved.
    Panicked(String),
    /// The simulation exceeded the per-unit watchdog limit.
    TimedOut(Duration),
}

impl std::fmt::Display for UnitFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnitFault::Panicked(msg) => write!(f, "panicked: {msg}"),
            UnitFault::TimedOut(limit) => {
                write!(f, "exceeded the {:.0}s watchdog", limit.as_secs_f64())
            }
        }
    }
}

/// A quarantined unit: it failed every allowed attempt, the rest of its
/// work list completed anyway.
#[derive(Debug, Clone)]
pub struct UnitFailure {
    /// The phase label the unit was submitted under.
    pub phase: String,
    /// The unit's index within its work list.
    pub index: usize,
    /// Attempts made (always 2: the run and its one retry).
    pub attempts: u32,
    /// The last attempt's failure.
    pub fault: UnitFault,
}

impl std::fmt::Display for UnitFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unit {} of '{}' quarantined after {} attempts: {}",
            self.index, self.phase, self.attempts, self.fault
        )
    }
}

/// Extracts the human-readable message from a panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload.downcast_ref::<&str>().map_or_else(
        || {
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic payload".to_string())
        },
        |s| (*s).to_string(),
    )
}

/// Everything a simulation needs to write checkpoints. Owned values only:
/// the watchdog path runs the simulation on a `'static` thread, which
/// re-opens its own store handle from `dir`.
#[derive(Debug, Clone)]
struct CheckpointCtx {
    dir: PathBuf,
    key: StoreKey,
    cadence: CheckpointCadence,
    crash_after: Option<Arc<AtomicI64>>,
}

/// Outcome of one guarded simulation attempt that did not fault.
enum SimRun {
    /// Ran to completion; `resumed` records whether it started from a
    /// checkpoint rather than cold.
    Completed {
        result: Box<MixResult>,
        resumed: bool,
    },
    /// Suspended at a durable checkpoint (interrupt, or the test-only
    /// crash budget ran out).
    Suspended,
}

/// Runs one unit, resuming from its checkpoint when a valid one exists
/// and snapshotting on `ctx.cadence`. The checkpoint sink asks the simulator to
/// suspend once the process has been interrupted — the snapshot just
/// written is then the durable resume point. A checkpoint that fails its
/// checksum or belongs to a different configuration is discarded and the
/// unit restarts cold.
fn run_checkpointed(
    mix: &WorkloadMix,
    config: &SystemConfig,
    ctx: Option<&CheckpointCtx>,
) -> SimRun {
    let Some(ctx) = ctx else {
        return SimRun::Completed {
            result: Box::new(run_mix(mix, config)),
            resumed: false,
        };
    };
    let store = ResultStore::open(ctx.dir.clone());
    let mut resume = store.load_checkpoint(&ctx.key);
    loop {
        let resumed = resume.is_some();
        let mut sink = |bytes: &[u8]| {
            if let Err(e) = store.save_checkpoint(&ctx.key, bytes) {
                eprintln!(
                    "warning: could not write checkpoint {:016x}.ckpt: {e}",
                    ctx.key.hash
                );
            }
            if interrupted().is_some() {
                return false;
            }
            if let Some(budget) = &ctx.crash_after {
                if budget.fetch_sub(1, Ordering::Relaxed) <= 1 {
                    return false;
                }
            }
            true
        };
        let session = SimSession::new(mix, config)
            .maybe_resume(resume.as_deref())
            .cadence(ctx.cadence)
            .sink(&mut sink);
        match session.run() {
            Ok(SessionOutcome::Finished(result)) => return SimRun::Completed { result, resumed },
            Ok(SessionOutcome::Suspended) => return SimRun::Suspended,
            Err(e) => {
                eprintln!(
                    "warning: checkpoint {:016x}.ckpt did not restore ({e:?}); cold start",
                    ctx.key.hash
                );
                store.clear_checkpoint(&ctx.key);
                resume = None;
            }
        }
    }
}

/// The per-binary experiment runner. Construct one per `main`, submit
/// every simulation through it, and it prints a cache/timing summary when
/// dropped (or on an explicit [`Runner::finish`]).
#[derive(Debug)]
pub struct Runner {
    name: String,
    store: Option<ResultStore>,
    jobs: Option<usize>,
    /// `--check`: force checker + sanitizer onto every submitted unit.
    check: bool,
    /// `--fault`: inject this plan into every submitted unit.
    fault: Option<FaultPlan>,
    /// Per-unit wall-clock limit; `None` disables the watchdog.
    watchdog: Option<Duration>,
    /// When in-flight units checkpoint (wall-clock by default).
    checkpoint: CheckpointCadence,
    /// Test hook: suspend after this many checkpoint writes.
    crash_after: Option<Arc<AtomicI64>>,
    start: Instant,
    counters: Counters,
    failures: Mutex<Vec<UnitFailure>>,
    finished: AtomicBool,
}

impl Runner {
    /// Creates a runner for the binary `name` (used in progress and
    /// summary lines) from parsed arguments: `--cache-dir`/`--no-cache`
    /// select the store, `--jobs` caps the worker threads,
    /// `--check`/`--fault`/`--watchdog` configure the robustness layer,
    /// and `--checkpoint-secs` sets the checkpoint cadence.
    ///
    /// Also installs the SIGINT/SIGTERM handlers that make interruption
    /// graceful (idempotent, process-wide).
    #[must_use]
    pub fn new(name: &str, args: &BenchArgs) -> Runner {
        install_signal_handlers();
        if let Some(spec) = args.io_fault {
            failpoints::install(IoFailPlan::new(spec, args.io_fault_seed));
        }
        let store = args.store_dir().map(ResultStore::open);
        if let Some(store) = &store {
            // Collect temp files orphaned by crashed earlier runs. The age
            // guard protects the in-flight writes of a live runner sharing
            // the store (a healthy atomic write lives milliseconds).
            store.scavenge(TMP_ORPHAN_AGE);
        }
        Runner {
            name: name.to_string(),
            store,
            jobs: args.jobs,
            check: args.check,
            fault: args.fault_plan(),
            watchdog: args.watchdog(),
            checkpoint: match args.checkpoint_target {
                Some(t) if t.is_zero() => CheckpointCadence::Disabled,
                Some(target) => CheckpointCadence::WallClock {
                    target,
                    probe_records: CHECKPOINT_PROBE_RECORDS,
                },
                None => CheckpointCadence::WallClock {
                    target: DEFAULT_CHECKPOINT_TARGET,
                    probe_records: CHECKPOINT_PROBE_RECORDS,
                },
            },
            crash_after: None,
            start: Instant::now(),
            counters: Counters::default(),
            failures: Mutex::new(Vec::new()),
            finished: AtomicBool::new(false),
        }
    }

    /// Overrides the per-unit watchdog limit (tests exercise the timeout
    /// path with millisecond limits; `None` disables the watchdog).
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: Option<Duration>) -> Runner {
        self.watchdog = watchdog;
        self
    }

    /// Pins a deterministic record-based checkpoint interval instead of
    /// the wall-clock default (0 disables checkpointing; tests use small
    /// intervals to force many snapshots at reproducible step counts).
    #[must_use]
    pub fn with_checkpoint_every(mut self, every: u64) -> Runner {
        self.checkpoint = match every {
            0 => CheckpointCadence::Disabled,
            n => CheckpointCadence::EveryRecords(n),
        };
        self
    }

    /// Test hook: after `n` checkpoint writes (across all units), every
    /// later checkpoint suspends its unit — an in-process stand-in for
    /// `kill -9` that leaves exactly the on-disk state a real kill would.
    #[must_use]
    pub fn with_crash_after_checkpoints(mut self, n: i64) -> Runner {
        self.crash_after = Some(Arc::new(AtomicI64::new(n)));
        self
    }

    /// Simulations performed (store misses) so far.
    #[must_use]
    pub fn sims(&self) -> u64 {
        self.counters.sims.load(Ordering::Relaxed)
    }

    /// Store hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.counters.hits.load(Ordering::Relaxed)
    }

    /// Units not completed in this run: not yet started when an interrupt
    /// arrived, or suspended at a checkpoint.
    #[must_use]
    pub fn skipped(&self) -> u64 {
        self.counters.skipped.load(Ordering::Relaxed)
    }

    /// Completed simulations that resumed from a checkpoint instead of
    /// starting cold.
    #[must_use]
    pub fn resumes(&self) -> u64 {
        self.counters.resumes.load(Ordering::Relaxed)
    }

    /// The unit as actually submitted: the runner-level `--check` /
    /// `--fault` flags applied on top of the unit's own configuration.
    fn effective(&self, unit: &RunUnit) -> RunUnit {
        let mut unit = unit.clone();
        if self.check {
            unit.config.check = true;
            unit.config.sanitize = true;
        }
        if let Some(plan) = self.fault {
            unit.config.fault = Some(plan);
        }
        unit
    }

    /// Runs one unit: store lookup, then simulate-and-save on a miss.
    ///
    /// Units with `config.check` set bypass the store entirely — checker
    /// verdicts are not serializable, and cached runs would skip the very
    /// verification the flag asks for.
    ///
    /// # Panics
    ///
    /// Re-raises a unit failure as a panic; quarantine semantics live in
    /// [`Runner::try_run_units`].
    #[must_use]
    pub fn run_unit(&self, unit: &RunUnit) -> MixResult {
        match self.run_unit_outcome(unit) {
            Ok(Some(result)) => result,
            // Suspended mid-run: only an interrupt does this outside the
            // work-list path, so exit the way a drained list would.
            Ok(None) => self.graceful_exit(),
            Err(fault) => panic!("runner[{}]: unguarded unit {fault}", self.name),
        }
    }

    /// The guarded single-unit path shared by [`Runner::run_unit`] and
    /// [`Runner::try_run_units`]. `Ok(None)` means the unit suspended at
    /// a durable checkpoint rather than completing.
    ///
    /// Sanitized and faulted units bypass the store for the same reason
    /// checked units always have: their reports are not serializable, and
    /// a faulted result must never be served to a clean rerun.
    fn run_unit_outcome(&self, unit: &RunUnit) -> Result<Option<MixResult>, UnitFault> {
        let unit = self.effective(unit);
        if unit.config.check || unit.config.sanitize || unit.config.fault.is_some() {
            return self.simulate(&unit, None);
        }
        let key = unit.key();
        if let Some(store) = &self.store {
            if let Some(result) = store.load(&key) {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Some(result));
            }
        }
        self.simulate(&unit, Some(&key))
    }

    /// One guarded simulation attempt. The store is only written for
    /// completed simulations; a panic or timeout surfaces as `Err`
    /// instead of tearing the process (or the whole work list) down, and
    /// a checkpoint suspension surfaces as `Ok(None)`, counted in
    /// `skipped`.
    fn simulate(
        &self,
        unit: &RunUnit,
        key: Option<&StoreKey>,
    ) -> Result<Option<MixResult>, UnitFault> {
        let t = Instant::now();
        let ckpt = match (&self.store, key) {
            (Some(store), Some(key)) if self.checkpoint != CheckpointCadence::Disabled => {
                Some(CheckpointCtx {
                    dir: store.dir().to_path_buf(),
                    key: key.clone(),
                    cadence: self.checkpoint,
                    crash_after: self.crash_after.clone(),
                })
            }
            _ => None,
        };
        let run = match self.watchdog {
            None => catch_unwind(AssertUnwindSafe(|| {
                run_checkpointed(&unit.mix, &unit.config, ckpt.as_ref())
            }))
            .map_err(|p| UnitFault::Panicked(panic_text(p.as_ref())))?,
            Some(limit) => {
                // The simulation runs on its own thread so an overrun is
                // detectable; a thread cannot be killed, so on timeout it
                // is abandoned and its eventual result discarded.
                let (tx, rx) = std::sync::mpsc::channel();
                let mix = unit.mix.clone();
                let config = unit.config.clone();
                let ckpt = ckpt.clone();
                std::thread::spawn(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        run_checkpointed(&mix, &config, ckpt.as_ref())
                    }))
                    .map_err(|p| panic_text(p.as_ref()));
                    let _ = tx.send(outcome);
                });
                match rx.recv_timeout(limit) {
                    Ok(Ok(run)) => run,
                    Ok(Err(msg)) => return Err(UnitFault::Panicked(msg)),
                    Err(_) => return Err(UnitFault::TimedOut(limit)),
                }
            }
        };
        let (result, resumed) = match run {
            // The checkpoint just written is the durable resume point.
            SimRun::Suspended => {
                self.counters.skipped.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            SimRun::Completed { result, resumed } => (result, resumed),
        };
        let nanos = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.counters.sims.fetch_add(1, Ordering::Relaxed);
        if resumed {
            self.counters.resumes.fetch_add(1, Ordering::Relaxed);
        }
        self.counters.sim_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.counters
            .unit_max_nanos
            .fetch_max(nanos, Ordering::Relaxed);
        if let (Some(store), Some(key)) = (&self.store, key) {
            if let Err(e) = store.save(key, &result) {
                eprintln!(
                    "warning: could not write store entry {}: {e}",
                    store.entry_path(key).display()
                );
            }
            store.clear_checkpoint(key);
        }
        Ok(Some(*result))
    }

    /// The per-unit scheduling decision of a work list: interrupt
    /// pre-check, then the normal lookup/simulate path.
    fn scheduled_outcome(&self, unit: &RunUnit) -> Result<Option<MixResult>, UnitFault> {
        if interrupted().is_some() {
            // Not-yet-started units drain without work, so the process
            // reaches its graceful exit quickly after a signal.
            self.counters.skipped.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        }
        self.run_unit_outcome(unit)
    }

    /// Flushes the summary and exits with the conventional `128 + signal`
    /// code. Completed units are already in the store and every in-flight
    /// unit left a durable checkpoint, so a rerun resumes where this run
    /// stopped.
    fn graceful_exit(&self) -> ! {
        let sig = interrupted().unwrap_or(2);
        eprintln!(
            "runner[{}]: interrupted by signal {sig}; results and checkpoints are flushed, \
             rerun to resume",
            self.name
        );
        self.finish();
        std::process::exit(128 + sig);
    }

    /// Drains a flattened work list in parallel, preserving input order in
    /// the returned results, with a progress/ETA line on stderr.
    ///
    /// A unit that fails both its attempts is **fatal here**: the work
    /// list still drains fully (completed results are already flushed to
    /// the store), but the process then prints its summary and exits
    /// nonzero — callers of this API assume one result per unit. Callers
    /// that want to survive quarantines use [`Runner::try_run_units`].
    ///
    /// An interrupt (SIGINT/SIGTERM) during the drain exits `128+signal`
    /// after the summary.
    #[must_use]
    pub fn run_units(&self, phase: &str, units: &[RunUnit]) -> Vec<MixResult> {
        let (results, failures) = self.try_run_units(phase, units);
        if interrupted().is_some() {
            self.graceful_exit();
        }
        if !failures.is_empty() {
            for failure in &failures {
                eprintln!("runner[{}]: {failure}", self.name);
            }
            self.finish();
            std::process::exit(1);
        }
        if results.iter().any(Option::is_none) {
            // Quarantines exited above, so a missing result is a unit
            // suspended at a durable checkpoint: exit so a rerun resumes it.
            self.graceful_exit();
        }
        results.into_iter().flatten().collect()
    }

    /// Like [`Runner::run_units`], but quarantines failing units instead
    /// of exiting: each unit gets one retry (after a jittered backoff),
    /// and a unit that fails twice yields `None` in the results plus a
    /// [`UnitFailure`] describing why. `None` also marks units skipped
    /// after an interrupt or suspended at a checkpoint — those carry no
    /// `UnitFailure`. Every completed unit is flushed to the store before
    /// this returns, so a crashing sweep loses only the quarantined
    /// units.
    #[must_use]
    pub fn try_run_units(
        &self,
        phase: &str,
        units: &[RunUnit],
    ) -> (Vec<Option<MixResult>>, Vec<UnitFailure>) {
        if units.is_empty() {
            return (Vec::new(), Vec::new());
        }
        let total = units.len();
        let done = AtomicU64::new(0);
        let started = Instant::now();
        let hits_before = self.hits();
        let progress = Progress::new();
        let indices: Vec<usize> = (0..total).collect();
        let outcomes = parallel_map_jobs(&indices, self.jobs, |&i| {
            let unit = &units[i];
            let outcome = self.scheduled_outcome(unit).or_else(|first| {
                eprintln!(
                    "runner[{}]: {phase}: unit {i} {first}; retrying once",
                    self.name
                );
                std::thread::sleep(jittered(RETRY_BACKOFF, i as u64));
                self.run_unit_outcome(unit)
            });
            let d = done.fetch_add(1, Ordering::Relaxed) + 1;
            let cached = self.hits() - hits_before;
            let elapsed = started.elapsed().as_secs_f64();
            // ETA from the units that actually simulated: store hits are
            // near-free, so scale remaining work by the per-unit pace.
            let eta = elapsed / d as f64 * (total - d as usize) as f64;
            progress.report(
                d as usize,
                total,
                &format!(
                    "{}: {phase}: {d}/{total} units ({cached} cached) elapsed {} eta {}",
                    self.name,
                    fmt_secs(elapsed),
                    fmt_secs(eta)
                ),
            );
            outcome.map_err(|fault| UnitFailure {
                phase: phase.to_string(),
                index: i,
                attempts: 2,
                fault,
            })
        });
        progress.close();
        let mut failures = Vec::new();
        let results = outcomes
            .into_iter()
            .map(|outcome| match outcome {
                Ok(result) => result,
                Err(failure) => {
                    failures.push(failure);
                    None
                }
            })
            .collect();
        self.failures
            .lock()
            .expect("failure list lock")
            .extend(failures.iter().cloned());
        (results, failures)
    }

    /// Prints the end-of-run summary (idempotent; also invoked on drop).
    /// The `sims=` field is the machine-readable contract: a warm-store
    /// rerun must report `sims=0`. `skipped=` counts units not completed
    /// in this run (unstarted after an interrupt, or suspended at a
    /// checkpoint), `resumed=` counts
    /// simulations continued from a checkpoint, and `interrupted=` is the
    /// signal number that stopped the run (0 for a clean finish).
    pub fn finish(&self) {
        if self.finished.swap(true, Ordering::Relaxed) {
            return;
        }
        let sims = self.sims();
        let sim_secs = self.counters.sim_nanos.load(Ordering::Relaxed) as f64 / 1e9;
        let unit_max = self.counters.unit_max_nanos.load(Ordering::Relaxed) as f64 / 1e9;
        let unit_mean = if sims == 0 {
            0.0
        } else {
            sim_secs / sims as f64
        };
        let store_desc = self.store.as_ref().map_or_else(
            || "disabled".to_string(),
            |s| format!("{} ({} entries)", s.dir().display(), s.entry_count()),
        );
        let failures = self.failures.lock().expect("failure list lock");
        let quarantined = failures
            .iter()
            .map(|f| format!("{}:{}", f.phase, f.index))
            .collect::<Vec<_>>()
            .join(",");
        let corrupt = self.store.as_ref().map_or(0, ResultStore::corrupt_count);
        let tmp_gc = self.store.as_ref().map_or(0, ResultStore::orphans_removed);
        eprintln!(
            "runner[{}]: units={} hits={} sims={} skipped={} resumed={} interrupted={} \
             sim_wall={} unit_mean={} unit_max={} failed={} quarantined=[{quarantined}] \
             corrupt={corrupt} tmp_gc={tmp_gc} wall={} store={}",
            self.name,
            self.hits() + sims + self.skipped() + failures.len() as u64,
            self.hits(),
            sims,
            self.skipped(),
            self.resumes(),
            INTERRUPT_SIGNAL.load(Ordering::Relaxed),
            fmt_secs(sim_secs),
            fmt_secs(unit_mean),
            fmt_secs(unit_max),
            failures.len(),
            fmt_secs(self.start.elapsed().as_secs_f64()),
            store_desc
        );
    }
}

impl Drop for Runner {
    fn drop(&mut self) {
        self.finish();
    }
}

fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else {
        format!("{s:.1}s")
    }
}

/// Stderr progress line: rewritten in place on a terminal, throttled to
/// ~5% steps when stderr is redirected (CI logs).
struct Progress {
    tty: bool,
    lock: std::sync::Mutex<()>,
}

impl Progress {
    fn new() -> Progress {
        use std::io::IsTerminal;
        Progress {
            tty: std::io::stderr().is_terminal(),
            lock: std::sync::Mutex::new(()),
        }
    }

    fn report(&self, done: usize, total: usize, line: &str) {
        let _guard = self.lock.lock().expect("progress lock");
        if self.tty {
            eprint!("\r{line}\u{1b}[K");
        } else {
            let step = (total / 20).max(1);
            if done.is_multiple_of(step) || done == total {
                eprintln!("{line}");
            }
        }
    }

    fn close(&self) {
        if self.tty {
            eprintln!();
        }
    }
}

/// Alone-IPC baselines, shared across every binary and persisted through
/// the runner's store.
///
/// Keys are `(benchmark, full baseline config)` — not just the core
/// count — so binaries that vary cache size, replacement policy, or DRAM
/// channel count (Table 7, the channels ablation) get correctly separated
/// baselines from the same API.
#[derive(Debug)]
pub struct AloneIpcCache<'r> {
    runner: &'r Runner,
    map: std::sync::Mutex<std::collections::HashMap<(Benchmark, u64), f64>>,
}

impl<'r> AloneIpcCache<'r> {
    /// Creates an empty cache submitting its runs through `runner`.
    #[must_use]
    pub fn new(runner: &'r Runner) -> Self {
        AloneIpcCache {
            runner,
            map: std::sync::Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// The alone-run configuration derived from `config`: same geometry
    /// and run lengths, mechanism forced to Baseline (the denominator of
    /// every speedup metric is measured under the Baseline).
    fn alone_config(config: &SystemConfig) -> SystemConfig {
        let mut c = config.clone();
        c.mechanism = Mechanism::Baseline;
        c
    }

    fn key(benchmark: Benchmark, alone: &SystemConfig) -> (Benchmark, u64) {
        (benchmark, unit_key(alone, &[benchmark]).hash)
    }

    /// Computes every distinct alone baseline appearing in `mixes` in one
    /// parallel pass (each also lands in the persistent store). Call this
    /// before the per-mix loop; [`AloneIpcCache::get`] then never
    /// simulates serially.
    pub fn prime(&self, mixes: &[WorkloadMix], config: &SystemConfig) {
        let alone = Self::alone_config(config);
        let mut pending = Vec::new();
        {
            let map = self.map.lock().expect("alone-IPC map lock");
            for mix in mixes {
                for &b in mix.benchmarks() {
                    if !map.contains_key(&Self::key(b, &alone)) && !pending.contains(&b) {
                        pending.push(b);
                    }
                }
            }
        }
        if pending.is_empty() {
            return;
        }
        let units: Vec<RunUnit> = pending
            .iter()
            .map(|&b| RunUnit::alone(b, alone.clone()))
            .collect();
        let results = self.runner.run_units("alone baselines", &units);
        let mut map = self.map.lock().expect("alone-IPC map lock");
        for (&b, r) in pending.iter().zip(&results) {
            map.insert(Self::key(b, &alone), r.cores[0].ipc());
        }
    }

    /// Alone IPC of `benchmark` on `config`'s geometry (Baseline
    /// mechanism), simulating on demand if not primed.
    pub fn get(&self, benchmark: Benchmark, config: &SystemConfig) -> f64 {
        let alone = Self::alone_config(config);
        let key = Self::key(benchmark, &alone);
        if let Some(&ipc) = self.map.lock().expect("alone-IPC map lock").get(&key) {
            return ipc;
        }
        let result = self.runner.run_unit(&RunUnit::alone(benchmark, alone));
        let ipc = result.cores[0].ipc();
        self.map
            .lock()
            .expect("alone-IPC map lock")
            .insert(key, ipc);
        ipc
    }

    /// Alone IPCs for every benchmark of a mix, in mix order.
    pub fn for_mix(&self, benchmarks: &[Benchmark], config: &SystemConfig) -> Vec<f64> {
        benchmarks.iter().map(|&b| self.get(b, config)).collect()
    }
}
