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
//! unit. Every simulation therefore runs under a guard: on its own
//! thread, with panics caught ([`std::panic::catch_unwind`]), and, when a
//! watchdog limit is set, a wall-clock overrun detected (the overrunning
//! thread is abandoned — threads cannot be killed — and its eventual
//! result discarded). A failed unit gets exactly one retry
//! after a jittered backoff; failing again *quarantines* it: the failure
//! is recorded, every other unit still completes and reaches the store,
//! and the process exits nonzero after printing its summary. The
//! summary's `failed=K quarantined=[...]` fields, like `sims=`, are
//! machine-parseable.
//!
//! # Interruption
//!
//! A completed unit's store entry is the only resume point: each unit is
//! saved as it completes, so a killed process (`kill -9` included) loses
//! only its in-flight units, and a rerun simulates just the units without
//! an entry. Units are short — about a second on average in a
//! default-effort `fig7_multicore` run, which holds the suite's longest
//! units — so nothing finer pays for itself. SIGINT/SIGTERM are handled
//! gracefully: queued units are skipped, in-flight units finish and are
//! saved, the summary carries an `interrupted=` marker, and the process
//! exits `128 + signal`.
//!
//! # Shared front ends
//!
//! Units that differ only past the private caches — the nine mechanisms
//! on one workload, say — have equal [`FrontKey`]s: their trace
//! generators and L1/L2 produce the same record streams. Within a work
//! list, the store-missing units of each such group (without `--check`,
//! sanitizer or fault) run their front ends once. The first, the
//! *leader*, records its cores' streams; the rest, the *followers*,
//! replay them into their own back ends. A follower waits in the queue
//! until its leader completes, then goes ahead of every unit not yet
//! started; results still come back in input order. A follower whose
//! leader failed or recorded nothing runs inline, as does one taken while
//! its leader still runs because nothing else is left: no unit waits. A
//! replayed result is bit-identical to an inline one (the sim crate's
//! replay tests prove it).
//!
//! The streams are a cache, not persistence: no fsync, no failpoint, and
//! any I/O error only sends a follower inline. A stream lives as long as
//! its work list's open handles: a group's streams share one unnamed file
//! (made in the store directory, or the system temp directory with
//! `--no-cache`), which the kernel frees when its last follower finishes,
//! or however the process ends.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use system_sim::{
    splitmix64, FaultPlan, FrontKey, FrontRecorder, FrontRecording, FrontReplay, FrontStreams,
    Mechanism, MixResult, System, SystemConfig,
};
use trace_gen::mix::WorkloadMix;
use trace_gen::Benchmark;

use crate::store::{unit_key, ResultStore, StoreKey};
use crate::{parallel_map_jobs, BenchArgs};

/// How stale a `.tmp-*` temp file must be before runner startup collects
/// it as an orphan. Generous: a concurrent runner sharing the store holds
/// its temp name for milliseconds, crashed runs forever.
const TMP_ORPHAN_AGE: Duration = Duration::from_secs(900);

/// Base delay before a failed unit's single retry (jittered ×1–2).
const RETRY_BACKOFF: Duration = Duration::from_millis(250);

/// The last fatal signal received (SIGINT=2 / SIGTERM=15); 0 when none.
static INTERRUPT_SIGNAL: AtomicI32 = AtomicI32::new(0);

/// The signal that interrupted this process, if any. Set asynchronously
/// by the handlers [`Runner::new`] installs; the runner polls it before
/// starting each unit.
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
    replayed: AtomicU64,
    violations: AtomicU64,
    skipped: AtomicU64,
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

/// What a unit of a work list does about front ends it shares with
/// other units.
#[derive(Debug)]
enum Role<'q> {
    /// Runs its own front ends and records nothing.
    Solo,
    /// Records its front ends, then hands them to its followers in the
    /// queue; the unit's index in the list.
    Leader(&'q Queue, usize),
    /// Replays its leader's recording.
    Follower(Arc<FrontRecording>),
}

/// A work list's dispatch queue. A unit that leads a front group holds
/// its followers back until it finishes; they then go ahead of every unit
/// not yet started, sharing its recording. Each worker holds at most one
/// stream file, and the recordings waiting here come from leaders that ran
/// at once (a leader starts only when nothing waits), so at most two files
/// per worker are open, however many groups the list holds.
#[derive(Debug)]
struct Queue(Mutex<Pending>);

#[derive(Debug)]
struct Pending {
    /// Leaders, then units outside any group, each in input order.
    starts: VecDeque<usize>,
    /// Followers whose leader has finished, with its recording if it made
    /// a whole one.
    ready: VecDeque<(usize, Option<Arc<FrontRecording>>)>,
    /// The followers of each leader not yet finished.
    held: BTreeMap<usize, Vec<usize>>,
}

impl Queue {
    /// The next unit to run and its role; one call per unit of the list.
    fn next(&self) -> (usize, Role<'_>) {
        let mut p = self.0.lock().expect("queue lock");
        if let Some((i, recording)) = p.ready.pop_front() {
            return (i, recording.map_or(Role::Solo, Role::Follower));
        }
        if let Some(i) = p.starts.pop_front() {
            let leader = p.held.contains_key(&i).then_some(Role::Leader(self, i));
            return (i, leader.unwrap_or(Role::Solo));
        }
        // Only followers of running leaders are left: rather than wait,
        // this one runs its own front ends.
        let i = p
            .held
            .values_mut()
            .find_map(Vec::pop)
            .expect("a unit for every call");
        (i, Role::Solo)
    }

    /// Queues `leader`'s followers with its recording, or to run inline
    /// without one. Only the first call for a leader counts.
    fn release(&self, leader: usize, recording: Option<FrontRecording>) {
        let mut p = self.0.lock().expect("queue lock");
        if let Some(followers) = p.held.remove(&leader) {
            let recording = recording.map(Arc::new);
            p.ready
                .extend(followers.into_iter().map(|i| (i, recording.clone())));
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
    start: Instant,
    counters: Counters,
    failures: Mutex<Vec<UnitFailure>>,
    finished: AtomicBool,
}

impl Runner {
    /// Creates a runner for the binary `name` (used in progress and
    /// summary lines) from parsed arguments: `--cache-dir`/`--no-cache`
    /// select the store, `--jobs` caps the worker threads, and
    /// `--check`/`--fault`/`--watchdog` configure the robustness layer.
    ///
    /// Also installs the SIGINT/SIGTERM handlers that make interruption
    /// graceful (idempotent, process-wide).
    #[must_use]
    pub fn new(name: &str, args: &BenchArgs) -> Runner {
        install_signal_handlers();
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

    /// Simulations performed (store misses) so far.
    #[must_use]
    pub fn sims(&self) -> u64 {
        self.counters.sims.load(Ordering::Relaxed)
    }

    /// Completed simulations that replayed front-end streams another unit
    /// of their work list recorded.
    #[must_use]
    pub fn replayed(&self) -> u64 {
        self.counters.replayed.load(Ordering::Relaxed)
    }

    /// Lost writes and sanitizer violations found so far by the checked
    /// units this runner simulated (`--check`, or a unit's own checker or
    /// sanitizer).
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.counters.violations.load(Ordering::Relaxed)
    }

    /// Store hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.counters.hits.load(Ordering::Relaxed)
    }

    /// Units that never started: still queued when an interrupt arrived.
    #[must_use]
    pub fn skipped(&self) -> u64 {
        self.counters.skipped.load(Ordering::Relaxed)
    }

    /// Store entries found present but corrupt so far; each one was
    /// recomputed.
    #[must_use]
    pub fn corrupt(&self) -> u64 {
        self.store.as_ref().map_or(0, |s| s.corrupt_count())
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
        self.run_unit_outcome(unit, Role::Solo)
            .unwrap_or_else(|fault| panic!("runner[{}]: unguarded unit {fault}", self.name))
    }

    /// The guarded single-unit path shared by [`Runner::run_unit`] and
    /// [`Runner::try_run_units`].
    ///
    /// Sanitized and faulted units bypass the store for the same reason
    /// checked units always have: their reports are not serializable, and
    /// a faulted result must never be served to a clean rerun.
    fn run_unit_outcome(&self, unit: &RunUnit, role: Role<'_>) -> Result<MixResult, UnitFault> {
        let unit = self.effective(unit);
        if bypasses_store(&unit) {
            return self.simulate(&unit, None, Role::Solo);
        }
        let key = unit.key();
        if let Some(store) = &self.store {
            if let Some(result) = store.load(&key) {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(result);
            }
        }
        self.simulate(&unit, Some(&key), role)
    }

    /// One guarded simulation attempt. The store is only written for
    /// completed simulations; a panic or timeout surfaces as `Err`
    /// instead of tearing the process (or the whole work list) down. A
    /// leader hands its recording to its followers only when it
    /// completes.
    fn simulate(
        &self,
        unit: &RunUnit,
        key: Option<&StoreKey>,
        role: Role<'_>,
    ) -> Result<MixResult, UnitFault> {
        let t = Instant::now();
        // A simulation abandoned by the watchdog holds its streams until
        // its thread ends.
        let mut streams = match &role {
            Role::Solo => None,
            Role::Leader(..) => self.recorder(unit).map(FrontStreams::Record),
            Role::Follower(recording) => Some(FrontStreams::Replay(FrontReplay::new(recording))),
        };
        // The simulation runs on its own thread so an overrun of the
        // watchdog limit is detectable; a thread cannot be killed, so on
        // timeout it is abandoned and its eventual result discarded.
        // Without a limit the wait has none either.
        let (tx, rx) = std::sync::mpsc::channel();
        let mix = unit.mix.clone();
        let config = unit.config.clone();
        std::thread::spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                System::new(&mix, &config).run_with_streams(streams.as_mut())
            }))
            .map(|result| (result, streams))
            .map_err(|p| panic_text(p.as_ref()));
            let _ = tx.send(outcome);
        });
        let outcome = match self.watchdog {
            Some(limit) => rx
                .recv_timeout(limit)
                .map_err(|_| UnitFault::TimedOut(limit))?,
            None => rx
                .recv()
                .map_err(|_| UnitFault::Panicked("the unit's thread sent no outcome".into()))?,
        };
        let (result, streams) = outcome.map_err(UnitFault::Panicked)?;
        match (role, streams) {
            (Role::Leader(queue, index), Some(FrontStreams::Record(recorder))) => {
                // A recording that is not whole is dropped with its file,
                // and the followers run inline.
                queue.release(index, recorder.finish().ok());
            }
            (Role::Follower(_), Some(FrontStreams::Replay(replay)))
                if replay.records_replayed() > 0 =>
            {
                self.counters.replayed.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        let nanos = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.counters.sims.fetch_add(1, Ordering::Relaxed);
        self.counters
            .violations
            .fetch_add(violations_in(&result), Ordering::Relaxed);
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
        }
        Ok(result)
    }

    /// The per-unit scheduling decision of a work list: interrupt
    /// pre-check, then the normal lookup/simulate path. `Ok(None)` is a
    /// unit skipped after an interrupt.
    fn scheduled_outcome(
        &self,
        unit: &RunUnit,
        role: Role<'_>,
    ) -> Result<Option<MixResult>, UnitFault> {
        if interrupted().is_some() {
            // Not-yet-started units drain without work, so the process
            // reaches its graceful exit quickly after a signal.
            self.counters.skipped.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        }
        self.run_unit_outcome(unit, role).map(Some)
    }

    /// A recorder for the front ends of `unit`, its file made in the
    /// store directory (the system temp directory without a store); `None`
    /// on an I/O error.
    fn recorder(&self, unit: &RunUnit) -> Option<FrontRecorder> {
        let dir = self
            .store
            .as_ref()
            .map_or_else(std::env::temp_dir, |s| s.dir().to_path_buf());
        std::fs::create_dir_all(&dir).ok()?;
        FrontRecorder::create(&dir, &FrontKey::new(&unit.mix, &unit.config)).ok()
    }

    /// Groups the store-missing units of `units` that share a front key
    /// and queues the list: leaders, then units outside any group, with
    /// each leader's followers held back until it finishes.
    fn queue(&self, units: &[RunUnit]) -> Queue {
        let mut groups: HashMap<FrontKey, Vec<usize>> = HashMap::new();
        for (i, unit) in units.iter().enumerate() {
            let unit = self.effective(unit);
            if !bypasses_store(&unit)
                && !self.store.as_ref().is_some_and(|s| s.contains(&unit.key()))
            {
                let key = FrontKey::new(&unit.mix, &unit.config);
                groups.entry(key).or_default().push(i);
            }
        }
        let held: BTreeMap<usize, Vec<usize>> = groups
            .into_values()
            .filter(|members| members.len() >= 2)
            .map(|members| (members[0], members[1..].to_vec()))
            .collect();
        let followers: HashSet<&usize> = held.values().flatten().collect();
        let mut starts: Vec<usize> = (0..units.len())
            .filter(|i| !followers.contains(i))
            .collect();
        starts.sort_by_key(|i| !held.contains_key(i));
        Queue(Mutex::new(Pending {
            starts: starts.into(),
            ready: VecDeque::new(),
            held,
        }))
    }

    /// Flushes the summary and exits with the conventional `128 + signal`
    /// code. Every unit that started has completed and is in the store,
    /// so a rerun simulates only the skipped ones.
    fn graceful_exit(&self) -> ! {
        let sig = interrupted().unwrap_or(2);
        eprintln!(
            "runner[{}]: interrupted by signal {sig}; completed units are stored, \
             rerun to finish the rest",
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
    /// nonzero — callers of this API assume one result per unit. So is a
    /// lost write or sanitizer violation in any unit the runner has
    /// simulated ([`Runner::violations`]). Callers that want to survive
    /// quarantines or inspect verdicts use [`Runner::try_run_units`].
    ///
    /// An interrupt (SIGINT/SIGTERM) during the drain exits `128+signal`
    /// after the summary, once the units in flight have finished.
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
        if self.violations() > 0 {
            eprintln!(
                "runner[{}]: {} lost writes or sanitizer violations",
                self.name,
                self.violations()
            );
            self.finish();
            std::process::exit(1);
        }
        // Quarantines and interrupts exited above, so every unit has a
        // result.
        results.into_iter().flatten().collect()
    }

    /// Like [`Runner::run_units`], but quarantines failing units instead
    /// of exiting: each unit gets one retry (after a jittered backoff),
    /// and a unit that fails twice yields `None` in the results plus a
    /// [`UnitFailure`] describing why. `None` also marks units skipped
    /// after an interrupt — those carry no `UnitFailure`. Every completed
    /// unit is flushed to the store before
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
        let queue = self.queue(units);
        // Each call runs the queue's next unit, whatever its slot.
        let outcomes = parallel_map_jobs(&vec![(); total], self.jobs, |()| {
            let (i, role) = queue.next();
            let unit = &units[i];
            // The retry runs alone: its followers have moved on.
            let outcome = self.scheduled_outcome(unit, role).or_else(|first| {
                queue.release(i, None);
                eprintln!(
                    "runner[{}]: {phase}: unit {i} {first}; retrying once",
                    self.name
                );
                std::thread::sleep(jittered(RETRY_BACKOFF, i as u64));
                self.run_unit_outcome(unit, Role::Solo).map(Some)
            });
            // A leader that was skipped, hit the store or failed releases
            // its followers here.
            queue.release(i, None);
            let d = done.fetch_add(1, Ordering::Relaxed) + 1;
            let cached = self.hits() - hits_before;
            let elapsed = started.elapsed().as_secs_f64();
            let eta = eta_secs(elapsed, d.saturating_sub(cached), total - d as usize);
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
            let outcome = outcome.map_err(|fault| UnitFailure {
                phase: phase.to_string(),
                index: i,
                attempts: 2,
                fault,
            });
            (i, outcome)
        });
        progress.close();
        let mut by_input: Vec<Option<_>> = (0..total).map(|_| None).collect();
        for (i, outcome) in outcomes {
            by_input[i] = Some(outcome);
        }
        let mut failures = Vec::new();
        let results = by_input
            .into_iter()
            .map(|outcome| match outcome.expect("every unit ran") {
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
    /// rerun must report `sims=0`. `skipped=` counts units that never
    /// started (queued when an interrupt arrived), `interrupted=` is the
    /// signal number that stopped the run (0 for a clean finish), and
    /// `violations=` is [`Runner::violations`].
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
        let corrupt = self.corrupt();
        let tmp_gc = self.store.as_ref().map_or(0, |s| s.orphans_removed());
        eprintln!(
            "runner[{}]: units={} hits={} sims={} skipped={} interrupted={} \
             sim_wall={} unit_mean={} unit_max={} failed={} quarantined=[{quarantined}] \
             corrupt={corrupt} tmp_gc={tmp_gc} wall={} store={} replayed={} violations={}",
            self.name,
            self.hits() + sims + self.skipped() + failures.len() as u64,
            self.hits(),
            sims,
            self.skipped(),
            INTERRUPT_SIGNAL.load(Ordering::Relaxed),
            fmt_secs(sim_secs),
            fmt_secs(unit_mean),
            fmt_secs(unit_max),
            failures.len(),
            fmt_secs(self.start.elapsed().as_secs_f64()),
            store_desc,
            self.replayed(),
            self.violations()
        );
    }
}

impl Drop for Runner {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Whether `unit` runs outside the store: checked, sanitized and faulted
/// runs have reports that are not serializable, and a faulted result must
/// never be served to a clean rerun.
fn bypasses_store(unit: &RunUnit) -> bool {
    unit.config.check || unit.config.sanitize || unit.config.fault.is_some()
}

/// Lost writes plus sanitizer violations in one unit's result.
fn violations_in(result: &MixResult) -> u64 {
    let lost = match &result.check {
        Some(Err(lost)) => lost.len() as u64,
        _ => 0,
    };
    lost + result
        .sanitizer
        .as_ref()
        .map_or(0, |report| report.total_violations)
}

/// Seconds left for `remaining` units at the pace of the `simulated`
/// units done in `elapsed` seconds. Store hits are near-free, so they do
/// not count towards the pace; before any unit has simulated there is no
/// pace, and the estimate is 0.
fn eta_secs(elapsed: f64, simulated: u64, remaining: usize) -> f64 {
    if simulated == 0 {
        0.0
    } else {
        elapsed / simulated as f64 * remaining as f64
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_eta_takes_its_pace_from_simulated_units_only() {
        // 12 s for 3 simulated units, however many hits came with them.
        assert!((eta_secs(12.0, 3, 5) - 20.0).abs() < 1e-9);
        assert!(eta_secs(12.0, 0, 5).abs() < 1e-9, "no pace yet");
        assert!(eta_secs(12.0, 3, 0).abs() < 1e-9, "nothing left");
    }
}
