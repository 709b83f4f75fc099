//! The typed run API: one entry point for every simulation.
//!
//! [`SimSession`] replaces the old positional
//! `System::run_resumable(resume, cadence, &mut sink)` surface with a
//! builder over [`RunOptions`]: resume bytes, checkpoint cadence and sink,
//! and sanitizer and fault-injector overrides all live in one struct.
//! Every checkpointed run — the bench runner, checkpoint tests — goes
//! through the one per-record drive loop in this module, so there is
//! exactly one code path to prove bit-identical and crash-safe;
//! `System::run` steps the same `micro_step` without the cadence
//! bookkeeping.
//!
//! ```
//! use system_sim::{run_mix, Mechanism, SimSession, SystemConfig};
//! use trace_gen::mix::WorkloadMix;
//! use trace_gen::Benchmark;
//!
//! let mix = WorkloadMix::new(vec![Benchmark::Lbm]);
//! let mut config = SystemConfig::for_cores(1, Mechanism::Baseline);
//! config.warmup_insts = 10_000;
//! config.measure_insts = 20_000;
//!
//! // A session without checkpointing is exactly `run_mix`.
//! let session = SimSession::new(&mix, &config).run().unwrap().into_result();
//! assert_eq!(session.digest(), run_mix(&mix, &config).digest());
//! ```

use std::time::Instant;

use dbi::snap::SnapError;
use trace_gen::mix::WorkloadMix;

use crate::config::SystemConfig;
use crate::faults::FaultPlan;
use crate::feed::CpuClaim;
use crate::system::{Feed, MixResult, RunState, System};

/// When a resumable run serializes its state and offers it to the sink.
///
/// Checkpoint *placement* may depend on wall-clock time, but checkpoint
/// *content* never does: a snapshot taken at any step boundary restores
/// bit-identically, so cadence only trades re-execution loss against
/// serialization overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointCadence {
    /// Never checkpoint.
    #[default]
    Disabled,
    /// Checkpoint every `n` trace records (`n = 0` also disables) — the
    /// deterministic cadence tests lean on.
    EveryRecords(u64),
    /// Checkpoint when at least `target` has elapsed since the last one,
    /// probing the clock only every `probe_records` records so the hot
    /// loop stays off `Instant::now()`. This bounds loss-on-kill per unit
    /// *evenly across mechanisms of different speeds*: a slow mechanism
    /// checkpoints at the same wall interval as a fast one instead of 5×
    /// less often.
    WallClock {
        /// Minimum wall-clock time between checkpoints.
        target: std::time::Duration,
        /// Records between clock probes (`0` disables checkpointing).
        probe_records: u64,
    },
}

/// How a session ended.
#[derive(Debug)]
pub enum SessionOutcome {
    /// The run finished (boxed: `MixResult` is large).
    Finished(Box<MixResult>),
    /// The checkpoint sink asked to stop; the last checkpoint it accepted
    /// is the point to resume from.
    Suspended,
}

impl SessionOutcome {
    /// The finished result.
    ///
    /// # Panics
    ///
    /// Panics if the session was suspended.
    #[must_use]
    pub fn into_result(self) -> MixResult {
        match self {
            SessionOutcome::Finished(result) => *result,
            SessionOutcome::Suspended => panic!("session was suspended, not finished"),
        }
    }
}

/// A checkpoint sink: receives each serialized snapshot, `false` suspends.
pub type CheckpointSink<'a> = &'a mut dyn FnMut(&[u8]) -> bool;

/// Everything a run can be configured with, in one typed struct.
///
/// All fields default to "off": no resume, no checkpointing, config-level
/// sanitizer/fault settings. [`SimSession`]'s builder methods set
/// individual fields; construct a `RunOptions` directly when a caller
/// wants to thread options through as a value.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Snapshot bytes from a previous suspension to resume from.
    pub resume: Option<&'a [u8]>,
    /// When to offer checkpoints to the sink.
    pub cadence: CheckpointCadence,
    /// Receives each serialized checkpoint; returning `false` suspends the
    /// run. `None` accepts (and discards) every checkpoint.
    pub sink: Option<CheckpointSink<'a>>,
    /// Overrides [`SystemConfig::sanitize`] when set.
    pub sanitize: Option<bool>,
    /// Overrides [`SystemConfig::fault`] when set.
    pub fault: Option<FaultPlan>,
}

impl std::fmt::Debug for RunOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("resume", &self.resume.map(<[u8]>::len))
            .field("cadence", &self.cadence)
            .field("sink", &self.sink.is_some())
            .field("sanitize", &self.sanitize)
            .field("fault", &self.fault)
            .finish()
    }
}

/// A configured run of one `(mix, config)`.
///
/// Borrowing builder: `SimSession::new(&mix, &config).cadence(..).run()`.
#[derive(Debug)]
pub struct SimSession<'a> {
    mix: &'a WorkloadMix,
    config: &'a SystemConfig,
    options: RunOptions<'a>,
}

impl<'a> SimSession<'a> {
    /// Starts a session with default options (no checkpointing).
    #[must_use]
    pub fn new(mix: &'a WorkloadMix, config: &'a SystemConfig) -> SimSession<'a> {
        SimSession {
            mix,
            config,
            options: RunOptions::default(),
        }
    }

    /// Resume from `bytes` captured by a previous suspension.
    #[must_use]
    pub fn resume(mut self, bytes: &'a [u8]) -> Self {
        self.options.resume = Some(bytes);
        self
    }

    /// Resume from `bytes` when present — the store-driven caller's shape,
    /// where a checkpoint may or may not exist.
    #[must_use]
    pub fn maybe_resume(mut self, bytes: Option<&'a [u8]>) -> Self {
        self.options.resume = bytes;
        self
    }

    /// Sets the checkpoint cadence.
    #[must_use]
    pub fn cadence(mut self, cadence: CheckpointCadence) -> Self {
        self.options.cadence = cadence;
        self
    }

    /// Sets the checkpoint sink; returning `false` suspends the run.
    #[must_use]
    pub fn sink(mut self, sink: &'a mut dyn FnMut(&[u8]) -> bool) -> Self {
        self.options.sink = Some(sink);
        self
    }

    /// Forces the invariant sanitizer on or off, overriding the config.
    #[must_use]
    pub fn sanitize(mut self, on: bool) -> Self {
        self.options.sanitize = Some(on);
        self
    }

    /// Installs a fault-injection plan, overriding the config.
    #[must_use]
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.options.fault = Some(plan);
        self
    }

    /// Executes the session.
    ///
    /// # Errors
    ///
    /// Returns the decode error when resume bytes are truncated, corrupted,
    /// forged, or captured from a differently-configured session (other
    /// mechanism, other seed).
    ///
    /// # Panics
    ///
    /// Panics if the measurement window is empty.
    pub fn run(self) -> Result<SessionOutcome, SnapError> {
        let SimSession {
            mix,
            config,
            options,
        } = self;
        let mut config = config.clone();
        if let Some(on) = options.sanitize {
            config.sanitize = on;
        }
        if let Some(plan) = options.fault {
            config.fault = Some(plan);
        }
        assert!(
            config.measure_insts > 0,
            "measurement window must be nonempty"
        );
        // Counted, so a concurrent `System::run` takes no helper this
        // session's thread needs.
        let _claim = CpuClaim::simulation();
        let mut sys = System::new(mix, &config);
        let st = match options.resume {
            Some(bytes) => sys.restore_checkpoint(bytes)?,
            None => RunState::cold(&sys),
        };
        let mut accept_all = |_: &[u8]| true;
        let sink = options.sink.unwrap_or(&mut accept_all);
        Ok(drive(sys, st, options.cadence, sink))
    }
}

/// The drive loop: advances `sys` one record at a time until the run
/// completes, offering a checkpoint to `sink` whenever `cadence` falls
/// due; a `false` from `sink` suspends.
fn drive(
    mut sys: System,
    mut st: RunState,
    cadence: CheckpointCadence,
    sink: &mut dyn FnMut(&[u8]) -> bool,
) -> SessionOutcome {
    let mut last_checkpoint = Instant::now();
    // Records since the last checkpoint / clock probe. Counting up to a
    // threshold instead of testing `steps %` every record keeps the u64
    // divisions out of the loop.
    let mut since_checkpoint = 0u64;
    let mut since_probe = 0u64;
    while sys.micro_step(&mut st, &mut Feed::Inline) {
        since_checkpoint += 1;
        since_probe += 1;
        let due = match cadence {
            CheckpointCadence::Disabled => false,
            CheckpointCadence::EveryRecords(every) => every != 0 && since_checkpoint >= every,
            CheckpointCadence::WallClock {
                target,
                probe_records,
            } => {
                probe_records != 0 && since_probe >= probe_records && {
                    since_probe = 0;
                    last_checkpoint.elapsed() >= target
                }
            }
        };
        if due {
            since_checkpoint = 0;
            since_probe = 0;
            last_checkpoint = Instant::now();
            if !sink(&sys.checkpoint(&st)) {
                return SessionOutcome::Suspended;
            }
        }
    }
    SessionOutcome::Finished(Box::new(sys.finish(&st)))
}
