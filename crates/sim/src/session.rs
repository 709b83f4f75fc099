//! The typed run API: resume bytes, checkpoint cadence and checkpoint sink
//! for one run.
//!
//! [`SimSession::run`] builds the [`System`], restores it from the resume
//! bytes when there are any, and hands it to the drive loop that
//! [`System::run`] uses too, so every run — checkpointed or not — steps
//! its records through the same code. A session can also record its front
//! ends' streams, or take its records from streams another run with the
//! same [`FrontKey`] recorded ([`SimSession::streams`]).
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

use dbi::snap::SnapError;
use trace_gen::mix::WorkloadMix;

use crate::config::SystemConfig;
use crate::core::FrontKey;
use crate::feed::FrontStreams;
use crate::system::{MixResult, RunState, System};

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
    /// Checkpoint when at least the given time has elapsed since the last
    /// one, probing the clock only every [`CLOCK_PROBE_RECORDS`] records
    /// so the hot loop stays off `Instant::now()`. This bounds
    /// loss-on-kill per unit *evenly across mechanisms of different
    /// speeds*: a slow mechanism checkpoints at the same wall interval as
    /// a fast one instead of 5× less often.
    WallClock(std::time::Duration),
}

/// Records between clock probes under [`CheckpointCadence::WallClock`]:
/// cheap enough that the hot loop never notices the `Instant::now()`
/// calls, frequent enough (milliseconds at realistic speeds) that the
/// measured interval barely overshoots the target.
pub const CLOCK_PROBE_RECORDS: u64 = 8192;

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

/// Receives each serialized checkpoint; `false` suspends the run.
pub(crate) type Sink<'a> = &'a mut dyn FnMut(&[u8]) -> bool;

/// A configured run of one `(mix, config)`.
///
/// Borrowing builder: `SimSession::new(&mix, &config).cadence(..).run()`.
pub struct SimSession<'a> {
    mix: &'a WorkloadMix,
    config: &'a SystemConfig,
    resume: Option<&'a [u8]>,
    cadence: CheckpointCadence,
    sink: Option<Sink<'a>>,
    streams: Option<&'a mut FrontStreams>,
}

impl<'a> SimSession<'a> {
    /// Starts a session with no resume point and no checkpointing.
    #[must_use]
    pub fn new(mix: &'a WorkloadMix, config: &'a SystemConfig) -> SimSession<'a> {
        SimSession {
            mix,
            config,
            resume: None,
            cadence: CheckpointCadence::Disabled,
            sink: None,
            streams: None,
        }
    }

    /// Resume from `bytes` captured by a previous suspension, if any.
    #[must_use]
    pub fn resume(mut self, bytes: Option<&'a [u8]>) -> Self {
        self.resume = bytes;
        self
    }

    /// Sets the checkpoint cadence.
    #[must_use]
    pub fn cadence(mut self, cadence: CheckpointCadence) -> Self {
        self.cadence = cadence;
        self
    }

    /// Sets the checkpoint sink; returning `false` suspends the run.
    /// Without one, every checkpoint is accepted and discarded.
    #[must_use]
    pub fn sink(mut self, sink: &'a mut dyn FnMut(&[u8]) -> bool) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Records the front ends' streams into `streams`, or takes the
    /// records from them instead of running the front ends. Either
    /// happens only if the run starts cold, runs without the
    /// shadow-memory check, and has the streams' front key; otherwise the
    /// run ignores them, and a recording stays unfinished. The result is
    /// the same either way.
    #[must_use]
    pub fn streams(mut self, streams: Option<&'a mut FrontStreams>) -> Self {
        self.streams = streams;
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
        let mut sys = System::new(self.mix, self.config);
        let st = match self.resume {
            Some(bytes) => sys.restore_checkpoint(bytes)?,
            None => RunState::cold(&sys),
        };
        let mut accept_all = |_: &[u8]| true;
        let sink = self.sink.unwrap_or(&mut accept_all);
        let streams = self
            .streams
            .filter(|s| *s.key() == FrontKey::new(self.mix, self.config));
        Ok(sys.drive(st, self.cadence, sink, streams))
    }
}
