//! Checkpoint/restore correctness: resuming a run from a mid-flight
//! snapshot must be *bit-identical* to never having stopped, for every
//! mechanism, with the shadow-memory checker and invariant sanitizer both
//! enabled (their state rides in the snapshot too).

use proptest::prelude::*;
use system_sim::{
    CheckpointCadence, Mechanism, SessionOutcome, SimSession, System, SystemConfig,
    CLOCK_PROBE_RECORDS,
};
use trace_gen::mix::WorkloadMix;
use trace_gen::Benchmark;

fn mechanism_strategy() -> impl Strategy<Value = Mechanism> {
    prop::sample::select(Mechanism::ALL.to_vec())
}

fn benchmark_strategy() -> impl Strategy<Value = Benchmark> {
    prop::sample::select(Benchmark::ALL.to_vec())
}

fn tiny_config(cores: usize, mechanism: Mechanism, seed: u64) -> SystemConfig {
    let mut c = SystemConfig::for_cores(cores, mechanism);
    c.llc_bytes_per_core = 256 * 1024;
    c.llc_ways = 16;
    c.warmup_insts = 40_000;
    c.measure_insts = 40_000;
    c.predictor_epoch_cycles = 50_000;
    c.seed = seed;
    c.check = true;
    c.sanitize = true;
    c
}

/// Runs under `cadence`, suspending at the first checkpoint. Returns the
/// result digest if the run finished before any checkpoint came due, or
/// the snapshot bytes of the suspension point.
fn suspend_at_first(
    mix: &WorkloadMix,
    config: &SystemConfig,
    resume: Option<&[u8]>,
    cadence: CheckpointCadence,
) -> Result<String, Vec<u8>> {
    let mut saved: Option<Vec<u8>> = None;
    let mut sink = |bytes: &[u8]| {
        saved = Some(bytes.to_vec());
        false
    };
    let outcome = SimSession::new(mix, config)
        .resume(resume)
        .cadence(cadence)
        .sink(&mut sink)
        .run()
        .expect("valid snapshot bytes");
    match outcome {
        SessionOutcome::Finished(result) => Ok(result.digest()),
        SessionOutcome::Suspended => Err(saved.expect("suspension implies a checkpoint")),
    }
}

/// Resumes `bytes` and runs to completion with checkpointing disabled.
fn resume_to_end(mix: &WorkloadMix, config: &SystemConfig, bytes: &[u8]) -> String {
    SimSession::new(mix, config)
        .resume(Some(bytes))
        .run()
        .expect("snapshot round-trips")
        .into_result()
        .digest()
}

/// Runs to completion, suspending at the first checkpoint after each
/// resume — i.e. the run is "killed" every `every` records and restarted
/// from its last snapshot until it finishes.
fn run_with_crashes(mix: &WorkloadMix, config: &SystemConfig, every: u64) -> (String, u32) {
    let mut resume: Option<Vec<u8>> = None;
    let mut crashes = 0u32;
    loop {
        match suspend_at_first(
            mix,
            config,
            resume.as_deref(),
            CheckpointCadence::EveryRecords(every),
        ) {
            Ok(digest) => return (digest, crashes),
            Err(bytes) => {
                crashes += 1;
                resume = Some(bytes);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One suspension at a random point (warmup or measurement phase,
    /// depending on `every`), then resume into a *fresh* session: the final
    /// results match a straight-through run field for field.
    #[test]
    fn resume_is_bit_identical(
        mechanism in mechanism_strategy(),
        benchmark in benchmark_strategy(),
        seed in 0u64..500,
        every in 200u64..4_000,
    ) {
        let config = tiny_config(1, mechanism, seed);
        let mix = WorkloadMix::new(vec![benchmark]);
        let straight = System::new(&mix, &config).run().digest();

        let resumed = match suspend_at_first(
            &mix,
            &config,
            None,
            CheckpointCadence::EveryRecords(every),
        ) {
            // `every` exceeded the run length — nothing to resume.
            Ok(digest) => digest,
            Err(bytes) => resume_to_end(&mix, &config, &bytes),
        };
        prop_assert_eq!(straight, resumed);
    }
}

#[test]
fn repeated_crashes_still_match_straight_through() {
    let mechanism = Mechanism::Dbi {
        awb: true,
        clb: true,
    };
    let config = tiny_config(2, mechanism, 7);
    let mix = WorkloadMix::new(vec![Benchmark::Lbm, Benchmark::Mcf]);
    let straight = System::new(&mix, &config).run().digest();
    let (digest, crashes) = run_with_crashes(&mix, &config, 600);
    assert_eq!(straight, digest);
    assert!(crashes > 3, "only {crashes} crashes — loop not exercised");
}

/// The bank-group scheduler adds per-group activate windows and a
/// channel-level last-activate to the DRAM snapshot; crash/resume with a
/// multi-group device must still be bit-identical mid-drain.
#[test]
fn bank_group_scheduler_state_survives_crashes() {
    let mechanism = Mechanism::Dbi {
        awb: true,
        clb: true,
    };
    let mut config = tiny_config(2, mechanism, 13);
    config.dram.bank_groups = 4;
    let mix = WorkloadMix::new(vec![Benchmark::Milc, Benchmark::Lbm]);
    let straight = System::new(&mix, &config).run().digest();
    let (digest, crashes) = run_with_crashes(&mix, &config, 500);
    assert_eq!(straight, digest);
    assert!(crashes > 3, "only {crashes} crashes — loop not exercised");
}

/// The wall-clock cadence places checkpoints nondeterministically, but
/// their *content* is a deterministic function of the step count — so a
/// resume from wherever one landed is still bit-identical to a
/// straight-through run.
#[test]
fn wall_clock_cadence_resume_is_bit_identical() {
    let mut config = tiny_config(1, Mechanism::Vwq, 11);
    // Long enough that the clock is probed well before the run ends.
    config.measure_insts = 400_000;
    let mix = WorkloadMix::new(vec![Benchmark::Stream]);
    let straight = System::new(&mix, &config).run();
    assert!(straight.records_processed > 2 * CLOCK_PROBE_RECORDS);
    let straight = straight.digest();

    // A zero target makes a checkpoint due at the first probe, so the
    // suspension point is reached regardless of machine speed; the probe
    // stride still exercises the wall-clock path.
    let cadence = CheckpointCadence::WallClock(std::time::Duration::ZERO);
    let bytes = suspend_at_first(&mix, &config, None, cadence)
        .expect_err("a zero wall-clock target must suspend before finishing");
    let resumed = resume_to_end(&mix, &config, &bytes);
    assert_eq!(straight, resumed);
}

/// A window too long to ever close keeps the run going checkpoint after
/// checkpoint: the test that closes a core's window cannot wrap past
/// `u64::MAX` and close it after one record.
#[test]
fn an_endless_window_suspends_at_its_first_checkpoint() {
    let mut config = tiny_config(1, Mechanism::Baseline, 5);
    config.warmup_insts = 10_000;
    config.measure_insts = u64::MAX;
    let mix = WorkloadMix::new(vec![Benchmark::Mcf]);
    let cadence = CheckpointCadence::EveryRecords(5_000);
    let bytes = suspend_at_first(&mix, &config, None, cadence)
        .expect_err("an endless window must reach a checkpoint");
    suspend_at_first(&mix, &config, Some(&bytes), cadence)
        .expect_err("and the next one after a resume");
}

#[test]
fn corrupt_snapshot_is_rejected() {
    let config = tiny_config(1, Mechanism::Baseline, 3);
    let mix = WorkloadMix::new(vec![Benchmark::Libquantum]);
    let mut bytes = suspend_at_first(&mix, &config, None, CheckpointCadence::EveryRecords(500))
        .expect_err("short cadence must suspend");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let err = SimSession::new(&mix, &config)
        .resume(Some(bytes.as_slice()))
        .run();
    assert!(err.is_err(), "bit-flipped snapshot must not restore");
}

#[test]
fn snapshot_from_a_different_mechanism_is_rejected() {
    let mix = WorkloadMix::new(vec![Benchmark::Libquantum]);
    let dbi_config = tiny_config(
        1,
        Mechanism::Dbi {
            awb: false,
            clb: false,
        },
        3,
    );
    let bytes = suspend_at_first(
        &mix,
        &dbi_config,
        None,
        CheckpointCadence::EveryRecords(500),
    )
    .expect_err("short cadence must suspend");
    let baseline_config = tiny_config(1, Mechanism::Baseline, 3);
    let err = SimSession::new(&mix, &baseline_config)
        .resume(Some(bytes.as_slice()))
        .run();
    assert!(err.is_err(), "mechanism mismatch must not restore");
}

/// The image leads with its trace seed: a snapshot only resumes into a
/// session of the same seed, never into a look-alike run of another.
#[test]
fn snapshot_from_a_different_seed_is_rejected() {
    let mix = WorkloadMix::new(vec![Benchmark::Stream]);
    let config = tiny_config(1, Mechanism::Vwq, 3);
    let bytes = suspend_at_first(&mix, &config, None, CheckpointCadence::EveryRecords(500))
        .expect_err("short cadence must suspend");
    let other_seed = tiny_config(1, Mechanism::Vwq, 4);
    let err = SimSession::new(&mix, &other_seed)
        .resume(Some(bytes.as_slice()))
        .run();
    assert!(err.is_err(), "seed mismatch must not restore");
    // The untouched image still restores into its own seed.
    assert!(SimSession::new(&mix, &config)
        .resume(Some(bytes.as_slice()))
        .run()
        .is_ok());
}
