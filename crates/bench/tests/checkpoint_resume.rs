//! Integration tests for checkpointed execution: in-process crash/resume
//! through the store's checkpoint files.

use std::path::PathBuf;

use dbi_bench::{unit_key, BenchArgs, RecordKind, ResultStore, RunUnit, Runner};
use system_sim::{Mechanism, SystemConfig};
use trace_gen::Benchmark;

/// A configuration small enough that a store miss costs milliseconds.
fn tiny_config(seed: u64) -> SystemConfig {
    let mut c = SystemConfig::for_cores(
        1,
        Mechanism::Dbi {
            awb: true,
            clb: false,
        },
    );
    c.warmup_insts = 20_000;
    c.measure_insts = 50_000;
    c.seed = seed;
    c
}

/// Per-test scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("dbi-ckpt-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn args(&self) -> BenchArgs {
        BenchArgs {
            cache_dir: Some(self.0.clone()),
            ..BenchArgs::default()
        }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn crashed_unit_resumes_from_its_checkpoint_bit_identically() {
    let scratch = Scratch::new("resume");
    let unit = RunUnit::alone(Benchmark::Lbm, tiny_config(7));
    let key = unit_key(&unit.config, unit.mix.benchmarks());
    let straight = system_sim::run_mix(&unit.mix, &unit.config).digest();

    // "Kill" the process after its second checkpoint: the unit suspends,
    // no result is produced, but a durable checkpoint remains.
    let crashed = Runner::new("test-crash", &scratch.args())
        .with_checkpoint_every(500)
        .with_crash_after_checkpoints(2);
    let (results, failures) = crashed.try_run_units("fig", std::slice::from_ref(&unit));
    assert!(failures.is_empty(), "a suspension is not a failure");
    assert!(results[0].is_none(), "the crashed unit yields no result");
    assert_eq!(crashed.sims(), 0);
    assert_eq!(
        crashed.skipped(),
        1,
        "a suspended unit counts as not completed in this run"
    );
    let store = ResultStore::open(scratch.0.clone());
    assert!(
        store.load_record(RecordKind::Ckpt, &key).is_some(),
        "a durable checkpoint must remain"
    );

    // The rerun resumes mid-flight instead of starting cold, finishes,
    // and produces exactly the straight-through result.
    let rerun = Runner::new("test-resume", &scratch.args()).with_checkpoint_every(500);
    let (results, failures) = rerun.try_run_units("fig", std::slice::from_ref(&unit));
    assert!(failures.is_empty());
    assert_eq!((rerun.sims(), rerun.resumes()), (1, 1));
    assert_eq!(results[0].as_ref().unwrap().digest(), straight);

    // Completion cleans up: checkpoint gone, entry present.
    assert!(store.load_record(RecordKind::Ckpt, &key).is_none());
    assert!(store.load(&key).is_some());

    // And the warm rerun serves the resumed result from the store.
    let warm = Runner::new("test-warm", &scratch.args());
    let warm_result = warm.run_unit(&unit);
    assert_eq!((warm.sims(), warm.hits()), (0, 1));
    assert_eq!(warm_result.digest(), straight);
}

#[test]
fn corrupt_checkpoints_fall_back_to_a_cold_start() {
    let scratch = Scratch::new("badckpt");
    let unit = RunUnit::alone(Benchmark::Mcf, tiny_config(9));
    let key = unit_key(&unit.config, unit.mix.benchmarks());
    let straight = system_sim::run_mix(&unit.mix, &unit.config).digest();

    let crashed = Runner::new("test-badckpt", &scratch.args())
        .with_checkpoint_every(500)
        .with_crash_after_checkpoints(1);
    let (results, _) = crashed.try_run_units("fig", std::slice::from_ref(&unit));
    assert!(results[0].is_none());
    assert_eq!(crashed.skipped(), 1);

    // Bit-flip the checkpoint payload; the rerun must detect it (the
    // record checksum), count it as corrupt, and still produce the right
    // result from a cold start.
    let store = ResultStore::open(scratch.0.clone());
    let path = store.record_path(RecordKind::Ckpt, &key);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&path, &bytes).unwrap();

    let rerun = Runner::new("test-badckpt2", &scratch.args()).with_checkpoint_every(500);
    let (results, failures) = rerun.try_run_units("fig", std::slice::from_ref(&unit));
    assert!(failures.is_empty());
    assert_eq!(
        (rerun.sims(), rerun.resumes()),
        (1, 0),
        "a corrupt checkpoint must cold-start, not resume"
    );
    assert_eq!(rerun.corrupt(), 1, "and count in the summary's corrupt=");
    assert_eq!(results[0].as_ref().unwrap().digest(), straight);
}
