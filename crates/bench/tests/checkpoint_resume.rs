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

/// Rewrites the LLC DBI section of checkpoint `payload` into the layout
/// that preceded fixed-width DBI ways — per set a way count, per way a
/// valid flag and, when valid, the row and a dense dirty container
/// (length, representation tag, bit count, words) — and re-seals the
/// payload's checksum, so only the DBI decoder can reject the image.
fn with_old_dbi_layout(payload: &[u8], dbi: &dbi::DbiConfig) -> Vec<u8> {
    let (sets, ways) = (dbi.sets() as usize, dbi.associativity());
    let (granularity, words) = (dbi.granularity(), dbi.granularity().div_ceil(64));
    let header: Vec<u8> = [sets, ways, words]
        .iter()
        .flat_map(|&n| (n as u64).to_le_bytes())
        .collect();
    let starts: Vec<usize> = payload
        .windows(header.len())
        .enumerate()
        .filter(|(_, w)| *w == header.as_slice())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(starts.len(), 1, "one DBI section in the checkpoint");
    let u64_at = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
    let policy_len = 1 + 8 + 8 * ways + 3 * 8;

    let mut old = dbi::SnapWriter::new();
    old.usize(sets);
    let mut at = starts[0] + header.len();
    let (mut entries, mut dirty) = (0, 0);
    for _ in 0..sets {
        old.usize(ways);
        for _ in 0..ways {
            let row = u64_at(at);
            let valid = row != u64::MAX;
            old.bool(valid);
            if valid {
                entries += 1;
                old.u64(row);
                old.usize(granularity);
                old.u8(0);
                old.usize(granularity);
                for i in 0..words {
                    let word = u64_at(at + 8 + 8 * i);
                    dirty += u64::from(word.count_ones());
                    old.u64(word);
                }
            }
            at += 8 + 8 * words;
        }
        for &b in &payload[at..at + policy_len] {
            old.u8(b);
        }
        at += policy_len;
    }
    // The dirty count and the eight `DbiStats` counters follow unchanged;
    // the count matching the walked ways shows the walk kept its place.
    assert!(entries > 0, "the checkpoint holds DBI entries");
    assert_eq!(u64_at(at), dirty, "DBI dirty count after the ways");
    let old = old.finish();
    let body = &payload[..payload.len() - 8];
    let mut forged = body[..starts[0]].to_vec();
    forged.extend_from_slice(&old[..old.len() - 8]);
    forged.extend_from_slice(&body[at..]);
    let sum = dbi::snap::fnv1a64(&forged);
    forged.extend_from_slice(&sum.to_le_bytes());
    forged
}

#[test]
fn checkpoints_in_the_old_dbi_layout_restart_cold() {
    let scratch = Scratch::new("oldckpt");
    // A warmup long enough (about 17 000 records) that L2 evictions have
    // filled LLC DBI entries by the checkpoint.
    let mut config = tiny_config(11);
    config.warmup_insts = 400_000;
    let unit = RunUnit::alone(Benchmark::Lbm, config);
    let key = unit_key(&unit.config, unit.mix.benchmarks());
    let straight = system_sim::run_mix(&unit.mix, &unit.config).digest();

    let crashed = Runner::new("test-oldckpt", &scratch.args())
        .with_checkpoint_every(15_000)
        .with_crash_after_checkpoints(1);
    let (results, _) = crashed.try_run_units("fig", std::slice::from_ref(&unit));
    assert!(results[0].is_none());

    // Replace the checkpoint with the same state in the old DBI layout,
    // framed and checksummed as a valid record.
    let store = ResultStore::open(scratch.0.clone());
    let payload = store.load_record(RecordKind::Ckpt, &key).unwrap();
    let dbi = unit.config.dbi.build(unit.config.llc_blocks()).unwrap();
    let forged = with_old_dbi_layout(&payload, &dbi);
    assert_ne!(forged, payload);
    store.save_record(RecordKind::Ckpt, &key, &forged).unwrap();

    // The record decodes, its DBI section does not: the rerun warns once,
    // discards the checkpoint and runs the unit cold to the same result.
    let rerun = Runner::new("test-oldckpt2", &scratch.args()).with_checkpoint_every(500);
    let (results, failures) = rerun.try_run_units("fig", std::slice::from_ref(&unit));
    assert!(failures.is_empty());
    assert_eq!(
        (rerun.sims(), rerun.resumes(), rerun.corrupt()),
        (1, 0, 0),
        "an old-layout checkpoint must cold-start, not resume"
    );
    assert_eq!(results[0].as_ref().unwrap().digest(), straight);
    assert!(store.load_record(RecordKind::Ckpt, &key).is_none());
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
