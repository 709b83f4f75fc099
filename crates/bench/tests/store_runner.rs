//! Integration tests for the persistent result store and the experiment
//! runner: key stability, corruption fallback, bit-identical warm
//! replays, and the crash-tolerance layer (quarantine, watchdog, retry).

use std::path::PathBuf;
use std::time::Duration;

use dbi_bench::{unit_key, BenchArgs, RecordKind, ResultStore, RunUnit, Runner, UnitFault};
use system_sim::{FaultClass, FaultPlan, Mechanism, SystemConfig};
use trace_gen::mix::WorkloadMix;
use trace_gen::Benchmark;

/// A configuration small enough that a store miss costs milliseconds.
fn tiny_config(mechanism: Mechanism) -> SystemConfig {
    let mut c = SystemConfig::for_cores(1, mechanism);
    c.warmup_insts = 20_000;
    c.measure_insts = 50_000;
    c
}

/// Per-test scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("dbi-bench-test-{tag}-{}", std::process::id()));
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
fn same_config_same_key() {
    let a = unit_key(&tiny_config(Mechanism::Baseline), &[Benchmark::Lbm]);
    let b = unit_key(&tiny_config(Mechanism::Baseline), &[Benchmark::Lbm]);
    assert_eq!(a.hash, b.hash);
    assert_eq!(a.fingerprint, b.fingerprint);
}

#[test]
fn any_simulated_field_changes_the_key() {
    let base = unit_key(&tiny_config(Mechanism::Baseline), &[Benchmark::Lbm]);
    let mut keys = vec![base.hash];

    let variants: Vec<SystemConfig> = vec![
        {
            let mut c = tiny_config(Mechanism::Baseline);
            c.seed = c.seed.wrapping_add(1);
            c
        },
        {
            let mut c = tiny_config(Mechanism::Baseline);
            c.llc_bytes_per_core *= 2;
            c
        },
        tiny_config(Mechanism::Dawb),
        tiny_config(Mechanism::Dbi {
            awb: true,
            clb: false,
        }),
        tiny_config(Mechanism::Dbi {
            awb: true,
            clb: true,
        }),
        {
            let mut c = tiny_config(Mechanism::Baseline);
            c.dbi.granularity *= 2;
            c
        },
        {
            let mut c = tiny_config(Mechanism::Baseline);
            c.dram.channels += 1;
            c
        },
        {
            let mut c = tiny_config(Mechanism::Baseline);
            c.dram.drain_policy = dram_sim::DrainPolicy::Watermark { high: 48, low: 16 };
            c
        },
        {
            let mut c = tiny_config(Mechanism::Baseline);
            c.llc_replacement = cache_sim::ReplacementKind::Rrip;
            c
        },
        {
            let mut c = tiny_config(Mechanism::Baseline);
            c.warmup_insts += 1;
            c
        },
        {
            let mut c = tiny_config(Mechanism::Baseline);
            c.measure_insts += 1;
            c
        },
        {
            let mut c = tiny_config(Mechanism::Baseline);
            c.predictor_threshold += 0.001;
            c
        },
        {
            let mut c = tiny_config(Mechanism::Baseline);
            c.awb_rewrite_filter = !c.awb_rewrite_filter;
            c
        },
    ];
    for config in &variants {
        keys.push(unit_key(config, &[Benchmark::Lbm]).hash);
    }
    // The workload is part of the key too.
    keys.push(unit_key(&tiny_config(Mechanism::Baseline), &[Benchmark::Mcf]).hash);
    keys.push(
        unit_key(
            &tiny_config(Mechanism::Baseline),
            &[Benchmark::Lbm, Benchmark::Mcf],
        )
        .hash,
    );

    let distinct: std::collections::HashSet<u64> = keys.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        keys.len(),
        "keys must all differ: {keys:x?}"
    );
}

#[test]
fn store_round_trips_every_field() {
    let scratch = Scratch::new("roundtrip");
    let config = tiny_config(Mechanism::Dbi {
        awb: true,
        clb: true,
    });
    let mix = WorkloadMix::new(vec![Benchmark::Lbm]);
    let result = system_sim::run_mix(&mix, &config);
    let key = unit_key(&config, mix.benchmarks());

    let store = ResultStore::open(scratch.0.clone());
    store.save(&key, &result).expect("save");
    let loaded = store.load(&key).expect("load just-saved entry");

    // MixResult carries no PartialEq; the Debug rendering covers every
    // field, so equal strings mean equal results bit for bit.
    assert_eq!(format!("{result:?}"), format!("{loaded:?}"));
    assert_eq!(store.entry_count(), 1);
}

#[test]
fn corrupt_or_truncated_entries_fall_back_to_recompute() {
    let scratch = Scratch::new("corrupt");
    let unit = RunUnit::alone(Benchmark::Lbm, tiny_config(Mechanism::Baseline));

    let cold = Runner::new("test-corrupt", &scratch.args());
    let first = cold.run_unit(&unit);
    assert_eq!((cold.sims(), cold.hits()), (1, 0));

    let store = ResultStore::open(scratch.0.clone());
    let path = store.entry_path(&unit_key(&unit.config, unit.mix.benchmarks()));
    let full = std::fs::read(&path).expect("entry written");

    for (tag, bytes) in [
        ("truncated", &full[..full.len() / 2]),
        ("binary garbage", &b"\x00\x01\x02nonsense"[..]),
        ("bad magic", b"dbi-bench-result v999\njunk\nend\n"),
        ("empty", b""),
    ] {
        std::fs::write(&path, bytes).unwrap();
        let warm = Runner::new("test-corrupt2", &scratch.args());
        let recomputed = warm.run_unit(&unit);
        assert_eq!(
            (warm.sims(), warm.hits()),
            (1, 0),
            "{tag} entry must be a miss"
        );
        assert_eq!(format!("{first:?}"), format!("{recomputed:?}"));
    }

    // The recompute overwrote the corrupt entry; now it hits again.
    let healed = Runner::new("test-corrupt3", &scratch.args());
    let _ = healed.run_unit(&unit);
    assert_eq!((healed.sims(), healed.hits()), (0, 1));
}

#[test]
fn warm_rerun_is_bit_identical_and_simulates_nothing() {
    let scratch = Scratch::new("warm");
    let units: Vec<RunUnit> = [Benchmark::Lbm, Benchmark::Mcf, Benchmark::Stream]
        .iter()
        .map(|&b| {
            RunUnit::alone(
                b,
                tiny_config(Mechanism::Dbi {
                    awb: true,
                    clb: false,
                }),
            )
        })
        .collect();
    // The rows a TSV-writing binary would derive from the results.
    let rows = |results: &[system_sim::MixResult]| -> Vec<String> {
        results
            .iter()
            .map(|r| {
                format!(
                    "{:.3}\t{:.2}\t{}\t{}",
                    r.cores[0].ipc(),
                    r.wpki(),
                    r.dram.writes,
                    f64::to_bits(r.energy.total_pj())
                )
            })
            .collect()
    };

    let cold = Runner::new("test-cold", &scratch.args());
    let cold_rows = rows(&cold.run_units("cold", &units));
    assert_eq!((cold.sims(), cold.hits()), (3, 0));

    let warm = Runner::new("test-warm", &scratch.args());
    let warm_rows = rows(&warm.run_units("warm", &units));
    assert_eq!(
        (warm.sims(), warm.hits()),
        (0, 3),
        "warm store must serve every unit"
    );
    assert_eq!(cold_rows, warm_rows);
}

/// Drives a work list whose middle unit panics through `runner`, a
/// runner on `scratch`'s store, and checks that only that unit is
/// quarantined while the others complete and reach the store.
fn poison_unit_is_quarantined(scratch: &Scratch, runner: &Runner) {
    // `measure_insts = 0` trips the simulator's own precondition assert —
    // a deliberate in-simulation panic, exactly the failure mode the
    // quarantine exists for.
    let mut poison_config = tiny_config(Mechanism::Baseline);
    poison_config.measure_insts = 0;
    let units = vec![
        RunUnit::alone(Benchmark::Lbm, tiny_config(Mechanism::Baseline)),
        RunUnit::alone(Benchmark::Lbm, poison_config),
        RunUnit::alone(Benchmark::Mcf, tiny_config(Mechanism::Baseline)),
    ];

    let (results, failures) = runner.try_run_units("poisoned", &units);

    assert!(results[0].is_some(), "unit before the poison completes");
    assert!(results[1].is_none(), "the poison unit is quarantined");
    assert!(results[2].is_some(), "unit after the poison completes");
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].index, 1);
    assert_eq!(failures[0].attempts, 2, "one retry before quarantine");
    match &failures[0].fault {
        UnitFault::Panicked(msg) => {
            assert!(
                msg.contains("measurement window"),
                "panic message preserved, got: {msg}"
            );
        }
        other => panic!("expected a panic fault, got {other}"),
    }

    // The completed units reached the persistent store despite the
    // quarantine: a fresh runner serves both without simulating.
    let warm = Runner::new("test-quarantine-warm", &scratch.args());
    let _ = warm.run_unit(&units[0]);
    let _ = warm.run_unit(&units[2]);
    assert_eq!((warm.sims(), warm.hits()), (0, 2));
}

#[test]
fn panicking_unit_is_quarantined_while_the_rest_complete() {
    let scratch = Scratch::new("quarantine");
    let runner = Runner::new("test-quarantine", &scratch.args());
    poison_unit_is_quarantined(&scratch, &runner);
}

#[test]
fn panicking_unit_is_quarantined_without_a_watchdog() {
    let scratch = Scratch::new("quarantine-no-watchdog");
    let runner = Runner::new("test-quarantine-no-watchdog", &scratch.args()).with_watchdog(None);
    poison_unit_is_quarantined(&scratch, &runner);
}

#[test]
fn watchdog_timeout_quarantines_after_one_retry() {
    let scratch = Scratch::new("watchdog");
    // Big enough that a millisecond watchdog always trips first.
    let mut slow_config = tiny_config(Mechanism::Baseline);
    slow_config.warmup_insts = 2_000_000;
    slow_config.measure_insts = 8_000_000;
    let units = vec![RunUnit::alone(Benchmark::Lbm, slow_config)];

    let runner =
        Runner::new("test-watchdog", &scratch.args()).with_watchdog(Some(Duration::from_millis(1)));
    let (results, failures) = runner.try_run_units("slow", &units);

    assert!(results[0].is_none());
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].attempts, 2);
    assert!(
        matches!(failures[0].fault, UnitFault::TimedOut(_)),
        "expected a timeout, got {}",
        failures[0].fault
    );
    assert_eq!(runner.sims(), 0, "a timed-out unit is not a completed sim");
}

/// A checked runner counts the lost writes and sanitizer violations of
/// the units it simulates: none for a clean unit, every one for a unit
/// with a dropped writeback. `try_run_units` still returns both results.
#[test]
fn checked_units_count_their_violations() {
    let scratch = Scratch::new("violations");
    let args = BenchArgs {
        check: true,
        ..scratch.args()
    };
    // Tiny private caches and LLC, so dirty blocks reach the LLC and the
    // dropped writeback fires within the window.
    let mut config = tiny_config(Mechanism::Baseline);
    config.llc_bytes_per_core = 64 * 1024;
    config.l1_bytes = 4 * 1024;
    config.l2_bytes = 8 * 1024;
    let clean = RunUnit::alone(Benchmark::Lbm, config.clone());
    config.fault = Some(FaultPlan::new(FaultClass::DropWriteback, 1));
    let faulted = RunUnit::alone(Benchmark::Lbm, config);

    let runner = Runner::new("test-violations-clean", &args);
    let (results, failures) = runner.try_run_units("clean", std::slice::from_ref(&clean));
    assert!(failures.is_empty() && results[0].is_some());
    assert_eq!(runner.violations(), 0);

    let runner = Runner::new("test-violations", &args);
    let (results, failures) = runner.try_run_units("faulted", &[clean, faulted]);
    assert!(failures.is_empty());
    let result = results[1].as_ref().expect("a faulted unit still completes");
    let lost = match &result.check {
        Some(Err(lost)) => lost.len() as u64,
        other => panic!("the dropped writeback must be a lost write, got {other:?}"),
    };
    let sanitizer = result.sanitizer.as_ref().expect("--check sanitizes");
    assert!(sanitizer.fault.is_some(), "the fault fired");
    assert_eq!(runner.violations(), lost + sanitizer.total_violations);
    assert_eq!(runner.sims(), 2, "checked units bypass the store");
}

#[test]
fn corrupt_entries_are_counted_not_just_recomputed() {
    let scratch = Scratch::new("corrupt-count");
    let config = tiny_config(Mechanism::Baseline);
    let mix = WorkloadMix::new(vec![Benchmark::Lbm]);
    let key = unit_key(&config, mix.benchmarks());
    let result = system_sim::run_mix(&mix, &config);

    let store = ResultStore::open(scratch.0.clone());
    store.save(&key, &result).expect("save");
    assert_eq!(store.corrupt_count(), 0);

    // An absent entry is a plain miss, not corruption.
    let missing = unit_key(&config, &[Benchmark::Mcf]);
    assert!(store.load(&missing).is_none());
    assert_eq!(store.corrupt_count(), 0);

    // A mangled file is both a miss and a counted corruption.
    std::fs::write(store.entry_path(&key), "not an entry").unwrap();
    assert!(store.load(&key).is_none());
    assert!(store.load(&key).is_none());
    assert_eq!(store.corrupt_count(), 2);
}

#[test]
fn entry_checksum_catches_flips_that_still_parse() {
    // v2's weakness: a flipped digit inside a counter parses fine and
    // would silently serve a wrong result. v3's trailing checksum makes
    // that a counted corruption instead. Since v7 the payload is a
    // snapshot stream with a checksum of its own; the tampered payload
    // here is re-sealed, so only the record's checksum catches it.
    let scratch = Scratch::new("checksum");
    let config = tiny_config(Mechanism::Baseline);
    let mix = WorkloadMix::new(vec![Benchmark::Lbm]);
    let key = unit_key(&config, mix.benchmarks());
    let result = system_sim::run_mix(&mix, &config);

    let store = ResultStore::open(scratch.0.clone());
    store.save(&key, &result).expect("save");

    let path = store.entry_path(&key);
    let bytes = std::fs::read(&path).unwrap();
    let (_, _, payload) = dbi_bench::store::decode(&bytes).unwrap();
    // The payload ends with the record count and the snapshot checksum.
    let at = bytes.len() - (payload.len() + "checksum 0123456789abcdef\nend\n".len());
    let mut body = payload[..payload.len() - 8].to_vec();
    let records = body.len() - 8;
    body[records..].copy_from_slice(&(result.records_processed + 1).to_le_bytes());
    let sum = dbi::snap::fnv1a64(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    let parsed = system_sim::MixResult::from_bytes(&body).expect("re-sealed payload parses");
    assert_eq!(parsed.records_processed, result.records_processed + 1);
    let mut tampered = bytes.clone();
    tampered[at..at + body.len()].copy_from_slice(&body);
    assert_ne!(bytes, tampered);
    std::fs::write(&path, tampered).unwrap();

    assert!(store.load(&key).is_none(), "tampered entry must miss");
    assert_eq!(store.corrupt_count(), 1, "and be counted as corruption");
}

#[test]
fn decode_recovers_kind_fingerprint_and_result() {
    let scratch = Scratch::new("any");
    let store = ResultStore::open(scratch.0.clone());
    // Every mechanism at one and four cores, and once with the rewrite
    // filter on, so every optional stats struct takes both forms.
    let mut units: Vec<(WorkloadMix, SystemConfig)> = Vec::new();
    for mechanism in Mechanism::ALL {
        units.push((
            WorkloadMix::new(vec![Benchmark::Mcf]),
            tiny_config(mechanism),
        ));
        let mut config = SystemConfig::for_cores(4, mechanism);
        config.warmup_insts = 5_000;
        config.measure_insts = 10_000;
        let mix = [
            Benchmark::Lbm,
            Benchmark::Mcf,
            Benchmark::Stream,
            Benchmark::Milc,
        ];
        units.push((WorkloadMix::new(mix.to_vec()), config));
    }
    let mut filtered = tiny_config(Mechanism::Dbi {
        awb: true,
        clb: false,
    });
    filtered.awb_rewrite_filter = true;
    units.push((WorkloadMix::new(vec![Benchmark::Lbm]), filtered));

    for (mix, config) in &units {
        let key = unit_key(config, mix.benchmarks());
        let result = system_sim::run_mix(mix, config);
        store.save(&key, &result).expect("save");
        let bytes = std::fs::read(store.entry_path(&key)).unwrap();

        let (kind, fingerprint, payload) =
            dbi_bench::store::decode(&bytes).expect("clean entry decodes");
        assert_eq!(kind, RecordKind::Entry);
        assert_eq!(fingerprint, key.fingerprint);
        assert_eq!(dbi_bench::fingerprint_hash(fingerprint), key.hash);
        assert_eq!(
            store.load_record(RecordKind::Entry, &key).as_deref(),
            Some(payload)
        );
        assert_eq!(store.load(&key).unwrap().digest(), result.digest());
    }
    assert_eq!(units.len(), 19);
    let last = units.last().unwrap();
    let loaded = store.load(&unit_key(&last.1, last.0.benchmarks())).unwrap();
    assert!(loaded.rewrite_filter.is_some() && loaded.dbi.is_some());
    assert_eq!(store.corrupt_count(), 0);
}

#[test]
fn checkpoints_round_trip_and_reject_foreign_hashes() {
    let scratch = Scratch::new("ckpt");
    let store = ResultStore::open(scratch.0.clone());
    let key_a = unit_key(&tiny_config(Mechanism::Baseline), &[Benchmark::Lbm]);
    let key_b = unit_key(&tiny_config(Mechanism::Baseline), &[Benchmark::Mcf]);
    let ckpt = RecordKind::Ckpt;

    assert!(store.load_record(ckpt, &key_a).is_none());
    let payload = vec![0xAB; 257];
    store.save_record(ckpt, &key_a, &payload).expect("save");
    assert_eq!(
        store.load_record(ckpt, &key_a).as_deref(),
        Some(&payload[..])
    );

    // Same hash, hence same file name, but another unit's fingerprint: an
    // 8-byte hash guard would accept this file; the full fingerprint
    // check must not.
    let collided = dbi_bench::StoreKey {
        hash: key_a.hash,
        fingerprint: key_b.fingerprint.clone(),
    };
    assert!(store.load_record(ckpt, &collided).is_none());

    // A checkpoint copied (or renamed) under another unit's name is
    // rejected by the embedded fingerprint.
    std::fs::copy(
        store.record_path(ckpt, &key_a),
        store.record_path(ckpt, &key_b),
    )
    .unwrap();
    assert!(store.load_record(ckpt, &key_b).is_none());

    // A truncated checkpoint is rejected, not misread, and counted.
    std::fs::write(store.record_path(ckpt, &key_a), [1, 2, 3]).unwrap();
    assert!(store.load_record(ckpt, &key_a).is_none());
    assert_eq!(store.corrupt_count(), 3);

    store.clear_checkpoint(&key_a);
    store.clear_checkpoint(&key_b);
    assert!(!store.record_path(ckpt, &key_a).exists());
}

#[test]
fn check_runs_bypass_the_store() {
    let scratch = Scratch::new("check");
    let mut config = tiny_config(Mechanism::Baseline);
    config.check = true;
    let unit = RunUnit::alone(Benchmark::Lbm, config);

    for _ in 0..2 {
        let runner = Runner::new("test-check", &scratch.args());
        let result = runner.run_unit(&unit);
        assert_eq!(
            (runner.sims(), runner.hits()),
            (1, 0),
            "check runs must always simulate"
        );
        assert!(result.check.is_some(), "checker verdict must be present");
    }
}

/// The nine mechanisms of Table 2 on one benchmark: one front key.
fn nine_mechanisms(benchmark: Benchmark) -> Vec<RunUnit> {
    Mechanism::ALL
        .iter()
        .map(|&m| RunUnit::alone(benchmark, tiny_config(m)))
        .collect()
}

/// Every file under `dir`, at any depth.
fn files_under(dir: &std::path::Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .filter_map(Result::ok)
        .flat_map(|e| {
            let path = e.path();
            if path.is_dir() {
                files_under(&path)
            } else {
                vec![path]
            }
        })
        .collect()
}

#[test]
fn followers_replay_their_leaders_front_ends_bit_identically() {
    let units = nine_mechanisms(Benchmark::Mcf);
    let expected: Vec<String> = units
        .iter()
        .map(|u| system_sim::System::new(&u.mix, &u.config).run().digest())
        .collect();
    for jobs in [1, 2] {
        let scratch = Scratch::new(&format!("replay-{jobs}"));
        let args = BenchArgs {
            jobs: Some(jobs),
            ..scratch.args()
        };
        let runner = Runner::new("test-replay", &args);
        let (results, failures) = runner.try_run_units("replay", &units);
        assert!(failures.is_empty());
        for (r, want) in results.iter().zip(&expected) {
            assert_eq!(
                &r.as_ref().expect("completed").digest(),
                want,
                "jobs {jobs}"
            );
        }
        assert_eq!(runner.sims(), 9);
        if jobs == 1 {
            assert_eq!(runner.replayed(), 8, "every follower replays at one job");
        } else {
            assert!(runner.replayed() <= 8, "the leader never replays");
        }
        assert!(
            files_under(&scratch.0.join("spill")).is_empty(),
            "no stream outlives its work list"
        );
    }
}

#[test]
fn followers_of_a_timed_out_leader_run_inline_and_stay_correct() {
    let scratch = Scratch::new("replay-watchdog");
    // The leader's window is far longer than the watchdog; its followers
    // share its front key (windows are not in it) and finish well inside.
    let mut slow = tiny_config(Mechanism::Baseline);
    slow.warmup_insts = 3_000_000;
    slow.measure_insts = 12_000_000;
    let mut units = vec![RunUnit::alone(Benchmark::Lbm, slow)];
    for m in [Mechanism::TaDip, Mechanism::Dawb, Mechanism::Vwq] {
        let mut quick = tiny_config(m);
        quick.warmup_insts = 1_000;
        quick.measure_insts = 1_000;
        units.push(RunUnit::alone(Benchmark::Lbm, quick));
    }
    let runner = Runner::new("test-replay-watchdog", &scratch.args())
        .with_watchdog(Some(Duration::from_millis(100)));
    let (results, failures) = runner.try_run_units("replay-watchdog", &units);

    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].index, 0);
    assert!(matches!(failures[0].fault, UnitFault::TimedOut(_)));
    assert!(results[0].is_none());
    for (r, u) in results.iter().zip(&units).skip(1) {
        let want = system_sim::System::new(&u.mix, &u.config).run().digest();
        assert_eq!(r.as_ref().expect("a follower completes").digest(), want);
    }
    assert_eq!(runner.replayed(), 0, "a timed-out leader publishes nothing");
}

#[test]
fn streams_never_outlive_their_runners() {
    let scratch = Scratch::new("spill-lifecycle");
    let spill = scratch.0.join("spill");
    let units = nine_mechanisms(Benchmark::Lbm);

    // A run stopped at its second checkpoint leaves checkpoints, not
    // streams.
    let crashed = Runner::new("test-spill-crash", &scratch.args())
        .with_checkpoint_every(500)
        .with_crash_after_checkpoints(2);
    let (results, _) = crashed.try_run_units("crash", &units);
    assert!(
        results.iter().any(Option::is_none),
        "the crash budget ran out"
    );
    assert!(files_under(&spill).is_empty());
    drop(crashed);

    // The streams of a process that no longer exists (a `kill -9`).
    let mut child = std::process::Command::new("true")
        .spawn()
        .expect("spawn a process to outlive");
    let dead = child.id();
    child.wait().expect("the process exits");
    let leftover = spill.join(format!("{dead}-0")).join("0-0");
    std::fs::create_dir_all(&leftover).expect("plant leftover streams");
    std::fs::write(leftover.join("core0.words"), b"stale").expect("plant a stream");

    let next = Runner::new("test-spill-next", &scratch.args());
    let (results, failures) = next.try_run_units("resume", &units);
    assert!(failures.is_empty() && results.iter().all(Option::is_some));
    next.finish();
    assert!(
        !spill.exists(),
        "no stream directory survives a finished runner"
    );

    let report = dbi_bench::scrub_store(&scratch.0).expect("scrub the store");
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.scanned, 9, "nine entries and no other record");
}
