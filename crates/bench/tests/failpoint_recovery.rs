//! The recovery matrix: crash the store at every registered failpoint
//! site, in every applicable mode, for every record kind, and prove the
//! store recovers.
//!
//! For each (site, mode) pair and each kind (entry, blob, checkpoint) the
//! scenario is: arm the failpoint with [`CrashStyle::Error`] (abort the
//! store operation in-process, leaving exactly the on-disk state a
//! mid-protocol kill would), save that kind's record, then
//!
//! 1. the operation's result matches the mode (torn/crash/eio fail,
//!    short/drop-sync complete silently);
//! 2. the failpoint actually fired (the registry names real code paths,
//!    not aspirational ones);
//! 3. a *fresh* store handle on the same directory never panics and
//!    never serves a wrong value — every load is either a miss or
//!    exactly the value whose write was attempted;
//! 4. `scrub_store` removes the debris (orphaned temp files, corrupt
//!    visible files into quarantine), after which every surviving data
//!    file validates;
//! 5. redoing the operation with failpoints disarmed heals the store,
//!    and a final scrub finds nothing left to repair.
//!
//! Failpoints are process-global, so the whole matrix runs inside ONE
//! `#[test]` in its own integration-test binary, and every test here
//! holds [`LOCK`]: the harness runs a file's tests on parallel threads,
//! and a disarmed-path test writing entries while the matrix has a plan
//! armed would trip (or steal) the matrix's firing.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock, PoisonError};

use dbi_bench::failpoints::{self, CrashStyle, FailMode, FailPlan, FailSpec};
use dbi_bench::store::{scenario_key, unit_key, RecordKind, ResultStore, StoreKey};
use dbi_bench::{all_sites, modes_for, scrub_store, RunUnit};
use system_sim::{run_mix, Mechanism, MixResult, SystemConfig};
use trace_gen::Benchmark;

/// Serializes the tests of this file around the process-global plan.
static LOCK: Mutex<()> = Mutex::new(());

struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("dbi-failpoint-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch { dir }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One tiny simulated unit, computed once and shared by every scenario
/// (the matrix tests persistence, not simulation).
fn tiny() -> &'static (RunUnit, StoreKey, MixResult) {
    static UNIT: OnceLock<(RunUnit, StoreKey, MixResult)> = OnceLock::new();
    UNIT.get_or_init(|| {
        let mut config = SystemConfig::for_cores(1, Mechanism::Baseline);
        config.warmup_insts = 5_000;
        config.measure_insts = 5_000;
        let unit = RunUnit::alone(Benchmark::Mcf, config);
        let key = unit_key(&unit.config, unit.mix.benchmarks());
        let result = run_mix(&unit.mix, &unit.config);
        (unit, key, result)
    })
}

/// `MixResult` has no `PartialEq`; its `Debug` form covers every field.
fn same_result(a: &MixResult, b: &MixResult) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

fn ckpt_payload() -> Vec<u8> {
    let mut w = dbi::snap::SnapWriter::new();
    w.u64(0xfeed);
    w.str("matrix checkpoint");
    w.finish()
}

/// The key and payload each kind's record is saved under, in
/// `RecordKind::ALL` order: the tiny unit's real entry, a scenario blob,
/// and a snapshot stream as the unit's checkpoint.
fn record(kind: RecordKind) -> &'static (StoreKey, Vec<u8>) {
    static RECORDS: OnceLock<Vec<(StoreKey, Vec<u8>)>> = OnceLock::new();
    let records = RECORDS.get_or_init(|| {
        let (_, key, result) = tiny();
        // The entry payload is whatever `save` writes for the result.
        let s = Scratch::new("entry-payload");
        let store = ResultStore::open(s.dir.clone());
        store.save(key, result).unwrap();
        let entry = store.load_record(RecordKind::Entry, key).unwrap();
        vec![
            (key.clone(), entry),
            (
                scenario_key("matrix", "p=1"),
                b"scenario payload line 1\nline 2\n".to_vec(),
            ),
            (key.clone(), ckpt_payload()),
        ]
    });
    &records[kind as usize]
}

/// Saves the kind's record into `dir`.
fn perform(kind: RecordKind, dir: &Path) -> std::io::Result<()> {
    let (key, payload) = record(kind);
    ResultStore::open(dir.to_path_buf()).save_record(kind, key, payload)
}

#[test]
fn recovery_matrix_covers_every_site_and_mode() {
    let _serial = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let sites = all_sites();
    assert_eq!(sites.len(), 4, "one protocol, four stages");
    let (mut pairs, mut runs) = (0, 0);
    for site in sites {
        for mode in modes_for(site) {
            pairs += 1;
            let spec = FailSpec { site, mode };
            for kind in RecordKind::ALL {
                runs += 1;
                let (key, payload) = record(kind);
                let tag = format!("{spec}-{}", kind.ext()).replace([':', '.'], "-");
                let s = Scratch::new(&tag);
                let dir = s.dir.join("store");

                failpoints::install(
                    FailPlan::new(spec, 7)
                        .with_style(CrashStyle::Error)
                        .with_fire_at(1),
                );
                let outcome = perform(kind, &dir);
                let fired = failpoints::fired();
                failpoints::clear();

                assert_eq!(fired, Some(spec), "site {spec} never fired ({kind:?})");
                match mode {
                    FailMode::Torn | FailMode::Crash | FailMode::Eio => {
                        assert!(
                            outcome.is_err(),
                            "{spec} {kind:?}: injected failure swallowed"
                        );
                    }
                    FailMode::Short | FailMode::DropSync => {
                        assert!(
                            outcome.is_ok(),
                            "{spec} {kind:?}: silent mode surfaced an error"
                        );
                    }
                }

                // A fresh handle on the crashed directory: no panic, no
                // lies — a miss or exactly the payload the writer tried.
                let reopened = ResultStore::open(dir.clone());
                if let Some(loaded) = reopened.load_record(kind, key) {
                    assert_eq!(&loaded, payload, "{spec}: served a wrong {kind:?}");
                }

                // Scrub the debris, redo the write cleanly, verify the
                // value is served, and prove nothing is left to repair.
                scrub_store(&dir).unwrap();
                perform(kind, &dir).unwrap_or_else(|e| {
                    panic!("{spec} {kind:?}: clean redo failed after scrub: {e}");
                });
                let healed = ResultStore::open(dir.clone());
                assert_eq!(
                    healed.load_record(kind, key).as_ref(),
                    Some(payload),
                    "{spec}: healed {kind:?} must round-trip"
                );
                let report = scrub_store(&dir).unwrap();
                assert!(
                    report.is_clean(),
                    "{spec} {kind:?}: store still dirty after heal: {report}"
                );
            }
        }
    }
    // One atomic-write protocol with 4+3+2+3 modes across its four
    // stages, each run once per record kind.
    assert_eq!(pairs, 12, "the matrix shrank — sites untested");
    assert_eq!(runs, 36, "the matrix skipped a record kind");
}

/// Disarmed failpoints must be invisible: the same operations succeed
/// and round-trip with nothing installed (the production path).
#[test]
fn disarmed_failpoints_are_noops() {
    let _serial = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (_, key, result) = tiny();
    let s = Scratch::new("noop");
    for kind in RecordKind::ALL {
        perform(kind, &s.dir).unwrap();
    }
    let store = ResultStore::open(s.dir.clone());
    assert!(same_result(&store.load(key).unwrap(), result));
    for kind in RecordKind::ALL {
        assert_eq!(
            store.load_record(kind, &record(kind).0).as_ref(),
            Some(&record(kind).1)
        );
    }
    assert_eq!(failpoints::fired(), None);
    let report = scrub_store(&s.dir).unwrap();
    assert!(report.is_clean(), "{report}");
}
