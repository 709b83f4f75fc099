//! The recovery matrix: crash the store at every registered failpoint
//! site, in every applicable mode, and prove the store recovers.
//!
//! For each (site, mode) pair the scenario is: arm the failpoint with
//! [`CrashStyle::Error`] (abort the store operation in-process, leaving
//! exactly the on-disk state a mid-protocol kill would), save an entry,
//! then
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
use dbi_bench::store::{unit_key, ResultStore, StoreKey};
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

/// The tiny unit's entry payload: whatever `save` writes for its result.
fn entry_payload() -> &'static Vec<u8> {
    static PAYLOAD: OnceLock<Vec<u8>> = OnceLock::new();
    PAYLOAD.get_or_init(|| {
        let (_, key, result) = tiny();
        let s = Scratch::new("entry-payload");
        let store = ResultStore::open(s.dir.clone());
        store.save(key, result).unwrap();
        store.load_record(key).unwrap()
    })
}

/// Saves the tiny unit's entry into `dir`.
fn perform(dir: &Path) -> std::io::Result<()> {
    ResultStore::open(dir.to_path_buf()).save_record(&tiny().1, entry_payload())
}

#[test]
fn recovery_matrix_covers_every_site_and_mode() {
    let _serial = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let sites = all_sites();
    assert_eq!(sites.len(), 4, "one protocol, four stages");
    let (_, key, result) = tiny();
    let payload = entry_payload();
    let mut runs = 0;
    for site in sites {
        for mode in modes_for(site) {
            runs += 1;
            let spec = FailSpec { site, mode };
            let s = Scratch::new(&spec.to_string().replace([':', '.'], "-"));
            let dir = s.dir.join("store");

            failpoints::install(
                FailPlan::new(spec, 7)
                    .with_style(CrashStyle::Error)
                    .with_fire_at(1),
            );
            let outcome = perform(&dir);
            let fired = failpoints::fired();
            failpoints::clear();

            assert_eq!(fired, Some(spec), "site {spec} never fired");
            match mode {
                FailMode::Torn | FailMode::Crash | FailMode::Eio => {
                    assert!(outcome.is_err(), "{spec}: injected failure swallowed");
                }
                FailMode::Short | FailMode::DropSync => {
                    assert!(outcome.is_ok(), "{spec}: silent mode surfaced an error");
                }
            }

            // A fresh handle on the crashed directory: no panic, no lies —
            // a miss or exactly the payload the writer tried.
            let reopened = ResultStore::open(dir.clone());
            if let Some(loaded) = reopened.load_record(key) {
                assert_eq!(&loaded, payload, "{spec}: served a wrong entry");
            }

            // Scrub the debris, redo the write cleanly, verify the value
            // is served, and prove nothing is left to repair.
            scrub_store(&dir).unwrap();
            perform(&dir).unwrap_or_else(|e| {
                panic!("{spec}: clean redo failed after scrub: {e}");
            });
            let healed = ResultStore::open(dir.clone());
            assert!(
                healed.load(key).is_some_and(|r| same_result(&r, result)),
                "{spec}: healed entry must round-trip"
            );
            let report = scrub_store(&dir).unwrap();
            assert!(
                report.is_clean(),
                "{spec}: store still dirty after heal: {report}"
            );
        }
    }
    // One atomic-write protocol with 4+3+2+3 modes across its four
    // stages.
    assert_eq!(runs, 12, "the matrix shrank — sites untested");
}

/// Disarmed failpoints must be invisible: the same operations succeed
/// and round-trip with nothing installed (the production path).
#[test]
fn disarmed_failpoints_are_noops() {
    let _serial = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (_, key, result) = tiny();
    let s = Scratch::new("noop");
    perform(&s.dir).unwrap();
    let store = ResultStore::open(s.dir.clone());
    assert!(same_result(&store.load(key).unwrap(), result));
    assert_eq!(store.load_record(key).as_ref(), Some(entry_payload()));
    assert_eq!(failpoints::fired(), None);
    let report = scrub_store(&s.dir).unwrap();
    assert!(report.is_clean(), "{report}");
}
