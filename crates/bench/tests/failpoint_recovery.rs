//! The recovery matrix: crash the store at every failpoint site, in
//! every applicable mode, and prove the store recovers.
//!
//! For each (site, mode) pair the scenario is: arm the failpoint on one
//! store handle (a crash aborts the store operation in-process, leaving
//! exactly the on-disk state a mid-protocol kill would), save an entry
//! through it, then
//!
//! 1. the operation's result matches the mode (torn/crash/eio fail,
//!    short/drop-sync complete silently);
//! 2. the failpoint actually fired (the sites name real code paths,
//!    not aspirational ones);
//! 3. a *fresh* store handle on the same directory never panics and
//!    never serves a wrong value — every load is either a miss or
//!    exactly the value whose write was attempted;
//! 4. `scrub_store` removes the debris (orphaned temp files, corrupt
//!    visible files into quarantine), after which every surviving data
//!    file validates;
//! 5. redoing the operation through a fresh, unarmed handle heals the
//!    store, and a final scrub finds nothing left to repair.
//!
//! A failpoint belongs to the handle it is armed on, so nothing here is
//! shared between tests: saves through other handles, in this process or
//! any other, never trip it.

use std::path::PathBuf;
use std::sync::OnceLock;

use dbi_bench::failpoints::{modes_for, FailMode, Site};
use dbi_bench::store::{unit_key, ResultStore, StoreKey};
use dbi_bench::{scrub_store, RunUnit};
use system_sim::{run_mix, Mechanism, MixResult, SystemConfig};
use trace_gen::Benchmark;

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

/// Saves the tiny unit's entry through `store`.
fn perform(store: &ResultStore) -> std::io::Result<()> {
    store.save_record(&tiny().1, entry_payload())
}

#[test]
fn recovery_matrix_covers_every_site_and_mode() {
    let (_, key, result) = tiny();
    let payload = entry_payload();
    let mut runs = 0;
    for site in Site::ALL {
        for mode in modes_for(site) {
            runs += 1;
            let spec = format!("{site:?}:{mode:?}");
            let s = Scratch::new(&format!("{site:?}-{mode:?}"));
            let dir = s.dir.join("store");

            let mut armed = ResultStore::open(dir.clone());
            armed.arm_failpoint(site, mode);
            let outcome = perform(&armed);
            assert!(armed.failpoint_fired(), "site {spec} never fired");
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
            perform(&reopened).unwrap_or_else(|e| {
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
