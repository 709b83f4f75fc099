//! Property test: arbitrary truncation or bit-flips of on-disk store
//! files must read back as a miss — never a panic, never a wrong value.
//!
//! The store's contract is that `load_record` (and `load`, the typed
//! entry wrapper) treats any damaged record as absent (the unit
//! recomputes). This test damages a real serialized entry at generated
//! offsets — a truncation (what a torn write leaves) or a
//! single bit-flip (what bad storage leaves) — and asserts the contract
//! byte by byte.

use std::path::PathBuf;
use std::sync::OnceLock;

use dbi_bench::store::{unit_key, ResultStore, StoreKey};
use dbi_bench::RunUnit;
use proptest::prelude::*;
use system_sim::{run_mix, Mechanism, SystemConfig};
use trace_gen::Benchmark;

/// The pristine record file: its key, the payload it frames, and its
/// bytes on disk.
struct Pristine {
    key: StoreKey,
    payload: Vec<u8>,
    file: Vec<u8>,
}

/// The pristine entry of a tiny unit — built once, mutated per case.
fn pristine() -> &'static Pristine {
    static FILE: OnceLock<Pristine> = OnceLock::new();
    FILE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("dbi-corrupt-seed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(dir.clone());
        let mut config = SystemConfig::for_cores(1, Mechanism::Baseline);
        config.warmup_insts = 5_000;
        config.measure_insts = 5_000;
        let unit = RunUnit::alone(Benchmark::Mcf, config);
        let key = unit_key(&unit.config, unit.mix.benchmarks());
        store.save(&key, &run_mix(&unit.mix, &unit.config)).unwrap();
        let pristine = Pristine {
            payload: store.load_record(&key).unwrap(),
            file: std::fs::read(store.entry_path(&key)).unwrap(),
            key,
        };
        let _ = std::fs::remove_dir_all(&dir);
        pristine
    })
}

/// A store directory holding exactly one damaged file.
struct Damaged {
    dir: PathBuf,
    store: ResultStore,
}

impl Damaged {
    fn new(case: u64, name: &str, bytes: &[u8]) -> Damaged {
        let dir = std::env::temp_dir().join(format!(
            "dbi-corrupt-{case}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(name), bytes).unwrap();
        Damaged {
            store: ResultStore::open(dir.clone()),
            dir,
        }
    }
}

impl Drop for Damaged {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Applies the generated damage: truncate to `at`, or flip `bit` of the
/// byte at `at` (`at` is a fraction so any file length is covered).
fn damage(original: &[u8], frac: f64, flip: bool, bit: u32) -> Vec<u8> {
    let at = ((original.len() as f64) * frac) as usize;
    if flip {
        let mut bytes = original.to_vec();
        let at = at.min(original.len() - 1);
        bytes[at] ^= 1 << bit;
        bytes
    } else {
        original[..at].to_vec()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn damaged_entries_read_as_misses(
        frac in 0.0f64..1.0,
        flip in any::<bool>(),
        bit in 0u32..8,
        case in 0u64..u64::MAX,
    ) {
        // `load_record` serves exactly the pristine payload or misses:
        // the pristine file must load, a damaged one must never.
        let p = pristine();
        let bytes = damage(&p.file, frac, flip, bit);
        let name = format!("{:016x}.entry", p.key.hash);
        let d = Damaged::new(case, &name, &bytes);
        let intact = bytes == p.file;
        match d.store.load_record(&p.key) {
            None => prop_assert!(!intact, "the pristine entry must load"),
            Some(payload) => {
                prop_assert!(intact, "served a damaged entry");
                prop_assert_eq!(&payload, &p.payload);
            }
        }
        // The typed wrapper agrees with the record it wraps.
        prop_assert_eq!(d.store.load(&p.key).is_some(), intact);
    }
}
