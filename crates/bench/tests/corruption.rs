//! Property test: arbitrary truncation or bit-flips of on-disk store
//! files must read back as a miss — never a panic, never a wrong value.
//!
//! The store's contract is that `load_record` (and `load`, the typed
//! entry wrapper) treats any damaged record as absent (the unit
//! recomputes). This test damages real serialized files of each kind at
//! generated offsets — a truncation (what a torn write leaves) or a
//! single bit-flip (what bad storage leaves) — and asserts the contract
//! byte by byte.

use std::path::PathBuf;
use std::sync::OnceLock;

use dbi_bench::store::{scenario_key, unit_key, RecordKind, ResultStore, StoreKey};
use dbi_bench::RunUnit;
use proptest::prelude::*;
use system_sim::{run_mix, Mechanism, SystemConfig};
use trace_gen::Benchmark;

/// One pristine record file of one kind: its key, the payload it frames,
/// and its bytes on disk.
struct Pristine {
    key: StoreKey,
    payload: Vec<u8>,
    file: Vec<u8>,
}

/// The pristine entry, blob and checkpoint, in `RecordKind::ALL` order —
/// built once, mutated per case.
fn pristine(kind: RecordKind) -> &'static Pristine {
    static FILES: OnceLock<Vec<Pristine>> = OnceLock::new();
    let files = FILES.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("dbi-corrupt-seed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(dir.clone());
        let mut config = SystemConfig::for_cores(1, Mechanism::Baseline);
        config.warmup_insts = 5_000;
        config.measure_insts = 5_000;
        let unit = RunUnit::alone(Benchmark::Mcf, config);
        let entry_key = unit_key(&unit.config, unit.mix.benchmarks());
        store
            .save(&entry_key, &run_mix(&unit.mix, &unit.config))
            .unwrap();
        let entry = store.load_record(RecordKind::Entry, &entry_key).unwrap();
        let mut w = dbi::snap::SnapWriter::new();
        w.u64(7);
        w.str("ckpt payload");
        let records = [
            (entry_key, entry),
            (
                scenario_key("corruption", "p=1"),
                b"blob payload\nwith lines\n".to_vec(),
            ),
            (scenario_key("corruption-ckpt", "p=1"), w.finish()),
        ];
        let files = RecordKind::ALL
            .into_iter()
            .zip(records)
            .map(|(kind, (key, payload))| {
                store.save_record(kind, &key, &payload).unwrap();
                Pristine {
                    file: std::fs::read(store.record_path(kind, &key)).unwrap(),
                    key,
                    payload,
                }
            })
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        files
    });
    &files[kind as usize]
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

/// Writes the damaged bytes of `kind`'s pristine file and checks that
/// `load_record` serves exactly the pristine payload or misses: the
/// pristine file must load, a damaged one must never. Returns the store
/// holding the file and whether the file is intact.
fn damaged_record_reads_as_miss(
    kind: RecordKind,
    frac: f64,
    flip: bool,
    bit: u32,
    case: u64,
) -> Result<(Damaged, bool), TestCaseError> {
    let p = pristine(kind);
    let bytes = damage(&p.file, frac, flip, bit);
    let name = format!("{:016x}.{}", p.key.hash, kind.ext());
    let d = Damaged::new(case, &name, &bytes);
    match d.store.load_record(kind, &p.key) {
        None => prop_assert!(bytes != p.file, "pristine {kind:?} must load"),
        Some(payload) => {
            prop_assert_eq!(&bytes, &p.file, "served a damaged {:?}", kind);
            prop_assert_eq!(&payload, &p.payload);
        }
    }
    let intact = bytes == p.file;
    Ok((d, intact))
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
        let (d, intact) = damaged_record_reads_as_miss(RecordKind::Entry, frac, flip, bit, case)?;
        // The typed wrapper agrees with the record it wraps.
        prop_assert_eq!(d.store.load(&pristine(RecordKind::Entry).key).is_some(), intact);
    }

    #[test]
    fn damaged_blobs_read_as_misses(
        frac in 0.0f64..1.0,
        flip in any::<bool>(),
        bit in 0u32..8,
        case in 0u64..u64::MAX,
    ) {
        damaged_record_reads_as_miss(RecordKind::Blob, frac, flip, bit, case)?;
    }

    #[test]
    fn damaged_checkpoints_never_resume_wrong(
        frac in 0.0f64..1.0,
        flip in any::<bool>(),
        bit in 0u32..8,
        case in 0u64..u64::MAX,
    ) {
        damaged_record_reads_as_miss(RecordKind::Ckpt, frac, flip, bit, case)?;
    }
}
