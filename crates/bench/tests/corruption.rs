//! Property test: arbitrary truncation or bit-flips of on-disk store
//! files must read back as a miss — never a panic, never a wrong value.
//!
//! The store's contract is that `load`/`load_blob`/`load_checkpoint`
//! treat any damaged file as absent (the unit recomputes). This test
//! damages real serialized files at generated offsets — a truncation
//! (what a torn write leaves) or a single bit-flip (what bad storage
//! leaves) — and asserts the contract byte by byte.

use std::path::PathBuf;
use std::sync::OnceLock;

use dbi_bench::store::{scenario_key, unit_key, ResultStore, StoreKey};
use dbi_bench::RunUnit;
use proptest::prelude::*;
use system_sim::{run_mix, Mechanism, SystemConfig};
use trace_gen::Benchmark;

/// The pristine serialized bytes of one entry, one blob, and one
/// checkpoint, with their keys — built once, mutated per case.
struct Pristine {
    entry_key: StoreKey,
    entry: Vec<u8>,
    blob_key: StoreKey,
    blob: Vec<u8>,
    ckpt_key: StoreKey,
    ckpt: Vec<u8>,
    ckpt_payload: Vec<u8>,
}

fn pristine() -> &'static Pristine {
    static FILES: OnceLock<Pristine> = OnceLock::new();
    FILES.get_or_init(|| {
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
        let blob_key = scenario_key("corruption", "p=1");
        store
            .save_blob(&blob_key, "blob payload\nwith lines\n")
            .unwrap();
        let ckpt_key = scenario_key("corruption-ckpt", "p=1");
        let mut w = dbi::snap::SnapWriter::new();
        w.u64(7);
        w.str("ckpt payload");
        let ckpt_payload = w.finish();
        store.save_checkpoint(&ckpt_key, &ckpt_payload).unwrap();
        let p = Pristine {
            entry: std::fs::read(store.entry_path(&entry_key)).unwrap(),
            entry_key,
            blob: std::fs::read(store.blob_path(&blob_key)).unwrap(),
            blob_key,
            ckpt: std::fs::read(store.checkpoint_path(&ckpt_key)).unwrap(),
            ckpt_key,
            ckpt_payload,
        };
        let _ = std::fs::remove_dir_all(&dir);
        p
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
        let p = pristine();
        let bytes = damage(&p.entry, frac, flip, bit);
        let name = format!("{:016x}.entry", p.entry_key.hash);
        let d = Damaged::new(case, &name, &bytes);
        match d.store.load(&p.entry_key) {
            None => prop_assert!(bytes != p.entry, "pristine entry must load"),
            Some(_) => prop_assert_eq!(&bytes, &p.entry, "served a damaged entry"),
        }
    }

    #[test]
    fn damaged_blobs_read_as_misses(
        frac in 0.0f64..1.0,
        flip in any::<bool>(),
        bit in 0u32..8,
        case in 0u64..u64::MAX,
    ) {
        let p = pristine();
        let bytes = damage(&p.blob, frac, flip, bit);
        let name = format!("{:016x}.blob", p.blob_key.hash);
        let d = Damaged::new(case, &name, &bytes);
        match d.store.load_blob(&p.blob_key) {
            None => prop_assert!(bytes != p.blob, "pristine blob must load"),
            Some(_) => prop_assert_eq!(&bytes, &p.blob, "served a damaged blob"),
        }
    }

    #[test]
    fn damaged_checkpoints_never_resume_wrong(
        frac in 0.0f64..1.0,
        flip in any::<bool>(),
        bit in 0u32..8,
        case in 0u64..u64::MAX,
    ) {
        let p = pristine();
        let bytes = damage(&p.ckpt, frac, flip, bit);
        let name = format!("{:016x}.ckpt", p.ckpt_key.hash);
        let d = Damaged::new(case, &name, &bytes);
        // The checkpoint contract is two-layered: the store's hash guard
        // rejects foreign files, and the snapshot decoder's checksum
        // rejects damaged payloads. Either layer may fire; what must
        // never happen is a damaged payload passing both.
        if let Some(payload) = d.store.load_checkpoint(&p.ckpt_key) {
            let decodes = dbi::snap::SnapReader::new(&payload).is_ok();
            prop_assert!(
                payload == p.ckpt_payload || !decodes,
                "a damaged checkpoint decoded cleanly"
            );
        }
    }
}
