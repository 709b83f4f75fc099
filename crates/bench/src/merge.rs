//! Merging per-shard result stores into one verified store.
//!
//! A sharded campaign (`--shard I/N` on N machines) leaves N store
//! directories, each holding the `.entry` files its shard simulated.
//! [`merge_shards`] combines them into one output directory while
//! *verifying* every entry on the way through:
//!
//! - each entry must parse and pass its v3 checksum (corruption from a
//!   bad disk or a truncated copy is named, not propagated);
//! - each entry's embedded fingerprint must hash to its file name (an
//!   entry renamed or cross-copied by hand cannot impersonate another
//!   unit);
//! - entries present in several shards must be byte-identical
//!   (determinism check across machines — a conflict means one machine
//!   produced a wrong result);
//! - optionally, a manifest from `--list-units` defines the campaign's
//!   full unit set, and units missing from the merge are reported.
//!
//! The report distinguishes these outcomes so `merge_shards` (the binary)
//! can exit nonzero naming exactly the bad units.

use std::collections::btree_map::{BTreeMap, Entry};
use std::path::{Path, PathBuf};

use crate::failpoints::Group;
use crate::persist;
use crate::store::{deserialize_any, fingerprint_hash};

/// Outcome of merging shard stores.
#[derive(Debug, Default)]
pub struct MergeReport {
    /// Units merged into the output store (each counted once).
    pub merged: Vec<u64>,
    /// Units found byte-identical in more than one shard (benign).
    pub duplicates: Vec<u64>,
    /// Units whose copies differ across shards: `(hash, path_a, path_b)`.
    pub conflicts: Vec<(u64, PathBuf, PathBuf)>,
    /// Entries that failed to parse, failed their checksum, or whose
    /// fingerprint does not hash to their file name.
    pub corrupt: Vec<PathBuf>,
    /// Manifest units absent from every shard (only with a manifest).
    pub missing: Vec<u64>,
}

impl MergeReport {
    /// Whether the merge is fully clean: no conflicts, no corruption, and
    /// no missing units.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.conflicts.is_empty() && self.corrupt.is_empty() && self.missing.is_empty()
    }
}

/// Extracts the unit hashes from a `--list-units` manifest: lines of the
/// form `unit\t<phase>\t<hash>\t...` (other lines are ignored, so a raw
/// terminal capture works).
#[must_use]
pub fn manifest_hashes(manifest: &str) -> Vec<u64> {
    let mut hashes: Vec<u64> = manifest
        .lines()
        .filter_map(|line| {
            let mut fields = line.split('\t');
            (fields.next() == Some("unit"))
                .then(|| fields.nth(1))
                .flatten()
                .and_then(|h| u64::from_str_radix(h, 16).ok())
        })
        .collect();
    hashes.sort_unstable();
    hashes.dedup();
    hashes
}

/// Merges the `.entry` files of `shard_dirs` into `out_dir`, verifying
/// checksums, fingerprint/file-name agreement, and cross-shard
/// consistency. `manifest` (the saved output of
/// `--list-units`) defines the expected unit set for missing-unit
/// detection; without one, only the units actually present are checked.
///
/// The output directory receives one verified copy of every clean entry
/// — it is a normal store directory afterwards, usable as `--cache-dir`
/// for the final unsharded rerun.
///
/// # Errors
///
/// Returns an error only for I/O failures on the *output* side (cannot
/// create `out_dir`, cannot copy an entry into it) or an unreadable shard
/// directory. Bad entries are not errors; they are reported.
pub fn merge_shards(
    shard_dirs: &[PathBuf],
    out_dir: &Path,
    manifest: Option<&str>,
) -> std::io::Result<MergeReport> {
    let mut report = MergeReport::default();
    // hash -> (entry bytes, source path) of the first clean copy seen.
    let mut seen: BTreeMap<u64, (String, PathBuf)> = BTreeMap::new();
    for dir in shard_dirs {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "entry"))
            .collect();
        paths.sort();
        for path in paths {
            let Some(hash) = path
                .file_stem()
                .and_then(|s| s.to_str())
                .filter(|s| s.len() == 16)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
            else {
                report.corrupt.push(path);
                continue;
            };
            let Ok(text) = std::fs::read_to_string(&path) else {
                report.corrupt.push(path);
                continue;
            };
            let Some((fingerprint, _)) = deserialize_any(&text) else {
                report.corrupt.push(path);
                continue;
            };
            if fingerprint_hash(&fingerprint) != hash {
                report.corrupt.push(path);
                continue;
            }
            match seen.entry(hash) {
                Entry::Vacant(slot) => {
                    slot.insert((text, path));
                }
                Entry::Occupied(first) if first.get().0 == text => report.duplicates.push(hash),
                Entry::Occupied(first) => {
                    report.conflicts.push((hash, first.get().1.clone(), path));
                }
            }
        }
    }
    std::fs::create_dir_all(out_dir)?;
    for (&hash, (text, _)) in &seen {
        let tmp = out_dir.join(format!(".tmpm-{hash:016x}-{}", std::process::id()));
        let dst = out_dir.join(format!("{hash:016x}.entry"));
        persist::write_atomic(Group::Merge, out_dir, &tmp, &dst, text.as_bytes())?;
        report.merged.push(hash);
    }
    if let Some(manifest) = manifest {
        report.missing = manifest_hashes(manifest)
            .into_iter()
            .filter(|h| !seen.contains_key(h))
            .collect();
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{unit_key, ResultStore};
    use crate::RunUnit;
    use system_sim::{run_mix, Mechanism, SystemConfig};
    use trace_gen::Benchmark;

    struct Scratch {
        dir: PathBuf,
    }

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!(
                "dbi-merge-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Scratch { dir }
        }

        fn path(&self, name: &str) -> PathBuf {
            self.dir.join(name)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    fn tiny_unit(benchmark: Benchmark, seed: u64) -> RunUnit {
        let mut config = SystemConfig::for_cores(1, Mechanism::Baseline);
        config.warmup_insts = 5_000;
        config.measure_insts = 5_000;
        config.seed = seed;
        RunUnit::alone(benchmark, config)
    }

    fn populate(dir: &Path, units: &[RunUnit]) {
        let store = ResultStore::open(dir.to_path_buf());
        for unit in units {
            let key = unit_key(&unit.config, unit.mix.benchmarks());
            let result = run_mix(&unit.mix, &unit.config);
            store.save(&key, &result).unwrap();
        }
    }

    #[test]
    fn clean_shards_merge_without_findings() {
        let s = Scratch::new("clean");
        let a = tiny_unit(Benchmark::Mcf, 1);
        let b = tiny_unit(Benchmark::Lbm, 1);
        populate(&s.path("shard1"), std::slice::from_ref(&a));
        populate(&s.path("shard2"), std::slice::from_ref(&b));
        let report =
            merge_shards(&[s.path("shard1"), s.path("shard2")], &s.path("out"), None).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.merged.len(), 2);
        // The merged directory is a working store: both entries load.
        let store = ResultStore::open(s.path("out"));
        for unit in [&a, &b] {
            let key = unit_key(&unit.config, unit.mix.benchmarks());
            assert!(store.load(&key).is_some());
        }
    }

    #[test]
    fn identical_overlap_is_a_duplicate_not_a_conflict() {
        let s = Scratch::new("dup");
        let a = tiny_unit(Benchmark::Mcf, 2);
        populate(&s.path("shard1"), std::slice::from_ref(&a));
        populate(&s.path("shard2"), std::slice::from_ref(&a));
        let report =
            merge_shards(&[s.path("shard1"), s.path("shard2")], &s.path("out"), None).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.merged.len(), 1);
        assert_eq!(report.duplicates.len(), 1);
    }

    #[test]
    fn differing_copies_conflict() {
        let s = Scratch::new("conflict");
        let a = tiny_unit(Benchmark::Mcf, 3);
        populate(&s.path("shard1"), std::slice::from_ref(&a));
        populate(&s.path("shard2"), std::slice::from_ref(&a));
        // Tamper with shard2's copy *consistently*: change a counter and
        // recompute the checksum, so only the cross-shard comparison can
        // catch it (the checker for silent wrong results, not bit rot).
        let key = unit_key(&a.config, a.mix.benchmarks());
        let path = s.path("shard2").join(format!("{:016x}.entry", key.hash));
        let text = std::fs::read_to_string(&path).unwrap();
        let records: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix("records "))
            .unwrap()
            .parse()
            .unwrap();
        let body = text
            .lines()
            .take_while(|l| !l.starts_with("checksum "))
            .map(|l| {
                if let Some(r) = l.strip_prefix("records ") {
                    let _: u64 = r.parse().unwrap();
                    format!("records {}\n", records + 1)
                } else {
                    format!("{l}\n")
                }
            })
            .collect::<String>();
        let sum = crate::store::fingerprint_hash(&body); // fnv1a of the body
        std::fs::write(&path, format!("{body}checksum {sum:016x}\nend\n")).unwrap();
        let report =
            merge_shards(&[s.path("shard1"), s.path("shard2")], &s.path("out"), None).unwrap();
        assert_eq!(report.conflicts.len(), 1, "{report:?}");
        assert_eq!(report.conflicts[0].0, key.hash);
        assert!(!report.is_clean());
    }

    #[test]
    fn corrupt_and_misnamed_entries_are_reported() {
        let s = Scratch::new("corrupt");
        let a = tiny_unit(Benchmark::Mcf, 4);
        populate(&s.path("shard1"), std::slice::from_ref(&a));
        // Bit-flip one byte of the only entry.
        let key = unit_key(&a.config, a.mix.benchmarks());
        let path = s.path("shard1").join(format!("{:016x}.entry", key.hash));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        // A valid entry under the wrong file name.
        let b = tiny_unit(Benchmark::Lbm, 4);
        populate(&s.path("shard2"), std::slice::from_ref(&b));
        let key_b = unit_key(&b.config, b.mix.benchmarks());
        let good = s.path("shard2").join(format!("{:016x}.entry", key_b.hash));
        let renamed = s.path("shard2").join("0123456789abcdef.entry");
        std::fs::rename(&good, &renamed).unwrap();
        let report =
            merge_shards(&[s.path("shard1"), s.path("shard2")], &s.path("out"), None).unwrap();
        assert_eq!(report.corrupt.len(), 2, "{report:?}");
        assert!(report.merged.is_empty());
        assert!(!report.is_clean());
    }

    #[test]
    fn manifest_names_missing_units() {
        let s = Scratch::new("missing");
        let a = tiny_unit(Benchmark::Mcf, 5);
        populate(&s.path("shard1"), std::slice::from_ref(&a));
        let key = unit_key(&a.config, a.mix.benchmarks());
        let absent = 0x1234_5678_9abc_def0u64;
        let manifest = format!(
            "unit\tfig\t{:016x}\tuncached\t1\tfp\nunit\tfig\t{absent:016x}\tuncached\t2\tfp\n\
             noise line\n",
            key.hash
        );
        let report = merge_shards(&[s.path("shard1")], &s.path("out"), Some(&manifest)).unwrap();
        assert_eq!(report.missing, vec![absent]);
        assert!(!report.is_clean());
    }
}
