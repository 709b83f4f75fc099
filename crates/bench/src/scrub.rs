//! Offline store validation and repair — the `store_scrub` tool.
//!
//! A result store that survived a crash (or a failpoint-injected one) can
//! hold two kinds of debris: orphaned temp files from interrupted atomic
//! writes and — if the storage itself misbehaved — corrupt data files. The runner tolerates all of
//! them lazily (corrupt entries read as misses and recompute), but a
//! campaign operator wants them found, named, and removed *before* the
//! next thousand-unit run, not discovered one cache miss at a time.
//!
//! [`scrub_store`] walks a store directory once and:
//!
//! - validates every `.entry` record with the store's one decoder: the
//!   frame and checksum must hold, its header must name an entry of
//!   today's schema, and its embedded fingerprint must hash to the file's
//!   name;
//! - moves files that fail validation into a `quarantine/` subdirectory —
//!   preserved for post-mortem, invisible to the store;
//! - deletes orphaned temp files unconditionally (no writer is live
//!   during an offline scrub);
//! - reports everything in a [`ScrubReport`] whose `Display` is the
//!   machine-readable summary line the CI smoke greps.
//!
//! Files outside the store format are left alone. That includes the
//! segment files and `segments.manifest` an older compacted store may
//! still hold — the store no longer reads them, so the units folded into
//! them simply miss once and recompute as loose entries — the `.lease`
//! files and `.tmpm-` merge temp files of an older sharding release, the
//! `.tmpb-`/`.ckpt-` temp files of the schema-5 blob and checkpoint
//! writers, the `.blob` records of the retired GB DRAM-cache scenario, and
//! the `.ckpt` mid-unit checkpoints of the retired checkpoint layer. An
//! entry of an older schema is not foreign: it fails the decoder and is
//! quarantined like any corrupt file.
//!
//! Quarantining rather than deleting is deliberate: a corrupt entry is
//! evidence (of a torn write the protocol should have prevented, or of
//! bad hardware), and evidence is kept. Re-running the campaign re-saves
//! the affected units through the normal atomic path.

use std::path::{Path, PathBuf};

use crate::store::{self, decode, fingerprint_hash, ENTRY_EXT};

/// Name of the subdirectory corrupt files are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// What one scrub pass found and did.
#[derive(Debug, Default)]
pub struct ScrubReport {
    /// Record files examined (`.entry`).
    pub scanned: u64,
    /// Record files that validated clean.
    pub ok: u64,
    /// File names moved into `quarantine/` (sorted).
    pub quarantined: Vec<String>,
    /// Orphaned temp files deleted.
    pub orphans: u64,
}

impl ScrubReport {
    /// Number of corrupt files quarantined.
    #[must_use]
    pub fn scrubbed(&self) -> u64 {
        self.quarantined.len() as u64
    }

    /// Whether the store needed no repair at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.orphans == 0
    }
}

impl std::fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scanned={} ok={} scrubbed={} quarantined=[{}] orphans={}",
            self.scanned,
            self.ok,
            self.scrubbed(),
            self.quarantined.join(","),
            self.orphans,
        )
    }
}

/// Whether a record file decodes and carries a fingerprint that hashes
/// to the 16-hex-digit hash its file name claims.
fn validates(path: &Path, stem_hash: u64) -> bool {
    std::fs::read(path).is_ok_and(|bytes| {
        decode(&bytes).is_some_and(|(fingerprint, _)| fingerprint_hash(fingerprint) == stem_hash)
    })
}

/// Scrubs the store at `dir`: validates every data file, quarantines
/// corrupt ones, deletes temp orphans. See the module docs for the
/// policy.
///
/// # Errors
///
/// Returns an error when `dir` cannot be read at all, or a corrupt file
/// cannot be moved into quarantine. Individual unreadable files are
/// treated as corrupt, not fatal.
pub fn scrub_store(dir: &Path) -> std::io::Result<ScrubReport> {
    let mut report = ScrubReport::default();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    paths.sort();
    for path in paths {
        let Some(name) = path.file_name().and_then(|n| n.to_str()).map(String::from) else {
            continue;
        };
        if store::is_tmp_name(&name) {
            std::fs::remove_file(&path)?;
            report.orphans += 1;
            continue;
        }
        // Anything but an entry is not part of the store; leave it alone.
        if path.extension().and_then(|x| x.to_str()) != Some(ENTRY_EXT) {
            continue;
        }
        report.scanned += 1;
        let stem_hash = path
            .file_stem()
            .and_then(|s| s.to_str())
            .filter(|s| s.len() == 16)
            .and_then(|s| u64::from_str_radix(s, 16).ok());
        if stem_hash.is_some_and(|h| validates(&path, h)) {
            report.ok += 1;
        } else {
            let qdir = dir.join(QUARANTINE_DIR);
            std::fs::create_dir_all(&qdir)?;
            std::fs::rename(&path, qdir.join(&name))?;
            report.quarantined.push(name);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::{framed_bytes, test_key, Scratch};
    use crate::store::{ResultStore, StoreKey};

    /// A store with two valid entries.
    fn seeded(dir: &Path) -> ResultStore {
        let store = ResultStore::open(dir.to_path_buf());
        store.save(&test_key("scrub-test"), &tiny_result()).unwrap();
        store
            .save(&test_key("scrub-other"), &tiny_result())
            .unwrap();
        store
    }

    fn tiny_result() -> system_sim::MixResult {
        system_sim::MixResult {
            cores: vec![system_sim::CoreResult {
                benchmark: "lbm".to_string(),
                insts: 1,
                cycles: 2,
                llc_reads: 3,
                llc_read_misses: 4,
                dram_writes: 5,
            }],
            llc: system_sim::LlcStats::default(),
            dram: dram_sim::DramStats::default(),
            energy: dram_sim::DramEnergy::default(),
            dbi: None,
            rewrite_filter: None,
            check: None,
            sanitizer: None,
            records_processed: 6,
        }
    }

    #[test]
    fn clean_store_scrubs_clean() {
        let s = Scratch::new("clean");
        seeded(&s.dir);
        let report = scrub_store(&s.dir).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.scanned, 2);
        assert_eq!(report.ok, 2);
        assert_eq!(
            report.to_string(),
            "scanned=2 ok=2 scrubbed=0 quarantined=[] orphans=0"
        );
    }

    #[test]
    fn corrupt_files_are_quarantined_not_deleted() {
        let s = Scratch::new("corrupt");
        let store = seeded(&s.dir);
        let key = test_key("scrub-test");
        // Bit-flip the entry.
        let path = store.entry_path(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let report = scrub_store(&s.dir).unwrap();
        assert_eq!(report.scrubbed(), 1, "{report}");
        assert_eq!(report.ok, 1);
        let qname = format!("{:016x}.entry", key.hash);
        assert_eq!(report.quarantined, vec![qname.clone()]);
        assert!(s.dir.join(QUARANTINE_DIR).join(&qname).exists());
        assert!(!path.exists());
        // The store now treats the unit as a plain miss; a re-save heals
        // it and the next scrub is clean.
        assert!(store.load(&key).is_none());
        store.save(&key, &tiny_result()).unwrap();
        let report = scrub_store(&s.dir).unwrap();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn misnamed_entries_are_quarantined() {
        let s = Scratch::new("misnamed");
        let store = seeded(&s.dir);
        let key = test_key("scrub-test");
        let renamed = s.dir.join("0123456789abcdef.entry");
        std::fs::rename(store.entry_path(&key), &renamed).unwrap();
        // A sealed checkpoint record under an entry's name is of the wrong
        // kind.
        let other = test_key("scrub-other");
        let as_entry = store.entry_path(&other);
        std::fs::write(&as_entry, framed_bytes(7, "ckpt", &other, b"ckpt")).unwrap();
        let report = scrub_store(&s.dir).unwrap();
        let mut expected = vec![
            "0123456789abcdef.entry".to_string(),
            as_entry.file_name().unwrap().to_str().unwrap().to_string(),
        ];
        expected.sort();
        assert_eq!(report.quarantined, expected);
    }

    #[test]
    fn orphans_are_collected() {
        let s = Scratch::new("orphans");
        let store = seeded(&s.dir);
        let key = test_key("scrub-test");
        std::fs::write(s.dir.join(".tmp-deadbeef.entry-1"), b"partial").unwrap();
        std::fs::write(s.dir.join(".tmp-deadbeef.ckpt-2"), b"partial").unwrap();
        let report = scrub_store(&s.dir).unwrap();
        assert_eq!(report.orphans, 2, "{report}");
        assert!(scrub_store(&s.dir).unwrap().is_clean());
        // Data files untouched throughout.
        assert!(store.load(&key).is_some());
    }

    /// The bytes a schema-5 store wrote for an entry under `key`: text
    /// with its own magic line and trailing checksum.
    fn schema_5_bytes(key: &StoreKey, payload: &[u8]) -> Vec<u8> {
        let mut out =
            format!("dbi-bench-result v5\nfingerprint {}\n", key.fingerprint).into_bytes();
        out.extend_from_slice(payload);
        let sum = dbi::snap::fnv1a64(&out);
        out.extend_from_slice(format!("checksum {sum:016x}\nend\n").as_bytes());
        out
    }

    #[test]
    fn older_schema_records_miss_and_are_quarantined() {
        let s = Scratch::new("older-schema");
        let store = ResultStore::open(s.dir.clone());
        let (key5, key6) = (test_key("schema5"), test_key("schema6"));
        // Each file sits under the name the current key asks for, so a
        // reader that accepted the old framing would serve it.
        let text_entry = b"cores 1\ncore lbm 1 2 3 4 5\nrecords 6\n".to_vec();
        let files: Vec<_> = [
            (&key5, schema_5_bytes(&key5, &text_entry)),
            (&key6, framed_bytes(6, "entry", &key6, &text_entry)),
        ]
        .into_iter()
        .map(|(key, bytes)| {
            let path = store.entry_path(key);
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(store.load_record(key), None, "{path:?} served");
            (path, bytes)
        })
        .collect();
        assert!(store.load(&key6).is_none());
        assert_eq!(store.corrupt_count(), 3);

        let report = scrub_store(&s.dir).unwrap();
        assert_eq!((report.scanned, report.scrubbed()), (2, 2), "{report}");
        for (path, bytes) in &files {
            let kept = s.dir.join(QUARANTINE_DIR).join(path.file_name().unwrap());
            assert_eq!(&std::fs::read(kept).unwrap(), bytes, "{path:?} kept");
            assert!(!path.exists());
        }
    }

    #[test]
    fn legacy_segment_files_are_left_alone() {
        let s = Scratch::new("legacy-seg");
        let store = seeded(&s.dir);
        let key = test_key("legacy-seg");
        let result = tiny_result();
        // A unit an older release folded into a segment: its loose entry
        // is gone and its bytes live on only inside the segment file.
        // An older sharding release also left a unit lease and a merge
        // writer's temp file behind, and the schema-5 blob and checkpoint
        // writers their own temp files. A schema-7 blob record and a
        // schema-7 mid-unit checkpoint, framed like today's records, sit
        // under the seeded entry's hash.
        store.save(&key, &result).unwrap();
        let seeded_key = test_key("scrub-test");
        let entry = std::fs::read(store.entry_path(&key)).unwrap();
        std::fs::remove_file(store.entry_path(&key)).unwrap();
        let legacy = [
            (
                s.dir.join("0123456789abcdef").with_extension("seg"),
                entry.clone(),
            ),
            (
                s.dir.join("segments.manifest"),
                b"legacy manifest\n".to_vec(),
            ),
            (
                s.dir.join(format!("{:016x}.lease", key.hash)),
                b"fig7:4242\nheartbeat-secs=5.000\n".to_vec(),
            ),
            (
                s.dir.join(format!(".tmpm-{:016x}-1", key.hash)),
                entry.clone(),
            ),
            (
                s.dir.join(format!(".tmpb-{:016x}-2", key.hash)),
                entry.clone(),
            ),
            (s.dir.join(format!(".ckpt-{:016x}-3", key.hash)), entry),
            (
                s.dir.join(format!("{:016x}.blob", seeded_key.hash)),
                framed_bytes(7, "blob", &seeded_key, b"blob payload\n"),
            ),
            (
                s.dir.join(format!("{:016x}.ckpt", seeded_key.hash)),
                framed_bytes(7, "ckpt", &seeded_key, b"checkpoint payload\n"),
            ),
        ];
        for (path, bytes) in &legacy {
            std::fs::write(path, bytes).unwrap();
        }

        let report = scrub_store(&s.dir).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.scanned, 2, "only the two entries are data");
        // The runner's startup scavenge treats them as foreign too.
        assert_eq!(store.scavenge(std::time::Duration::ZERO), 0);
        for (path, bytes) in &legacy {
            assert_eq!(&std::fs::read(path).unwrap(), bytes, "{path:?} untouched");
        }
        // The entry next to the blob and the checkpoint still loads.
        assert!(store.load(&seeded_key).is_some());
        assert_eq!(store.corrupt_count(), 0);
        // The folded unit misses once, recomputes, and serves loose.
        assert!(!store.contains(&key));
        assert!(store.load(&key).is_none());
        store.save(&key, &result).unwrap();
        assert!(store.load(&key).is_some());
    }
}
