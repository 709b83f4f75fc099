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
//! - validates every `.entry` (checksum + embedded fingerprint must hash
//!   to the file name), `.blob` (framing + fingerprint hash), and `.ckpt`
//!   (hash guard + snapshot checksum) file;
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
//! them simply miss once and recompute as loose entries — and the
//! `.lease` files and `.tmpm-` merge temp files of an older sharding
//! release.
//!
//! Quarantining rather than deleting is deliberate: a corrupt entry is
//! evidence (of a torn write the protocol should have prevented, or of
//! bad hardware), and evidence is kept. Re-running the campaign re-saves
//! the affected units through the normal atomic path.

use std::path::{Path, PathBuf};

use crate::store::{self, deserialize_any, deserialize_blob_any, fingerprint_hash};

/// Name of the subdirectory corrupt files are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// What one scrub pass found and did.
#[derive(Debug, Default)]
pub struct ScrubReport {
    /// Data files examined (`.entry`, `.blob`, `.ckpt`).
    pub scanned: u64,
    /// Data files that validated clean.
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

/// Whether a data file's bytes are internally consistent *and* agree with
/// the 16-hex-digit hash its file name claims.
fn validates(path: &Path, ext: &str, stem_hash: u64) -> bool {
    match ext {
        "entry" => std::fs::read_to_string(path)
            .ok()
            .and_then(|text| deserialize_any(&text))
            .is_some_and(|(fp, _)| fingerprint_hash(&fp) == stem_hash),
        "blob" => std::fs::read_to_string(path)
            .ok()
            .and_then(|text| deserialize_blob_any(&text))
            .is_some_and(|(fp, _)| fingerprint_hash(&fp) == stem_hash),
        "ckpt" => std::fs::read(path).ok().is_some_and(|bytes| {
            bytes.split_at_checked(8).is_some_and(|(head, payload)| {
                let head: [u8; 8] = head.try_into().expect("split_at gave 8 bytes");
                u64::from_le_bytes(head) == stem_hash && dbi::snap::SnapReader::new(payload).is_ok()
            })
        }),
        _ => unreachable!("validates() is only called for data extensions"),
    }
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
        let ext = match path.extension().and_then(|x| x.to_str()) {
            Some(ext @ ("entry" | "blob" | "ckpt")) => ext,
            // Not part of the store format; leave it alone.
            _ => continue,
        };
        report.scanned += 1;
        let stem_hash = path
            .file_stem()
            .and_then(|s| s.to_str())
            .filter(|s| s.len() == 16)
            .and_then(|s| u64::from_str_radix(s, 16).ok());
        if stem_hash.is_some_and(|h| validates(&path, ext, h)) {
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
    use crate::store::{scenario_key, ResultStore};

    struct Scratch {
        dir: PathBuf,
    }

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!(
                "dbi-scrub-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
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

    /// A store with one valid blob and one valid checkpoint.
    fn seeded(dir: &Path) -> ResultStore {
        let store = ResultStore::open(dir.to_path_buf());
        store
            .save_blob(&scenario_key("scrub-test", "p=1"), "payload\n")
            .unwrap();
        let mut w = dbi::snap::SnapWriter::new();
        w.u64(42);
        store
            .save_checkpoint(&scenario_key("scrub-ckpt", "p=1"), &w.finish())
            .unwrap();
        store
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
        let key = scenario_key("scrub-test", "p=1");
        // Bit-flip the blob.
        let path = store.blob_path(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let report = scrub_store(&s.dir).unwrap();
        assert_eq!(report.scrubbed(), 1, "{report}");
        assert_eq!(report.ok, 1);
        let qname = format!("{:016x}.blob", key.hash);
        assert_eq!(report.quarantined, vec![qname.clone()]);
        assert!(s.dir.join(QUARANTINE_DIR).join(&qname).exists());
        assert!(!path.exists());
        // The store now treats the unit as a plain miss; a re-save heals
        // it and the next scrub is clean.
        assert_eq!(store.load_blob(&key), None);
        store.save_blob(&key, "payload\n").unwrap();
        let report = scrub_store(&s.dir).unwrap();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn misnamed_entries_are_quarantined() {
        let s = Scratch::new("misnamed");
        let store = seeded(&s.dir);
        let key = scenario_key("scrub-test", "p=1");
        let renamed = s.dir.join("0123456789abcdef.blob");
        std::fs::rename(store.blob_path(&key), &renamed).unwrap();
        let report = scrub_store(&s.dir).unwrap();
        assert_eq!(
            report.quarantined,
            vec!["0123456789abcdef.blob".to_string()]
        );
    }

    #[test]
    fn orphans_are_collected() {
        let s = Scratch::new("orphans");
        let store = seeded(&s.dir);
        let key = scenario_key("scrub-test", "p=1");
        std::fs::write(s.dir.join(".tmp-deadbeef-1"), b"partial").unwrap();
        std::fs::write(s.dir.join(".ckpt-deadbeef-2"), b"partial").unwrap();
        let report = scrub_store(&s.dir).unwrap();
        assert_eq!(report.orphans, 2, "{report}");
        assert!(scrub_store(&s.dir).unwrap().is_clean());
        // Data files untouched throughout.
        assert!(store.load_blob(&key).is_some());
    }

    #[test]
    fn legacy_segment_files_are_left_alone() {
        let s = Scratch::new("legacy-seg");
        let store = seeded(&s.dir);
        let fingerprint = format!(
            "schema={} legacy-seg p=1",
            crate::store::STORE_SCHEMA_VERSION
        );
        let key = crate::store::StoreKey {
            hash: crate::store::fingerprint_hash(&fingerprint),
            fingerprint,
        };
        let result = system_sim::MixResult {
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
        };
        // A unit an older release folded into a segment: its loose entry
        // is gone and its bytes live on only inside the segment file.
        // An older sharding release also left a unit lease and a merge
        // writer's temp file behind.
        store.save(&key, &result).unwrap();
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
            (s.dir.join(format!(".tmpm-{:016x}-1", key.hash)), entry),
        ];
        for (path, bytes) in &legacy {
            std::fs::write(path, bytes).unwrap();
        }

        let report = scrub_store(&s.dir).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.scanned, 2, "only the blob and checkpoint are data");
        // The runner's startup scavenge treats them as foreign too.
        assert_eq!(store.scavenge(std::time::Duration::ZERO), 0);
        for (path, bytes) in &legacy {
            assert_eq!(&std::fs::read(path).unwrap(), bytes, "{path:?} untouched");
        }
        // The folded unit misses once, recomputes, and serves loose.
        assert!(!store.contains(&key));
        assert!(store.load(&key).is_none());
        store.save(&key, &result).unwrap();
        assert!(store.load(&key).is_some());
    }
}
