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
//! - validates every `.entry`, `.blob` and `.ckpt` record with the
//!   store's one decoder: the frame and checksum must hold, the kind in
//!   its header must match the file's extension, and its embedded
//!   fingerprint must hash to the file's name;
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
//! files and `.tmpm-` merge temp files of an older sharding release, and
//! the `.tmpb-`/`.ckpt-` temp files of the schema-5 blob and checkpoint
//! writers. A record of an older schema is not foreign: it fails the
//! decoder and is quarantined like any corrupt file.
//!
//! Quarantining rather than deleting is deliberate: a corrupt entry is
//! evidence (of a torn write the protocol should have prevented, or of
//! bad hardware), and evidence is kept. Re-running the campaign re-saves
//! the affected units through the normal atomic path.

use std::path::{Path, PathBuf};

use crate::store::{self, decode, fingerprint_hash, RecordKind};

/// Name of the subdirectory corrupt files are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// What one scrub pass found and did.
#[derive(Debug, Default)]
pub struct ScrubReport {
    /// Record files examined (`.entry`, `.blob`, `.ckpt`).
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

/// Whether a record file decodes, is of the kind its extension names,
/// and carries a fingerprint that hashes to the 16-hex-digit hash its
/// file name claims.
fn validates(path: &Path, kind: RecordKind, stem_hash: u64) -> bool {
    std::fs::read(path).is_ok_and(|bytes| {
        decode(&bytes).is_some_and(|(k, fingerprint, _)| {
            k == kind && fingerprint_hash(fingerprint) == stem_hash
        })
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
        // Anything but a record is not part of the store; leave it alone.
        let ext = path.extension().and_then(|x| x.to_str());
        let Some(kind) = RecordKind::ALL.into_iter().find(|k| ext == Some(k.ext())) else {
            continue;
        };
        report.scanned += 1;
        let stem_hash = path
            .file_stem()
            .and_then(|s| s.to_str())
            .filter(|s| s.len() == 16)
            .and_then(|s| u64::from_str_radix(s, 16).ok());
        if stem_hash.is_some_and(|h| validates(&path, kind, h)) {
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
    use crate::store::tests::Scratch;
    use crate::store::{scenario_key, ResultStore, StoreKey};

    /// A store with one valid blob and one valid checkpoint.
    fn seeded(dir: &Path) -> ResultStore {
        let store = ResultStore::open(dir.to_path_buf());
        store
            .save_record(
                RecordKind::Blob,
                &scenario_key("scrub-test", "p=1"),
                b"payload\n",
            )
            .unwrap();
        let mut w = dbi::snap::SnapWriter::new();
        w.u64(42);
        store
            .save_record(
                RecordKind::Ckpt,
                &scenario_key("scrub-ckpt", "p=1"),
                &w.finish(),
            )
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
        let key = scenario_key("scrub-test", "p=1");
        // Bit-flip the blob.
        let path = store.record_path(RecordKind::Blob, &key);
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
        assert_eq!(store.load_record(RecordKind::Blob, &key), None);
        store
            .save_record(RecordKind::Blob, &key, b"payload\n")
            .unwrap();
        let report = scrub_store(&s.dir).unwrap();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn misnamed_entries_are_quarantined() {
        let s = Scratch::new("misnamed");
        let store = seeded(&s.dir);
        let key = scenario_key("scrub-test", "p=1");
        let renamed = s.dir.join("0123456789abcdef.blob");
        std::fs::rename(store.record_path(RecordKind::Blob, &key), &renamed).unwrap();
        // A valid checkpoint under a blob's extension is of the wrong kind.
        let ckpt = store.record_path(RecordKind::Ckpt, &scenario_key("scrub-ckpt", "p=1"));
        let as_blob = ckpt.with_extension("blob");
        std::fs::rename(&ckpt, &as_blob).unwrap();
        let report = scrub_store(&s.dir).unwrap();
        let mut expected = vec![
            "0123456789abcdef.blob".to_string(),
            as_blob.file_name().unwrap().to_str().unwrap().to_string(),
        ];
        expected.sort();
        assert_eq!(report.quarantined, expected);
    }

    #[test]
    fn orphans_are_collected() {
        let s = Scratch::new("orphans");
        let store = seeded(&s.dir);
        let key = scenario_key("scrub-test", "p=1");
        std::fs::write(s.dir.join(".tmp-deadbeef.entry-1"), b"partial").unwrap();
        std::fs::write(s.dir.join(".tmp-deadbeef.ckpt-2"), b"partial").unwrap();
        let report = scrub_store(&s.dir).unwrap();
        assert_eq!(report.orphans, 2, "{report}");
        assert!(scrub_store(&s.dir).unwrap().is_clean());
        // Data files untouched throughout.
        assert!(store.load_record(RecordKind::Blob, &key).is_some());
    }

    /// The bytes a schema-5 store wrote for `kind` under `key`: a text
    /// entry or a byte-counted blob, each with its own magic line and
    /// trailing checksum, or a checkpoint behind an 8-byte hash guard.
    fn schema_5_bytes(kind: RecordKind, key: &StoreKey, payload: &[u8]) -> Vec<u8> {
        let framed = |head: String| {
            let mut out = head.into_bytes();
            out.extend_from_slice(payload);
            let sum = dbi::snap::fnv1a64(&out);
            out.extend_from_slice(format!("checksum {sum:016x}\nend\n").as_bytes());
            out
        };
        let fp = &key.fingerprint;
        match kind {
            RecordKind::Entry => framed(format!("dbi-bench-result v5\nfingerprint {fp}\n")),
            RecordKind::Blob => framed(format!(
                "dbi-bench-blob v5\nfingerprint {fp}\nbytes {}\n",
                payload.len()
            )),
            RecordKind::Ckpt => [&key.hash.to_le_bytes()[..], payload].concat(),
        }
    }

    /// The bytes a schema-6 store wrote for `kind` under `key`: today's
    /// frame under version 6, around a text entry or blob.
    fn schema_6_bytes(kind: RecordKind, key: &StoreKey, payload: &[u8]) -> Vec<u8> {
        let mut out = format!(
            "dbi-bench-record v6 {}\nfingerprint {}\nbytes {}\n",
            kind.ext(),
            key.fingerprint,
            payload.len()
        )
        .into_bytes();
        out.extend_from_slice(payload);
        let sum = dbi::snap::fnv1a64(&out);
        out.extend_from_slice(format!("checksum {sum:016x}\nend\n").as_bytes());
        out
    }

    #[test]
    fn older_schema_records_miss_and_are_quarantined() {
        let s = Scratch::new("older-schema");
        let store = ResultStore::open(s.dir.clone());
        let (key5, key6) = (
            scenario_key("schema5", "p=1"),
            scenario_key("schema6", "p=1"),
        );
        // Each file sits under the name the current key asks for, so a
        // reader that accepted the old framing would serve it.
        let mut w = dbi::snap::SnapWriter::new();
        w.u64(5);
        let text_entry = b"cores 1\ncore lbm 1 2 3 4 5\nrecords 6\n".to_vec();
        type Framing = fn(RecordKind, &StoreKey, &[u8]) -> Vec<u8>;
        let files: Vec<_> = [
            (
                RecordKind::Entry,
                &key5,
                schema_5_bytes as Framing,
                text_entry.clone(),
            ),
            (
                RecordKind::Blob,
                &key5,
                schema_5_bytes,
                b"payload\n".to_vec(),
            ),
            (RecordKind::Ckpt, &key5, schema_5_bytes, w.finish()),
            (RecordKind::Entry, &key6, schema_6_bytes, text_entry),
            (
                RecordKind::Blob,
                &key6,
                schema_6_bytes,
                b"hits 1\n".to_vec(),
            ),
        ]
        .into_iter()
        .map(|(kind, key, framed, payload)| {
            let (path, bytes) = (store.record_path(kind, key), framed(kind, key, &payload));
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(store.load_record(kind, key), None, "{kind:?} served");
            (path, bytes)
        })
        .collect();
        assert!(store.load(&key6).is_none());
        assert_eq!(store.corrupt_count(), 6);

        let report = scrub_store(&s.dir).unwrap();
        assert_eq!((report.scanned, report.scrubbed()), (5, 5), "{report}");
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
        let fingerprint = format!(
            "schema={} legacy-seg p=1",
            crate::store::STORE_SCHEMA_VERSION
        );
        let key = crate::store::StoreKey {
            hash: crate::store::fingerprint_hash(&fingerprint),
            fingerprint,
        };
        let result = tiny_result();
        // A unit an older release folded into a segment: its loose entry
        // is gone and its bytes live on only inside the segment file.
        // An older sharding release also left a unit lease and a merge
        // writer's temp file behind, and the schema-5 blob and checkpoint
        // writers their own temp files.
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
            (
                s.dir.join(format!(".tmpm-{:016x}-1", key.hash)),
                entry.clone(),
            ),
            (
                s.dir.join(format!(".tmpb-{:016x}-2", key.hash)),
                entry.clone(),
            ),
            (s.dir.join(format!(".ckpt-{:016x}-3", key.hash)), entry),
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
