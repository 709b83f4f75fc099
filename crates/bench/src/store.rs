//! Persistent, content-addressed store for simulation results.
//!
//! Every `(SystemConfig, workload)` pair maps to a stable 64-bit key: the
//! FNV-1a hash of a canonical *fingerprint* string that spells out every
//! field the simulation reads — geometry, latencies, DBI and DRAM
//! parameters, run lengths, the trace seed — plus the benchmark list and a
//! schema version. Identical experiments across binaries (and across
//! process invocations) therefore share one entry under the store
//! directory, `results/.cache/` by default.
//!
//! A store directory holds one kind of durable record: a completed unit's
//! `.entry`, framed by one encoder and parsed by one decoder ([`decode`]):
//!
//! ```text
//! dbi-bench-record v7 entry
//! fingerprint FINGERPRINT
//! bytes N
//! <N raw payload bytes>checksum HHHHHHHHHHHHHHHH
//! end
//! ```
//!
//! The checksum is the FNV-1a hash of every byte before its line, and the
//! byte count means the decoder never scans the payload. A load checks
//! the frame and the full fingerprint, so a truncated write, a corrupted
//! byte, a hash collision or a schema change is a miss (counted in
//! [`ResultStore::corrupt_count`]) and is recomputed, never served. The
//! store frames opaque bytes: each payload is a checksummed `dbi::snap`
//! stream, [`MixResult::to_bytes`], and one that does not decode is a
//! counted miss too. A unit is the store's only resume point: an
//! interrupted campaign reruns the units that have no entry yet.
//!
//! Writes go through the atomic-write protocol (temp file, fsync, rename,
//! parent directory fsync — see the `persist` module) so concurrent
//! processes never observe partial records and a completed save survives
//! a crash. Orphaned `.tmp-*` files left by crashed writers are
//! garbage-collected by [`ResultStore::scavenge`] (the runner calls it on
//! startup) and by the `store_scrub` binary, which also validates and
//! quarantines records.
//!
//! Anything else in the directory — such as the `.lease`, segment,
//! `.blob` or `.ckpt` files, or the `.tmpb-`/`.ckpt-`/`.tmpm-` temp files,
//! an older release may have left — is foreign: the store never reads,
//! scavenges, or deletes it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dbi::snap::fnv1a64;
use system_sim::{MixResult, SystemConfig};
use trace_gen::Benchmark;

use crate::persist;

/// Bump whenever the fingerprint grammar or the record format changes:
/// old records then miss (their embedded fingerprint no longer matches)
/// and are recomputed rather than misread.
///
/// v3: every entry carries a trailing FNV-1a checksum line, so corruption
/// is detected byte-for-byte instead of only when a field fails to parse
/// (a flipped digit inside a counter parses fine under v2).
///
/// v5: the workspace's dirty metadata moved onto the unified adaptive
/// `DirtyContainer` storage and the store gained scenario blobs. The
/// container change is behaviour-neutral by design, but v4 entries were
/// produced by code that no longer exists; recompute rather than trust
/// the overlap.
///
/// v6: entries, blobs and checkpoints share one record framing (see the
/// module docs). Checkpoints, which carried only an 8-byte hash guard,
/// now embed and check the full fingerprint.
///
/// v7: entries and blobs carry snapshot streams instead of lines of
/// text, so every payload in the store has one codec. Entries are the
/// only kind left; their frame is unchanged.
pub const STORE_SCHEMA_VERSION: u32 = 7;

const RECORD_MAGIC: &str = "dbi-bench-record";

/// The file extension of a store record, also its kind in the header.
pub(crate) const ENTRY_EXT: &str = "entry";

/// The content address of one simulation unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreKey {
    /// FNV-1a hash of the fingerprint — the entry's file name.
    pub hash: u64,
    /// Canonical description of everything the simulation depends on.
    pub fingerprint: String,
}

fn f64_bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Canonical single-line description of a simulation unit: every
/// `SystemConfig` field the simulator reads, plus the workload.
///
/// The config is fully destructured so that adding a field to
/// `SystemConfig` (or any nested config struct with public fields) fails
/// to compile here — forcing the fingerprint, and with it
/// [`STORE_SCHEMA_VERSION`], to be revisited rather than silently serving
/// stale entries.
#[must_use]
pub fn unit_fingerprint(config: &SystemConfig, benchmarks: &[Benchmark]) -> String {
    let SystemConfig {
        cores,
        mechanism,
        llc_bytes_per_core,
        llc_ways,
        llc_replacement,
        l1_bytes,
        l1_ways,
        l2_bytes,
        l2_ways,
        block_bytes,
        latencies,
        dbi,
        dram,
        window_insts,
        mshrs,
        predictor_epoch_cycles,
        predictor_threshold,
        awb_rewrite_filter,
        l2_dbi,
        warmup_insts,
        measure_insts,
        seed,
        check,
        sanitize,
        sanitize_interval,
        fault,
    } = config;
    let system_sim::Latencies {
        l1,
        l2,
        llc_tag,
        llc_data,
        dbi: dbi_lat,
        llc_tag_occupancy,
    } = latencies;
    let system_sim::DbiParams {
        alpha,
        granularity,
        associativity,
        policy,
    } = dbi;
    let dram_sim::DramConfig {
        timing,
        mapping,
        write_buffer_capacity,
        channels,
        bank_groups,
        drain_policy,
        refresh,
        energy,
    } = dram;
    let dram_sim::DramTiming {
        t_rcd,
        t_rp,
        t_cl,
        t_burst,
        t_wr,
        t_wtr,
        t_rrd_s,
        t_rrd_l,
        t_faw,
    } = timing;
    let dram_sim::EnergyModel {
        activate_pj,
        read_burst_pj,
        write_burst_pj,
        forward_burst_pj,
        background_pj_per_cycle,
    } = energy;
    let drain = match drain_policy {
        dram_sim::DrainPolicy::WhenFull => "when-full".to_string(),
        dram_sim::DrainPolicy::Watermark { high, low } => format!("watermark:{high}:{low}"),
    };
    let mix = benchmarks
        .iter()
        .map(|b| b.label())
        .collect::<Vec<_>>()
        .join("+");
    let fault = fault.map_or_else(|| "none".to_string(), |p| format!("{}:{}", p.class, p.seed));
    format!(
        "schema={} mix={mix} cores={cores} mech={mechanism} llc_b={llc_bytes_per_core} \
         llc_w={llc_ways} repl={llc_replacement:?} l1_b={l1_bytes} l1_w={l1_ways} \
         l2_b={l2_bytes} l2_w={l2_ways} blk={block_bytes} \
         lat={l1}:{l2}:{llc_tag}:{llc_data}:{dbi_lat}:{llc_tag_occupancy} \
         dbi={}/{}:{granularity}:{associativity}:{} \
         dram_t={t_rcd}:{t_rp}:{t_cl}:{t_burst}:{t_wr}:{t_wtr}:{t_rrd_s}:{t_rrd_l}:{t_faw} \
         dram_map={}:{} wbuf={write_buffer_capacity} chan={channels} groups={bank_groups} \
         drain={drain} refresh={refresh} energy={}:{}:{}:{}:{} window={window_insts} \
         mshrs={mshrs} \
         pred={predictor_epoch_cycles}:{} awbf={awb_rewrite_filter} l2dbi={l2_dbi} \
         warmup={warmup_insts} measure={measure_insts} seed={seed} check={check} \
         sanitize={sanitize} sanint={sanitize_interval} fault={fault}",
        STORE_SCHEMA_VERSION,
        alpha.numerator(),
        alpha.denominator(),
        policy.label(),
        mapping.banks(),
        mapping.blocks_per_row(),
        f64_bits(*activate_pj),
        f64_bits(*read_burst_pj),
        f64_bits(*write_burst_pj),
        f64_bits(*forward_burst_pj),
        f64_bits(*background_pj_per_cycle),
        f64_bits(*predictor_threshold),
    )
}

/// Computes the content address of one simulation unit.
#[must_use]
pub fn unit_key(config: &SystemConfig, benchmarks: &[Benchmark]) -> StoreKey {
    let fingerprint = unit_fingerprint(config, benchmarks);
    StoreKey {
        hash: fnv1a64(fingerprint.as_bytes()),
        fingerprint,
    }
}

/// The store hash of a fingerprint string — what an entry's file name must
/// equal. `store_scrub` uses this to verify that an entry sits under the
/// name its content demands.
#[must_use]
pub fn fingerprint_hash(fingerprint: &str) -> u64 {
    fnv1a64(fingerprint.as_bytes())
}

/// A directory of store entries, addressed by [`StoreKey`].
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    /// Records whose file was present but failed to decode under the key
    /// that asked for it — each one is silently recomputed, but the count
    /// is surfaced in runner summaries so store rot is visible instead of
    /// just slow.
    corrupt: AtomicU64,
    /// Orphaned temp files removed by [`ResultStore::scavenge`], surfaced
    /// in runner summaries alongside the entry count.
    orphans: AtomicU64,
}

/// Whether `name` is a temp file of the atomic-write protocol.
#[must_use]
pub fn is_tmp_name(name: &str) -> bool {
    name.starts_with(persist::TMP_PREFIX)
}

impl ResultStore {
    /// Opens (without touching the filesystem) a store rooted at `dir`.
    /// The directory is created on the first save.
    #[must_use]
    pub fn open(dir: PathBuf) -> ResultStore {
        ResultStore {
            dir,
            corrupt: AtomicU64::new(0),
            orphans: AtomicU64::new(0),
        }
    }

    /// Garbage-collects orphaned `.tmp-*` files left behind by crashed
    /// writers, which would otherwise accumulate forever. Only files whose
    /// mtime is at least `older_than` old are touched: a *live* writer's
    /// temp file exists for milliseconds, so anything old is a corpse.
    /// Returns the number removed (also accumulated for
    /// [`ResultStore::orphans_removed`]).
    pub fn scavenge(&self, older_than: Duration) -> u64 {
        let Ok(rd) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        let mut removed = 0;
        for entry in rd.filter_map(Result::ok) {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !is_tmp_name(name) {
                continue;
            }
            let old = entry
                .metadata()
                .and_then(|m| m.modified())
                .map(|m| m.elapsed().unwrap_or_default() >= older_than)
                .unwrap_or(false);
            if old && std::fs::remove_file(entry.path()).is_ok() {
                removed += 1;
            }
        }
        self.orphans.fetch_add(removed, Ordering::Relaxed);
        removed
    }

    /// Orphaned temp files removed by [`ResultStore::scavenge`] over this
    /// store handle's lifetime.
    #[must_use]
    pub fn orphans_removed(&self) -> u64 {
        self.orphans.load(Ordering::Relaxed)
    }

    /// The store's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Atomically and durably writes `payload` as the entry for `key`
    /// (temp file, fsync, rename, directory fsync — see `persist`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; callers treat them as non-fatal (the value
    /// is still in hand, only the store write is lost).
    pub fn save_record(&self, key: &StoreKey, payload: &[u8]) -> std::io::Result<()> {
        persist::write_atomic(&self.entry_path(key), &encode(key, payload))
    }

    /// Loads the payload of the entry for `key`, or `None` on any miss:
    /// absent, truncated, corrupted, of another schema, or written under
    /// another fingerprint.
    #[must_use]
    pub fn load_record(&self, key: &StoreKey) -> Option<Vec<u8>> {
        self.load_with(key, |payload| Some(payload.to_vec()))
    }

    /// Decodes the entry for `key` and hands its payload to `parse`. A
    /// file that exists but does not yield a value — bad frame, wrong
    /// fingerprint, or a payload `parse` rejects — is counted in
    /// [`ResultStore::corrupt_count`].
    fn load_with<T>(&self, key: &StoreKey, parse: impl FnOnce(&[u8]) -> Option<T>) -> Option<T> {
        let bytes = std::fs::read(self.entry_path(key)).ok()?;
        let value = decode(&bytes)
            .filter(|&(fingerprint, _)| fingerprint == key.fingerprint)
            .and_then(|(_, payload)| parse(payload));
        if value.is_none() {
            self.corrupt.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// Number of corrupt (present but undecodable) records seen by this
    /// store handle's loads.
    #[must_use]
    pub fn corrupt_count(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// Path of the entry for `key`.
    #[must_use]
    pub fn entry_path(&self, key: &StoreKey) -> PathBuf {
        self.dir.join(format!("{:016x}.{ENTRY_EXT}", key.hash))
    }

    /// Whether the store holds an entry for `key` without reading it
    /// (a cheap existence probe; a corrupt file can make this
    /// optimistic, never `load`).
    #[must_use]
    pub fn contains(&self, key: &StoreKey) -> bool {
        self.entry_path(key).exists()
    }

    /// Loads the result stored under `key`, or `None` on any miss (see
    /// [`ResultStore::load_record`]).
    #[must_use]
    pub fn load(&self, key: &StoreKey) -> Option<MixResult> {
        self.load_with(key, |p| MixResult::from_bytes(p).ok())
    }

    /// Saves `result` as the entry for `key` (see
    /// [`ResultStore::save_record`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, as [`ResultStore::save_record`] does.
    pub fn save(&self, key: &StoreKey, result: &MixResult) -> std::io::Result<()> {
        self.save_record(key, &result.to_bytes())
    }

    /// Number of `.entry` files currently in the store (0 if the
    /// directory does not exist yet).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        std::fs::read_dir(&self.dir).map_or(0, |rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == ENTRY_EXT))
                .count()
        })
    }
}

/// The record header line (without its newline).
fn header() -> String {
    format!("{RECORD_MAGIC} v{STORE_SCHEMA_VERSION} {ENTRY_EXT}")
}

/// Frames `payload` as an entry under `key` (see the module docs).
fn encode(key: &StoreKey, payload: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{}\nfingerprint {}\nbytes {}\n",
        header(),
        key.fingerprint,
        payload.len()
    )
    .into_bytes();
    out.extend_from_slice(payload);
    let sum = fnv1a64(&out);
    out.extend_from_slice(format!("checksum {sum:016x}\nend\n").as_bytes());
    out
}

/// The longest UTF-8 prefix of `bytes`. A record's header lines are
/// text, so they always lie inside it, whatever its payload holds; and
/// searching text for a newline is vectorized, which a byte loop is not.
fn text_prefix(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).unwrap_or_else(|e| {
        std::str::from_utf8(&bytes[..e.valid_up_to()]).expect("valid up to there")
    })
}

/// Parses one store record, returning its embedded fingerprint and
/// payload. This is the only reader of store files: the store's loads
/// check the fingerprint against the key that asked, and `store_scrub`
/// checks it against the file's name.
///
/// Returns `None` on any deviation: bad magic, schema or kind, a wrong
/// byte count, a checksum mismatch, or trailing junk.
#[must_use]
pub fn decode(bytes: &[u8]) -> Option<(&str, &[u8])> {
    let rest = bytes.strip_suffix(b"end\n")?;
    let text = text_prefix(rest);
    let (head, after) = text.split_once('\n')?;
    if head != header() {
        return None;
    }
    let (fp_line, after) = after.split_once('\n')?;
    let fingerprint = fp_line.strip_prefix("fingerprint ")?;
    let (bytes_line, after) = after.split_once('\n')?;
    let n: usize = bytes_line.strip_prefix("bytes ")?.parse().ok()?;
    let after = &rest[text.len() - after.len()..];
    let payload = after.get(..n)?;
    let sum_line = after.get(n..)?;
    let body = &rest[..rest.len() - sum_line.len()];
    let hex = sum_line.strip_prefix(b"checksum ")?.strip_suffix(b"\n")?;
    // Exactly what `encode` writes: 16 lowercase hex digits.
    let canonical = hex.len() == 16 && hex.iter().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    let sum = u64::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
    (canonical && sum == fnv1a64(body)).then_some((fingerprint, payload))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A fresh, empty directory for one test, removed on drop.
    pub(crate) struct Scratch {
        pub(crate) dir: PathBuf,
    }

    impl Scratch {
        pub(crate) fn new(tag: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!(
                "dbi-store-test-{tag}-{}-{:?}",
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

    /// A store key for test records, addressed like a unit's key.
    pub(crate) fn test_key(name: &str) -> StoreKey {
        let fingerprint = format!("schema={STORE_SCHEMA_VERSION} test={name}");
        StoreKey {
            hash: fingerprint_hash(&fingerprint),
            fingerprint,
        }
    }

    /// The bytes a store of `schema` wrote for a record of kind `ext`
    /// under `key`: today's frame under that version and kind.
    pub(crate) fn framed_bytes(schema: u32, ext: &str, key: &StoreKey, payload: &[u8]) -> Vec<u8> {
        let mut out = format!(
            "{RECORD_MAGIC} v{schema} {ext}\nfingerprint {}\nbytes {}\n",
            key.fingerprint,
            payload.len()
        )
        .into_bytes();
        out.extend_from_slice(payload);
        let sum = fnv1a64(&out);
        out.extend_from_slice(format!("checksum {sum:016x}\nend\n").as_bytes());
        out
    }

    #[test]
    fn records_round_trip_awkward_payloads() {
        let s = Scratch::new("record-rt");
        let store = ResultStore::open(s.dir.clone());
        let key = test_key("p=1");
        // No trailing newline, and payload lines that mimic the framing.
        let payload = b"rows 3\nchecksum feedface\nend";
        assert!(store.load_record(&key).is_none());
        store.save_record(&key, payload).unwrap();
        assert_eq!(store.load_record(&key).as_deref(), Some(&payload[..]));
        assert_eq!(store.corrupt_count(), 0);
        assert_eq!(store.entry_count(), 1);
        let file = std::fs::read(store.entry_path(&key)).unwrap();
        assert_eq!(
            file,
            framed_bytes(STORE_SCHEMA_VERSION, "entry", &key, payload)
        );
    }

    #[test]
    fn scavenge_removes_only_old_tmp_files() {
        let s = Scratch::new("scavenge");
        let store = ResultStore::open(s.dir.clone());
        for name in [
            ".tmp-deadbeef-1",
            ".tmp-deadbeef.entry-2",
            ".tmp-deadbeef.ckpt-3",
        ] {
            std::fs::write(s.dir.join(name), "torn").unwrap();
        }
        let key = test_key("p=1");
        store.save_record(&key, b"payload\n").unwrap();
        // Fresh temp files are a live writer's: a guarded pass spares them.
        assert_eq!(store.scavenge(Duration::from_secs(3600)), 0);
        // Old enough = a crashed writer's corpse: collected.
        assert_eq!(store.scavenge(Duration::ZERO), 3);
        assert_eq!(store.orphans_removed(), 3);
        // Real store files are never touched.
        assert_eq!(store.load_record(&key).as_deref(), Some(&b"payload\n"[..]));
        assert_eq!(store.scavenge(Duration::ZERO), 0);
    }

    #[test]
    fn records_miss_on_corruption_wrong_key_and_wrong_kind() {
        let s = Scratch::new("record-bad");
        let store = ResultStore::open(s.dir.clone());
        let key = test_key("p=1");
        store.save_record(&key, b"value 42\n").unwrap();
        // A different key must never be served this record, even if the
        // file is copied under its name (fingerprint mismatch).
        let other = test_key("p=2");
        std::fs::copy(store.entry_path(&key), store.entry_path(&other)).unwrap();
        assert!(store.load_record(&other).is_none());
        assert_eq!(store.corrupt_count(), 1);
        // A record of another kind, framed and sealed like an entry, under
        // the entry's name misses too.
        let path = store.entry_path(&key);
        let entry = std::fs::read(&path).unwrap();
        std::fs::write(
            &path,
            framed_bytes(STORE_SCHEMA_VERSION, "ckpt", &key, b"value 42\n"),
        )
        .unwrap();
        assert!(store.load_record(&key).is_none());
        assert_eq!(store.corrupt_count(), 2);
        // Flip one payload byte: the checksum catches it.
        let mut bytes = entry;
        let at = bytes.len() - "\nchecksum 0123456789abcdef\nend\n".len();
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load_record(&key).is_none());
        assert_eq!(store.corrupt_count(), 3);
        // Upper-casing a hex letter of the checksum keeps its value but
        // not its bytes: only the lowercase digits `encode` writes decode.
        let mut bytes = encode(&test_key("p=1"), b"x");
        let sum_at = bytes.len() - "0123456789abcdef\nend\n".len();
        let letter = (sum_at..sum_at + 16)
            .find(|&i| bytes[i].is_ascii_lowercase())
            .expect("this key's checksum has a hex letter");
        assert!(decode(&bytes).is_some());
        bytes[letter] ^= 0x20;
        assert!(decode(&bytes).is_none());

        // Entry payloads no writer produces, each inside a valid frame:
        // every one is a counted miss, never a panic or a huge allocation.
        let key = test_key("kind=entry");
        let before = store.corrupt_count();
        let valid = entry_payload(1, 1, 1, &[]);
        let mut bad_sum = valid.clone();
        *bad_sum.last_mut().unwrap() ^= 0x01;
        let malformed = [
            bad_sum,
            entry_payload(0, 1, 1, &[]),
            entry_payload(65, 1, 1, &[]),
            entry_payload(u64::MAX, 1, 1, &[]),
            entry_payload(1, 65, 1, &[]),
            entry_payload(1, u64::MAX, 1, &[]),
            entry_payload(1, 1, 2, &[]),
            entry_payload(1, 1, 1, &[0]),
            b"cores 1\ncore lbm 1 2 3 4 5\nrecords 6\n".to_vec(),
        ];
        for (n, payload) in malformed.iter().enumerate() {
            store.save_record(&key, payload).unwrap();
            assert!(store.load(&key).is_none(), "payload {n} served");
            assert_eq!(store.corrupt_count(), before + n as u64 + 1);
        }
        store.save_record(&key, &valid).unwrap();
        let result = store.load(&key).expect("the well-formed payload loads");
        assert_eq!(result.to_bytes(), valid);
        assert_eq!(store.corrupt_count(), before + malformed.len() as u64);
    }

    /// An entry payload written field by field: `cores` core records
    /// (at most one written), `writes` per-core write counters (at most
    /// 65 written), `flag` as the DBI stats' presence byte, and `trailing`
    /// bytes after the last field, sealed with a valid snapshot checksum.
    fn entry_payload(cores: u64, writes: u64, flag: u8, trailing: &[u8]) -> Vec<u8> {
        use dbi::snap::Snapshot;
        let mut w = dbi::snap::SnapWriter::new();
        w.u64(cores);
        for _ in 0..cores.min(1) {
            system_sim::CoreResult::default().snapshot(&mut w);
        }
        let mut llc = system_sim::LlcStats::default();
        llc.dram_writes_per_core = vec![7; writes.min(65) as usize];
        w.u64(writes);
        llc.snapshot(&mut w);
        dram_sim::DramStats::default().snapshot(&mut w);
        dram_sim::DramEnergy::default().snapshot(&mut w);
        w.u8(flag);
        if flag == 1 {
            dbi::DbiStats::default().snapshot(&mut w);
        }
        w.bool(false);
        w.u64(6);
        trailing.iter().for_each(|&b| w.u8(b));
        w.finish()
    }
}
