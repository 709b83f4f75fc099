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
//! Entries are plain-text files with exact bit-level `f64` encoding, a
//! copy of the fingerprint (so a hash collision or a schema change can
//! never serve the wrong result), and a trailing `end` marker. Anything
//! that fails to parse — a truncated write, a corrupted file, a
//! fingerprint mismatch — is treated as a miss and recomputed; writes go
//! through the atomic-write protocol (temp file, fsync, rename, parent
//! directory fsync — see the `persist` module) so concurrent processes
//! never observe partial entries and a completed save survives a crash.
//! Orphaned temp files left by crashed writers are garbage-collected by
//! [`ResultStore::scavenge`] (the runner calls it on startup) and by the
//! `store_scrub` binary, which also validates and quarantines entries.
//!
//! A store directory holds three kinds of durable file: `.entry` results,
//! `.blob` scenario records, and `.ckpt` mid-run checkpoints. Anything
//! else — such as the `.lease` or segment files an older release may have
//! left — is foreign: the store never reads, scavenges, or deletes it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use system_sim::{CoreResult, MixResult, SystemConfig};
use trace_gen::Benchmark;

use crate::failpoints::Group;
use crate::persist;

/// Bump whenever the fingerprint grammar or the entry serialization
/// changes: old entries then miss (their embedded fingerprint no longer
/// matches) and are recomputed rather than misread.
///
/// v3: every entry carries a trailing FNV-1a checksum line, so corruption
/// is detected byte-for-byte instead of only when a field fails to parse
/// (a flipped digit inside a counter parses fine under v2).
///
/// v5: the workspace's dirty metadata moved onto the unified adaptive
/// `DirtyContainer` storage and the store gained scenario blob entries
/// (`.blob` files, see [`ResultStore::save_blob`]). The container change
/// is behaviour-neutral by design, but v4 entries were produced by code
/// that no longer exists; recompute rather than trust the overlap.
pub const STORE_SCHEMA_VERSION: u32 = 5;

const ENTRY_MAGIC: &str = "dbi-bench-result";
const BLOB_MAGIC: &str = "dbi-bench-blob";

/// The content address of one simulation unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreKey {
    /// FNV-1a hash of the fingerprint — the entry's file name.
    pub hash: u64,
    /// Canonical description of everything the simulation depends on.
    pub fingerprint: String,
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn f64_bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn parse_f64_bits(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
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
        hash: fnv1a(fingerprint.as_bytes()),
        fingerprint,
    }
}

/// The content address of a named scenario blob: experiments that do not
/// run the cycle-level simulator (e.g. `dramcache_gb`, which drives the
/// GB-scale DRAM cache directly) cache their measured records under a
/// fingerprint spelling out the scenario name and every parameter the run
/// depends on, plus the schema version — the same staleness discipline as
/// [`unit_key`].
#[must_use]
pub fn scenario_key(name: &str, params: &str) -> StoreKey {
    let fingerprint = format!("schema={STORE_SCHEMA_VERSION} scenario={name} {params}");
    StoreKey {
        hash: fnv1a(fingerprint.as_bytes()),
        fingerprint,
    }
}

/// The store hash of a fingerprint string — what an entry's file name must
/// equal. `store_scrub` uses this to verify that an entry sits under the
/// name its content demands.
#[must_use]
pub fn fingerprint_hash(fingerprint: &str) -> u64 {
    fnv1a(fingerprint.as_bytes())
}

/// A directory of serialized [`MixResult`]s, addressed by [`StoreKey`].
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    /// Entries whose file was present but failed to parse back — each one
    /// is silently recomputed, but the count is surfaced in runner
    /// summaries so store rot is visible instead of just slow.
    corrupt: AtomicU64,
    /// Orphaned temp files removed by [`ResultStore::scavenge`], surfaced
    /// in runner summaries alongside the entry count.
    orphans: AtomicU64,
}

/// Temp-file name prefixes of the atomic-write protocol: entry, blob,
/// and checkpoint writers respectively. Final files never start with a
/// dot, so anything matching these is in-flight — or, once its writer
/// has died, an orphan.
const TMP_PREFIXES: [&str; 3] = [".tmp-", ".tmpb-", ".ckpt-"];

/// Whether `name` is a temp file of the atomic-write protocol.
#[must_use]
pub fn is_tmp_name(name: &str) -> bool {
    TMP_PREFIXES.iter().any(|p| name.starts_with(p))
}

impl ResultStore {
    /// Opens (without touching the filesystem) a store rooted at `dir`.
    /// The directory is created on the first [`ResultStore::save`].
    #[must_use]
    pub fn open(dir: PathBuf) -> ResultStore {
        ResultStore {
            dir,
            corrupt: AtomicU64::new(0),
            orphans: AtomicU64::new(0),
        }
    }

    /// Garbage-collects orphaned temp files (`.tmp-*`, `.tmpb-*`,
    /// `.ckpt-*`) left behind by crashed writers, which would
    /// otherwise accumulate forever. Only files whose mtime is at least
    /// `older_than` old are touched: a *live* writer's temp file exists
    /// for milliseconds, so anything old is a corpse. Returns the number
    /// removed (also accumulated for [`ResultStore::orphans_removed`]).
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

    /// Path of the entry for `key`.
    #[must_use]
    pub fn entry_path(&self, key: &StoreKey) -> PathBuf {
        self.dir.join(format!("{:016x}.entry", key.hash))
    }

    /// Whether the store holds a result for `key` without parsing it
    /// (a cheap existence probe; a corrupt file can make this
    /// optimistic, never `load`).
    #[must_use]
    pub fn contains(&self, key: &StoreKey) -> bool {
        self.entry_path(key).exists()
    }

    /// Loads the result stored under `key`, or `None` on any miss:
    /// absent, truncated, corrupted, schema-mismatched, or
    /// fingerprint-collided entries all recompute.
    #[must_use]
    pub fn load(&self, key: &StoreKey) -> Option<MixResult> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        let result = deserialize(&text, key);
        if result.is_none() {
            // The file existed but did not parse back to a result under
            // this key: truncation, corruption, schema drift, or a hash
            // collision. All are recomputed; all are worth counting.
            self.corrupt.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Number of corrupt (present but unparseable) entries seen by
    /// [`ResultStore::load`] over this store's lifetime.
    #[must_use]
    pub fn corrupt_count(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// Serializes `result` under `key` through the atomic-write protocol
    /// (temp file, fsync, rename, directory fsync — see `persist`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; callers treat them as non-fatal (the result
    /// is still in hand, only the cache write is lost).
    pub fn save(&self, key: &StoreKey, result: &MixResult) -> std::io::Result<()> {
        let tmp = self
            .dir
            .join(format!(".tmp-{:016x}-{}", key.hash, std::process::id()));
        persist::write_atomic(
            Group::Entry,
            &self.dir,
            &tmp,
            &self.entry_path(key),
            serialize(key, result).as_bytes(),
        )
    }

    /// Path of the scenario blob for `key`.
    ///
    /// Blobs use their own extension so [`ResultStore::entry_count`]
    /// (which counts `MixResult` entries) never touches them.
    #[must_use]
    pub fn blob_path(&self, key: &StoreKey) -> PathBuf {
        self.dir.join(format!("{:016x}.blob", key.hash))
    }

    /// Loads the scenario blob payload stored under `key`, or `None` on
    /// any miss — absent, truncated, corrupted, schema-mismatched, or
    /// fingerprint-collided blobs all recompute, exactly like entries.
    #[must_use]
    pub fn load_blob(&self, key: &StoreKey) -> Option<String> {
        let text = std::fs::read_to_string(self.blob_path(key)).ok()?;
        let payload = deserialize_blob(&text, key);
        if payload.is_none() {
            self.corrupt.fetch_add(1, Ordering::Relaxed);
        }
        payload
    }

    /// Serializes an opaque scenario `payload` under `key` with the entry
    /// discipline: embedded fingerprint, trailing FNV-1a checksum, temp
    /// file plus atomic rename.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; callers treat them as non-fatal (the result
    /// is still in hand, only the cache write is lost).
    pub fn save_blob(&self, key: &StoreKey, payload: &str) -> std::io::Result<()> {
        let tmp = self
            .dir
            .join(format!(".tmpb-{:016x}-{}", key.hash, std::process::id()));
        persist::write_atomic(
            Group::Blob,
            &self.dir,
            &tmp,
            &self.blob_path(key),
            serialize_blob(key, payload).as_bytes(),
        )
    }

    /// Path of the mid-run checkpoint file for `key`.
    #[must_use]
    pub fn checkpoint_path(&self, key: &StoreKey) -> PathBuf {
        self.dir.join(format!("{:016x}.ckpt", key.hash))
    }

    /// Atomically writes a mid-run checkpoint for `key`: the key's hash
    /// (little-endian, a cheap same-unit guard) followed by the snapshot
    /// payload, which carries its own trailing checksum.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; callers treat them as non-fatal (the run
    /// continues, only resumability up to this point is lost).
    pub fn save_checkpoint(&self, key: &StoreKey, payload: &[u8]) -> std::io::Result<()> {
        let tmp = self
            .dir
            .join(format!(".ckpt-{:016x}-{}", key.hash, std::process::id()));
        let mut bytes = Vec::with_capacity(8 + payload.len());
        bytes.extend_from_slice(&key.hash.to_le_bytes());
        bytes.extend_from_slice(payload);
        persist::write_atomic(
            Group::Ckpt,
            &self.dir,
            &tmp,
            &self.checkpoint_path(key),
            &bytes,
        )
    }

    /// Loads the checkpoint payload for `key`, or `None` when absent or
    /// written under a different hash. Deeper corruption is left to the
    /// snapshot decoder's own checksum, which the caller must treat as a
    /// cold start.
    #[must_use]
    pub fn load_checkpoint(&self, key: &StoreKey) -> Option<Vec<u8>> {
        let bytes = std::fs::read(self.checkpoint_path(key)).ok()?;
        let (head, payload) = bytes.split_at_checked(8)?;
        let head: [u8; 8] = head.try_into().ok()?;
        (u64::from_le_bytes(head) == key.hash).then(|| payload.to_vec())
    }

    /// Removes the checkpoint for `key` (a completed or abandoned run).
    pub fn clear_checkpoint(&self, key: &StoreKey) {
        let _ = std::fs::remove_file(self.checkpoint_path(key));
    }

    /// Number of `.entry` files currently in the store (0 if the
    /// directory does not exist yet).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        std::fs::read_dir(&self.dir).map_or(0, |rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "entry"))
                .count()
        })
    }
}

fn serialize(key: &StoreKey, result: &MixResult) -> String {
    let mut out = String::new();
    out.push_str(&format!("{ENTRY_MAGIC} v{STORE_SCHEMA_VERSION}\n"));
    out.push_str(&format!("fingerprint {}\n", key.fingerprint));
    out.push_str(&format!("cores {}\n", result.cores.len()));
    for c in &result.cores {
        out.push_str(&format!(
            "core {} {} {} {} {} {}\n",
            c.benchmark, c.insts, c.cycles, c.llc_reads, c.llc_read_misses, c.dram_writes
        ));
    }
    let llc = &result.llc;
    out.push_str(&format!(
        "llc {} {} {} {} {} {} {}\n",
        llc.tag_lookups,
        llc.demand_reads,
        llc.demand_hits,
        llc.bypasses,
        llc.writebacks_received,
        llc.sweep_writebacks,
        llc.dbi_eviction_writebacks
    ));
    out.push_str("llc_writes");
    for w in &llc.dram_writes_per_core {
        out.push_str(&format!(" {w}"));
    }
    out.push('\n');
    let d = &result.dram;
    out.push_str(&format!(
        "dram {} {} {} {} {} {} {} {} {} {}\n",
        d.reads,
        d.read_row_hits,
        d.buffer_forwards,
        d.writes,
        d.write_row_hits,
        d.activates,
        d.drains,
        d.refresh_stalls,
        d.drain_cycles,
        d.coalesced_writes
    ));
    let e = &result.energy;
    out.push_str(&format!(
        "energy {} {} {} {} {}\n",
        f64_bits(e.activate_pj),
        f64_bits(e.read_pj),
        f64_bits(e.write_pj),
        f64_bits(e.forward_pj),
        f64_bits(e.background_pj)
    ));
    match &result.dbi {
        None => out.push_str("dbi none\n"),
        Some(s) => out.push_str(&format!(
            "dbi {} {} {} {} {} {} {} {}\n",
            s.mark_requests,
            s.entry_hits,
            s.bits_set,
            s.entry_insertions,
            s.entry_evictions,
            s.eviction_writebacks,
            s.bits_cleared,
            s.entry_invalidations
        )),
    }
    match &result.rewrite_filter {
        None => out.push_str("rewrite none\n"),
        Some(s) => out.push_str(&format!(
            "rewrite {} {} {}\n",
            s.suppressed_sweeps, s.allowed_sweeps, s.rewrites_observed
        )),
    }
    out.push_str(&format!("records {}\n", result.records_processed));
    out.push_str(&format!("checksum {:016x}\n", fnv1a(out.as_bytes())));
    out.push_str("end\n");
    out
}

/// Strict line-oriented parser: any deviation returns `None` (a miss).
fn deserialize(text: &str, key: &StoreKey) -> Option<MixResult> {
    let (fingerprint, result) = deserialize_any(text)?;
    // hash collision or schema drift — never serve it
    (fingerprint == key.fingerprint).then_some(result)
}

/// Parses an entry *without* knowing its key in advance, returning the
/// embedded fingerprint alongside the result. This is the `store_scrub`
/// entry point: it walks entry files it did not create and must recover
/// (and verify) each one's identity from its own bytes.
///
/// Returns `None` on any deviation: bad magic or schema, checksum
/// mismatch, truncation, or a malformed field.
#[must_use]
pub fn deserialize_any(text: &str) -> Option<(String, MixResult)> {
    // Verify the trailing checksum before believing any field. The
    // checksum line covers every byte up to itself.
    let rest = text.strip_suffix("end\n")?;
    let sum_at = rest.rfind("checksum ")?;
    if sum_at != 0 && !rest[..sum_at].ends_with('\n') {
        return None;
    }
    let body = &rest[..sum_at];
    let sum_hex = rest[sum_at..]
        .strip_prefix("checksum ")?
        .strip_suffix('\n')?;
    if u64::from_str_radix(sum_hex, 16).ok()? != fnv1a(body.as_bytes()) {
        return None;
    }

    let mut lines = body.lines();
    let header = lines.next()?;
    if header != format!("{ENTRY_MAGIC} v{STORE_SCHEMA_VERSION}") {
        return None;
    }
    let fingerprint = lines.next()?.strip_prefix("fingerprint ")?.to_string();
    let n_cores: usize = lines.next()?.strip_prefix("cores ")?.parse().ok()?;
    // Mix sizes are 1–64 cores; anything else is corruption.
    if !(1..=64).contains(&n_cores) {
        return None;
    }
    let mut cores = Vec::with_capacity(n_cores);
    for _ in 0..n_cores {
        let mut it = lines.next()?.strip_prefix("core ")?.split(' ');
        let benchmark = it.next()?.to_string();
        let mut next_u64 = || it.next().and_then(|v| v.parse::<u64>().ok());
        cores.push(CoreResult {
            benchmark,
            insts: next_u64()?,
            cycles: next_u64()?,
            llc_reads: next_u64()?,
            llc_read_misses: next_u64()?,
            dram_writes: next_u64()?,
        });
    }
    // The stats structs are #[non_exhaustive], so they are built from
    // Default plus per-field assignment. A field added upstream is NOT a
    // compile error here the way SystemConfig fields are in
    // `unit_fingerprint` — serialization coverage is instead guarded by
    // the bit-identical warm-rerun test, and any extension requires a
    // STORE_SCHEMA_VERSION bump.
    let llc_fields = parse_u64s(lines.next()?.strip_prefix("llc ")?, 7)?;
    let writes_line = lines.next()?.strip_prefix("llc_writes")?;
    let dram_writes_per_core: Vec<u64> = if writes_line.is_empty() {
        Vec::new()
    } else {
        writes_line
            .trim_start()
            .split(' ')
            .map(|v| v.parse::<u64>().ok())
            .collect::<Option<Vec<u64>>>()?
    };
    let mut llc = system_sim::LlcStats::default();
    llc.tag_lookups = llc_fields[0];
    llc.demand_reads = llc_fields[1];
    llc.demand_hits = llc_fields[2];
    llc.bypasses = llc_fields[3];
    llc.writebacks_received = llc_fields[4];
    llc.sweep_writebacks = llc_fields[5];
    llc.dbi_eviction_writebacks = llc_fields[6];
    llc.dram_writes_per_core = dram_writes_per_core;
    let d = parse_u64s(lines.next()?.strip_prefix("dram ")?, 10)?;
    let mut dram = dram_sim::DramStats::default();
    dram.reads = d[0];
    dram.read_row_hits = d[1];
    dram.buffer_forwards = d[2];
    dram.writes = d[3];
    dram.write_row_hits = d[4];
    dram.activates = d[5];
    dram.drains = d[6];
    dram.refresh_stalls = d[7];
    dram.drain_cycles = d[8];
    dram.coalesced_writes = d[9];
    let mut e = lines.next()?.strip_prefix("energy ")?.split(' ');
    let mut next_f64 = || e.next().and_then(parse_f64_bits);
    let mut energy = dram_sim::DramEnergy::default();
    energy.activate_pj = next_f64()?;
    energy.read_pj = next_f64()?;
    energy.write_pj = next_f64()?;
    energy.forward_pj = next_f64()?;
    energy.background_pj = next_f64()?;
    let dbi_line = lines.next()?.strip_prefix("dbi ")?;
    let dbi = if dbi_line == "none" {
        None
    } else {
        let s = parse_u64s(dbi_line, 8)?;
        let mut stats = dbi::DbiStats::default();
        stats.mark_requests = s[0];
        stats.entry_hits = s[1];
        stats.bits_set = s[2];
        stats.entry_insertions = s[3];
        stats.entry_evictions = s[4];
        stats.eviction_writebacks = s[5];
        stats.bits_cleared = s[6];
        stats.entry_invalidations = s[7];
        Some(stats)
    };
    let rw_line = lines.next()?.strip_prefix("rewrite ")?;
    let rewrite_filter = if rw_line == "none" {
        None
    } else {
        let s = parse_u64s(rw_line, 3)?;
        let mut stats = cache_sim::lastwrite::RewriteFilterStats::default();
        stats.suppressed_sweeps = s[0];
        stats.allowed_sweeps = s[1];
        stats.rewrites_observed = s[2];
        Some(stats)
    };
    let records_processed: u64 = lines.next()?.strip_prefix("records ")?.parse().ok()?;
    if lines.next().is_some() {
        return None;
    }
    Some((
        fingerprint,
        MixResult {
            cores,
            llc,
            dram,
            energy,
            dbi,
            rewrite_filter,
            check: None,
            sanitizer: None,
            records_processed,
        },
    ))
}

fn parse_u64s(s: &str, n: usize) -> Option<Vec<u64>> {
    let vals: Vec<u64> = s
        .split(' ')
        .map(|v| v.parse::<u64>().ok())
        .collect::<Option<Vec<u64>>>()?;
    (vals.len() == n).then_some(vals)
}

/// Blob framing: magic + schema, fingerprint, an explicit byte count, the
/// raw payload, then the checksum over everything before the checksum
/// line. The byte count makes the format safe for payloads that themselves
/// contain lines like `checksum ...` — the parser never scans the payload.
fn serialize_blob(key: &StoreKey, payload: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("{BLOB_MAGIC} v{STORE_SCHEMA_VERSION}\n"));
    out.push_str(&format!("fingerprint {}\n", key.fingerprint));
    out.push_str(&format!("bytes {}\n", payload.len()));
    out.push_str(payload);
    out.push_str(&format!("checksum {:016x}\n", fnv1a(out.as_bytes())));
    out.push_str("end\n");
    out
}

/// Strict blob parser: any deviation — bad magic or schema, fingerprint
/// mismatch, wrong byte count, checksum mismatch, trailing junk — returns
/// `None` (a miss).
fn deserialize_blob(text: &str, key: &StoreKey) -> Option<String> {
    let (fingerprint, payload) = deserialize_blob_any(text)?;
    (fingerprint == key.fingerprint).then_some(payload)
}

/// Parses a blob *without* knowing its key in advance, returning the
/// embedded fingerprint alongside the payload — the `store_scrub` entry
/// point, mirroring [`deserialize_any`] for `.entry` files.
///
/// Returns `None` on any framing deviation: bad magic or schema, wrong
/// byte count, checksum mismatch, or trailing junk.
#[must_use]
pub fn deserialize_blob_any(text: &str) -> Option<(String, String)> {
    let rest = text.strip_suffix("end\n")?;
    let (header, after) = rest.split_once('\n')?;
    if header != format!("{BLOB_MAGIC} v{STORE_SCHEMA_VERSION}") {
        return None;
    }
    let (fp_line, after) = after.split_once('\n')?;
    let fingerprint = fp_line.strip_prefix("fingerprint ")?;
    let (bytes_line, after) = after.split_once('\n')?;
    let n: usize = bytes_line.strip_prefix("bytes ")?.parse().ok()?;
    let payload = after.get(..n)?;
    let sum_line = after.get(n..)?;
    let sum_hex = sum_line.strip_prefix("checksum ")?.strip_suffix('\n')?;
    let body = &rest[..rest.len() - sum_line.len()];
    if u64::from_str_radix(sum_hex, 16).ok()? != fnv1a(body.as_bytes()) {
        return None;
    }
    Some((fingerprint.to_string(), payload.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Scratch {
        dir: PathBuf,
    }

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!(
                "dbi-store-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            Scratch { dir }
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    #[test]
    fn scenario_key_spells_schema_name_and_params() {
        let key = scenario_key("dramcache_gb", "wl=hot policy=adaptive");
        assert_eq!(
            key.fingerprint,
            format!("schema={STORE_SCHEMA_VERSION} scenario=dramcache_gb wl=hot policy=adaptive")
        );
        assert_eq!(key.hash, fingerprint_hash(&key.fingerprint));
        // Any parameter change must change the address.
        assert_ne!(
            key.hash,
            scenario_key("dramcache_gb", "wl=hot policy=dense").hash
        );
    }

    #[test]
    fn blob_round_trips_awkward_payloads() {
        let s = Scratch::new("blob-rt");
        let store = ResultStore::open(s.dir.clone());
        let key = scenario_key("t", "p=1");
        // No trailing newline, and payload lines that mimic the framing.
        let payload = "rows 3\nchecksum feedface\nend";
        assert!(store.load_blob(&key).is_none());
        store.save_blob(&key, payload).unwrap();
        assert_eq!(store.load_blob(&key).as_deref(), Some(payload));
        assert_eq!(store.corrupt_count(), 0);
        // Blobs are invisible to the entry census.
        assert_eq!(store.entry_count(), 0);
    }

    #[test]
    fn scavenge_removes_only_old_tmp_files() {
        let s = Scratch::new("scavenge");
        let store = ResultStore::open(s.dir.clone());
        std::fs::create_dir_all(&s.dir).unwrap();
        for name in [".tmp-deadbeef-1", ".tmpb-deadbeef-2", ".ckpt-deadbeef-3"] {
            std::fs::write(s.dir.join(name), "torn").unwrap();
        }
        let key = scenario_key("t", "p=1");
        store.save_blob(&key, "payload\n").unwrap();
        // Fresh temp files are a live writer's: a guarded pass spares them.
        assert_eq!(store.scavenge(Duration::from_secs(3600)), 0);
        // Old enough = a crashed writer's corpse: collected.
        assert_eq!(store.scavenge(Duration::ZERO), 3);
        assert_eq!(store.orphans_removed(), 3);
        // Real store files are never touched.
        assert_eq!(store.load_blob(&key).as_deref(), Some("payload\n"));
        assert_eq!(store.scavenge(Duration::ZERO), 0);
    }

    #[test]
    fn blob_misses_on_corruption_and_wrong_key() {
        let s = Scratch::new("blob-bad");
        let store = ResultStore::open(s.dir.clone());
        let key = scenario_key("t", "p=1");
        store.save_blob(&key, "value 42\n").unwrap();
        // A different key must never be served this blob, even if the
        // file is copied under its name (fingerprint mismatch).
        let other = scenario_key("t", "p=2");
        std::fs::copy(store.blob_path(&key), store.blob_path(&other)).unwrap();
        assert!(store.load_blob(&other).is_none());
        assert_eq!(store.corrupt_count(), 1);
        // Flip one payload byte: the checksum catches it.
        let mut bytes = std::fs::read(store.blob_path(&key)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(store.blob_path(&key), &bytes).unwrap();
        assert!(store.load_blob(&key).is_none());
        assert_eq!(store.corrupt_count(), 2);
    }
}
