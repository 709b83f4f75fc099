//! Deterministic, seedable I/O failpoints for the persistence layer.
//!
//! The in-simulation fault injector (`system_sim`'s `--fault`) proves the
//! invariant sanitizer can detect metadata corruption produced on demand.
//! This module is the same discipline applied to the on-disk half of the
//! harness: every store record — entry or checkpoint — is written
//! by one atomic-write protocol, and each of its four stages is a
//! *failpoint site* (`record.write`, `record.sync`, `record.rename`,
//! `record.dirsync`) that can be armed to misbehave in controlled,
//! reproducible ways:
//!
//! - **torn write** (`torn`): a seed-selected prefix of the payload
//!   reaches the temp file, then the process dies;
//! - **short write** (`short`): a silently truncated payload that still
//!   gets renamed into place — the visible outcome of a dropped page
//!   writeback after the rename was already durable;
//! - **dropped fsync** (`drop-sync`): `sync_all` silently skipped;
//! - **crash** (`crash`): the process dies immediately before the
//!   stage's action (an in-protocol `kill -9`);
//! - **transient EIO** (`eio`): the stage's action fails once with an
//!   I/O error that propagates to the caller.
//!
//! Arm a failpoint from the command line with `--io-fault SITE[:MODE]
//! --io-fault-seed N`, mirroring the `--fault`/`--fault-seed` UX: the
//! seed deterministically selects the firing occurrence of the site and,
//! for torn/short writes, the cut point, so every injected run is exactly
//! reproducible. Each armed plan fires exactly once. When no plan is
//! armed the whole layer costs one relaxed atomic load per site — the
//! persistence path is otherwise unchanged.
//!
//! Crash-flavored firings have two styles. From the CLI
//! ([`CrashStyle::ExitProcess`]) the process exits with
//! [`CRASH_EXIT_CODE`] at the fire point, leaving exactly the on-disk
//! state a real kill would — CI's crash-consistency smoke uses this.
//! Tests install plans with [`CrashStyle::Error`] instead, which aborts
//! only the current store operation (same on-disk state, process
//! survives), so one process can crash and recover at every registered
//! site in sequence — the recovery-matrix test.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use system_sim::splitmix64;

/// Exit code of a CLI-armed crash failpoint: distinct from a panic (101)
/// and the runner's `128 + signal` exits, so CI can assert that a run
/// died *at the failpoint* and not for some other reason.
pub const CRASH_EXIT_CODE: i32 = 86;

/// A failpoint site: one stage of the atomic-write protocol every store
/// record goes through, spelled `record.STAGE` (e.g. `record.rename`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// Writing the payload into the temp file.
    Write,
    /// `sync_all` on the temp file.
    Sync,
    /// The rename of the temp file onto its final name.
    Rename,
    /// `sync_all` on the parent directory (making the rename durable).
    DirSync,
}

impl Site {
    /// Every site, in protocol order.
    pub const ALL: [Site; 4] = [Site::Write, Site::Sync, Site::Rename, Site::DirSync];

    /// The stage's name, the part after `record.`.
    fn stage(self) -> &'static str {
        match self {
            Site::Write => "write",
            Site::Sync => "sync",
            Site::Rename => "rename",
            Site::DirSync => "dirsync",
        }
    }

    /// Parses a `record.STAGE` spelling.
    ///
    /// # Errors
    ///
    /// Returns a message carrying the full site/mode catalog, so a typo
    /// surfaces the menu instead of a bare rejection.
    pub fn parse(s: &str) -> Result<Site, String> {
        all_sites()
            .into_iter()
            .find(|site| site.to_string() == s)
            .ok_or_else(|| format!("unknown failpoint site '{s}'\n{}", catalog()))
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "record.{}", self.stage())
    }
}

/// Every registered failpoint site — the set the recovery matrix
/// enumerates: every stage of the atomic-write protocol.
#[must_use]
pub fn all_sites() -> Vec<Site> {
    Site::ALL.to_vec()
}

/// The full failpoint catalog as one human-readable block: every site
/// with the modes injectable there. Printed by `--io-fault list` and
/// appended to unknown-site errors so a typo surfaces the whole menu.
#[must_use]
pub fn catalog() -> String {
    let mut out = String::from("valid --io-fault sites (SITE[:MODE], default mode crash):\n");
    for site in all_sites() {
        let modes: Vec<&str> = modes_for(site).iter().map(|m| m.label()).collect();
        // `Site`'s Display ignores width, so pad its rendered string.
        let name = site.to_string();
        out.push_str(&format!("    {name:<16} modes: {}\n", modes.join(", ")));
    }
    out
}

/// How an armed failpoint misbehaves when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailMode {
    /// Write a prefix of the payload, then crash (write stage only).
    Torn,
    /// Write a prefix of the payload and *continue* — the protocol
    /// completes over silently truncated data (write stage only).
    Short,
    /// Skip the `sync_all` silently (sync/dirsync stages only).
    DropSync,
    /// Crash immediately before the stage's action.
    Crash,
    /// The stage's action fails once with a transient I/O error.
    Eio,
}

impl FailMode {
    /// Every mode, in documentation order.
    pub const ALL: [FailMode; 5] = [
        FailMode::Torn,
        FailMode::Short,
        FailMode::DropSync,
        FailMode::Crash,
        FailMode::Eio,
    ];

    /// The command-line spelling of this mode.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FailMode::Torn => "torn",
            FailMode::Short => "short",
            FailMode::DropSync => "drop-sync",
            FailMode::Crash => "crash",
            FailMode::Eio => "eio",
        }
    }

    /// Whether this mode is meaningful at `site`: truncation needs a
    /// payload (write), a dropped fsync needs an fsync (sync/dirsync),
    /// crash and EIO apply everywhere.
    fn applies_at(self, site: Site) -> bool {
        match self {
            FailMode::Torn | FailMode::Short => site == Site::Write,
            FailMode::DropSync => matches!(site, Site::Sync | Site::DirSync),
            FailMode::Crash | FailMode::Eio => true,
        }
    }
}

impl std::fmt::Display for FailMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The modes injectable at `site` — the recovery matrix crosses
/// [`all_sites`] with this.
#[must_use]
pub fn modes_for(site: Site) -> Vec<FailMode> {
    FailMode::ALL
        .into_iter()
        .filter(|m| m.applies_at(site))
        .collect()
}

/// A parsed `--io-fault` value: which site misbehaves, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FailSpec {
    /// The armed site.
    pub site: Site,
    /// The injected misbehaviour.
    pub mode: FailMode,
}

impl FailSpec {
    /// Parses a `SITE[:MODE]` spelling; the mode defaults to `crash`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the invalid site, the invalid mode, or a
    /// mode/stage mismatch (e.g. `record.rename:torn` — only writes tear).
    pub fn parse(s: &str) -> Result<FailSpec, String> {
        let (site_str, mode_str) = match s.split_once(':') {
            Some((site, mode)) => (site, Some(mode)),
            None => (s, None),
        };
        let site = Site::parse(site_str)?;
        let mode = match mode_str {
            None => FailMode::Crash,
            Some(m) => FailMode::ALL
                .into_iter()
                .find(|mode| mode.label() == m)
                .ok_or_else(|| {
                    let valid: Vec<&str> = FailMode::ALL.iter().map(|m| m.label()).collect();
                    format!("unknown failpoint mode '{m}' (valid: {})", valid.join(", "))
                })?,
        };
        if !mode.applies_at(site) {
            return Err(format!(
                "failpoint mode '{mode}' does not apply at site '{site}' \
                 (torn/short need a write, drop-sync needs an fsync)"
            ));
        }
        Ok(FailSpec { site, mode })
    }
}

impl std::fmt::Display for FailSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.site, self.mode)
    }
}

/// What a crash-flavored firing does to the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashStyle {
    /// Exit the process with [`CRASH_EXIT_CODE`] — a real mid-protocol
    /// kill, for CLI use and CI smokes.
    ExitProcess,
    /// Abort only the current store operation with an I/O error, leaving
    /// the same on-disk state — for in-process recovery tests.
    Error,
}

/// An armed failpoint: the spec, the seed selecting its firing point,
/// and the crash style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailPlan {
    /// Which site fails, and how.
    pub spec: FailSpec,
    /// Seed selecting the firing occurrence and torn/short cut point.
    pub seed: u64,
    /// What a crash-flavored firing does to the process.
    pub style: CrashStyle,
    /// Explicit 1-based firing occurrence (tests); `None` derives it
    /// from the seed.
    pub fire_at: Option<u64>,
}

impl FailPlan {
    /// A CLI-style plan: crash firings exit the process.
    #[must_use]
    pub fn new(spec: FailSpec, seed: u64) -> FailPlan {
        FailPlan {
            spec,
            seed,
            style: CrashStyle::ExitProcess,
            fire_at: None,
        }
    }

    /// Overrides the crash style (tests use [`CrashStyle::Error`]).
    #[must_use]
    pub fn with_style(mut self, style: CrashStyle) -> FailPlan {
        self.style = style;
        self
    }

    /// Pins the 1-based firing occurrence (tests fire on the first).
    #[must_use]
    pub fn with_fire_at(mut self, occurrence: u64) -> FailPlan {
        self.fire_at = Some(occurrence.max(1));
        self
    }
}

/// Salt separating the cut-point stream from the occurrence stream.
const CUT_SALT: u64 = 0x746f_726e_2d63_7574; // "torn-cut"

#[derive(Debug)]
struct Active {
    spec: FailSpec,
    /// 1-based occurrence of the site the plan fires on.
    fire_at: u64,
    /// Occurrences of the armed site seen so far.
    seen: u64,
    /// Seed stream for torn/short cut points.
    cut_seed: u64,
    style: CrashStyle,
    fired: bool,
}

impl Active {
    fn new(plan: FailPlan) -> Active {
        Active {
            spec: plan.spec,
            fire_at: plan
                .fire_at
                .unwrap_or_else(|| 1 + splitmix64(plan.seed) % 4),
            seen: 0,
            cut_seed: splitmix64(plan.seed ^ CUT_SALT),
            style: plan.style,
            fired: false,
        }
    }

    /// Counts one occurrence of `site` and decides whether the plan fires
    /// there; `payload_len` sizes torn/short cuts. Fires at most once.
    fn fire(&mut self, site: Site, payload_len: usize) -> Option<Fire> {
        if self.fired || self.spec.site != site {
            return None;
        }
        self.seen += 1;
        if self.seen < self.fire_at {
            return None;
        }
        self.fired = true;
        // Cut strictly inside the payload so torn/short runs really truncate.
        let keep = if payload_len == 0 {
            0
        } else {
            usize::try_from(splitmix64(self.cut_seed) % payload_len as u64)
                .expect("cut index fits usize")
        };
        eprintln!("io-fault: firing {} (occurrence {})", self.spec, self.seen);
        Some(match self.spec.mode {
            FailMode::Torn => Fire::Torn { keep },
            FailMode::Short => Fire::Short { keep },
            FailMode::DropSync => Fire::DropSync,
            FailMode::Crash => Fire::Crash,
            FailMode::Eio => Fire::Eio,
        })
    }
}

/// Fast gate: one relaxed load decides "no failpoints armed" without
/// touching the mutex, so the disabled persistence path is unchanged.
static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<Active>> = Mutex::new(None);

/// Arms `plan` process-wide (replacing any armed plan). The plan fires
/// exactly once, on the seed-selected (or pinned) occurrence of its site.
pub fn install(plan: FailPlan) {
    *PLAN.lock().expect("failpoint plan lock") = Some(Active::new(plan));
    ARMED.store(true, Ordering::Release);
}

/// Disarms any armed plan.
pub fn clear() {
    ARMED.store(false, Ordering::Release);
    *PLAN.lock().expect("failpoint plan lock") = None;
}

/// The spec that fired, if an armed plan has fired.
#[must_use]
pub fn fired() -> Option<FailSpec> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    PLAN.lock()
        .expect("failpoint plan lock")
        .as_ref()
        .filter(|a| a.fired)
        .map(|a| a.spec)
}

/// The decision the persistence helper must apply at a site it just
/// reached. `None` = behave normally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fire {
    /// Write only the first `keep` bytes, then crash.
    Torn { keep: usize },
    /// Write only the first `keep` bytes and continue the protocol.
    Short { keep: usize },
    /// Skip the fsync silently.
    DropSync,
    /// Crash before the stage's action.
    Crash,
    /// Fail the stage's action with a transient I/O error.
    Eio,
}

/// Consults the armed plan at `site`; `payload_len` sizes torn/short
/// cuts. Counts one occurrence of the site and fires at most once per
/// installed plan.
pub(crate) fn fire(site: Site, payload_len: usize) -> Option<Fire> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    PLAN.lock()
        .expect("failpoint plan lock")
        .as_mut()?
        .fire(site, payload_len)
}

/// Applies the armed plan's crash style at `site`: exits the process
/// ([`CrashStyle::ExitProcess`]) or returns the error the aborted store
/// operation propagates ([`CrashStyle::Error`]).
pub(crate) fn crash(site: Site) -> std::io::Error {
    let style = PLAN
        .lock()
        .expect("failpoint plan lock")
        .as_ref()
        .map_or(CrashStyle::Error, |a| a.style);
    if style == CrashStyle::ExitProcess {
        eprintln!("io-fault: simulated crash at {site}; exiting {CRASH_EXIT_CODE}");
        std::process::exit(CRASH_EXIT_CODE);
    }
    std::io::Error::other(format!("io-fault: simulated crash at {site}"))
}

/// The transient-EIO error injected at `site`.
pub(crate) fn eio(site: Site) -> std::io::Error {
    std::io::Error::other(format!("io-fault: transient EIO at {site}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_enumerates_all_protocol_sites() {
        let sites = all_sites();
        // One atomic-write protocol, four stages.
        assert_eq!(sites.len(), 4);
        let pairs: usize = sites.iter().map(|&site| modes_for(site).len()).sum();
        assert_eq!(pairs, 12, "4 + 3 + 2 + 3 modes across the stages");
        for site in &sites {
            assert_eq!(Site::parse(&site.to_string()), Ok(*site));
            assert!(!modes_for(*site).is_empty());
        }
        assert!(Site::parse("record.fsyncgate").is_err());
    }

    #[test]
    fn catalog_names_every_site_with_its_modes() {
        let text = catalog();
        for site in all_sites() {
            assert!(text.contains(&site.to_string()), "catalog missing {site}");
        }
        assert!(text.contains("record.dirsync"));
        // A typo'd site fails with the catalog, not a bare error.
        let err = Site::parse("record.rname").unwrap_err();
        assert!(err.contains("record.rename") && err.contains("modes:"));
        // The per-kind sites of the three-framing store are gone: each is
        // an unknown site, rejected with the catalog.
        for gone in ["entry.write", "blob.rename", "ckpt.rename"] {
            let err = Site::parse(gone).unwrap_err();
            assert!(err.contains(&format!("unknown failpoint site '{gone}'")));
            assert!(err.contains("record.write") && err.contains("modes:"));
        }
    }

    #[test]
    fn specs_parse_and_validate_mode_stage_pairs() {
        let spec = FailSpec::parse("record.rename:crash").unwrap();
        assert_eq!(spec.site, Site::Rename);
        assert_eq!(spec.mode, FailMode::Crash);
        // Default mode is crash.
        assert_eq!(
            FailSpec::parse("record.write").unwrap().mode,
            FailMode::Crash
        );
        assert_eq!(
            FailSpec::parse("record.write:torn").unwrap().mode,
            FailMode::Torn
        );
        assert!(FailSpec::parse("record.rename:torn")
            .unwrap_err()
            .contains("does not apply"));
        assert!(FailSpec::parse("record.write:melt")
            .unwrap_err()
            .contains("unknown failpoint mode"));
        assert!(FailSpec::parse("floppy.write:torn")
            .unwrap_err()
            .contains("unknown failpoint site"));
    }

    // The firing logic is tested on local plans, never through the
    // process-global `install`: other tests in this binary write entries
    // and checkpoints on other threads, and would trip a globally armed
    // plan.

    #[test]
    fn plans_fire_once_at_the_selected_occurrence() {
        let spec = FailSpec::parse("record.write:eio").unwrap();
        let mut plan = Active::new(FailPlan::new(spec, 0).with_fire_at(3));
        let site = spec.site;
        assert_eq!(plan.fire(site, 10), None);
        assert_eq!(plan.fire(Site::Sync, 10), None);
        assert_eq!(plan.fire(site, 10), None);
        assert_eq!(plan.fire(site, 10), Some(Fire::Eio));
        assert!(plan.fired);
        // One-shot: never fires again.
        assert_eq!(plan.fire(site, 10), None);
        assert_eq!(plan.seen, 3);
    }

    #[test]
    fn torn_cut_is_deterministic_and_inside_the_payload() {
        let spec = FailSpec::parse("record.write:torn").unwrap();
        let cut = |seed| {
            let mut plan = Active::new(FailPlan::new(spec, seed).with_fire_at(1));
            match plan.fire(spec.site, 100) {
                Some(Fire::Torn { keep }) => keep,
                other => panic!("expected a torn fire, got {other:?}"),
            }
        };
        for seed in 0..32 {
            let keep = cut(seed);
            assert!(keep < 100, "cut must truncate (keep={keep})");
            assert_eq!(keep, cut(seed), "same seed, same cut");
        }
    }
}
