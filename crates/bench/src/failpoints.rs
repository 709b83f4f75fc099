//! I/O failpoints for the persistence layer: a test seam.
//!
//! Every store entry is written by one atomic-write protocol (see the
//! `persist` module), and each of its four stages is a failpoint
//! [`Site`]. A failpoint is armed on one store handle
//! (`ResultStore::arm_failpoint`) and makes that stage misbehave once:
//!
//! - **torn write** ([`FailMode::Torn`]): the first half of the payload
//!   reaches the temp file, then the writer crashes;
//! - **short write** ([`FailMode::Short`]): a silently truncated payload
//!   that still gets renamed into place — the visible outcome of a
//!   dropped page writeback after the rename was already durable;
//! - **dropped fsync** ([`FailMode::DropSync`]): `sync_all` silently
//!   skipped;
//! - **crash** ([`FailMode::Crash`]): the writer dies immediately before
//!   the stage's action;
//! - **transient EIO** ([`FailMode::Eio`]): the stage's action fails once
//!   with an I/O error.
//!
//! A crash returns an I/O error from the store operation and leaves
//! exactly the on-disk state a kill at that point would, so one test
//! process can crash and recover at every (site, mode) pair in turn — the
//! recovery matrix (`tests/failpoint_recovery.rs`). Arbitrary torn cuts
//! are covered by the corruption tests (`tests/corruption.rs`).

use std::sync::atomic::{AtomicBool, Ordering};

/// A failpoint site: one stage of the atomic-write protocol every store
/// record goes through.
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

/// The modes injectable at `site` — the recovery matrix crosses
/// [`Site::ALL`] with this.
#[must_use]
pub fn modes_for(site: Site) -> Vec<FailMode> {
    FailMode::ALL
        .into_iter()
        .filter(|m| m.applies_at(site))
        .collect()
}

/// The failpoint of one store handle: unarmed, or one (site, mode) that
/// fires once, at the first occurrence of its site.
#[derive(Debug, Default)]
pub(crate) struct Failpoint {
    armed: Option<(Site, FailMode)>,
    fired: AtomicBool,
}

impl Failpoint {
    /// A failpoint that fires `mode` at the first occurrence of `site`.
    ///
    /// # Panics
    ///
    /// Panics if `mode` does not apply at `site`.
    pub(crate) fn armed(site: Site, mode: FailMode) -> Failpoint {
        assert!(
            mode.applies_at(site),
            "failpoint mode {mode:?} does not apply at {site:?}"
        );
        Failpoint {
            armed: Some((site, mode)),
            fired: AtomicBool::new(false),
        }
    }

    /// Whether the armed failpoint has fired.
    pub(crate) fn fired(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }

    /// The decision the protocol applies at `site`, which it just
    /// reached; `payload_len` sizes torn/short cuts. `None` = behave
    /// normally.
    pub(crate) fn fire(&self, site: Site, payload_len: usize) -> Option<Fire> {
        let (armed_site, mode) = self.armed?;
        if armed_site != site || self.fired.swap(true, Ordering::Relaxed) {
            return None;
        }
        // Cut strictly inside the payload so torn/short runs really truncate.
        let keep = payload_len / 2;
        Some(match mode {
            FailMode::Torn => Fire::Torn { keep },
            FailMode::Short => Fire::Short { keep },
            FailMode::DropSync => Fire::DropSync,
            FailMode::Crash => Fire::Crash,
            FailMode::Eio => Fire::Eio,
        })
    }
}

/// What the persistence helper does at a site where a failpoint fired.
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

impl Fire {
    /// The error the aborted store operation returns for a crash, torn
    /// write or EIO fired at `site`.
    pub(crate) fn error(self, site: Site) -> std::io::Error {
        std::io::Error::other(format!("failpoint {self:?} at {site:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_protocol_has_four_sites_and_twelve_pairs() {
        let pairs: usize = Site::ALL.iter().map(|&site| modes_for(site).len()).sum();
        assert_eq!(pairs, 12, "4 + 3 + 2 + 3 modes across the stages");
        assert!(Site::ALL.iter().all(|&site| !modes_for(site).is_empty()));
    }

    #[test]
    fn a_failpoint_fires_once_at_the_first_occurrence_of_its_site() {
        assert_eq!(Failpoint::default().fire(Site::Write, 10), None);
        let fp = Failpoint::armed(Site::Write, FailMode::Torn);
        assert_eq!(fp.fire(Site::Sync, 10), None);
        assert!(!fp.fired());
        assert_eq!(fp.fire(Site::Write, 101), Some(Fire::Torn { keep: 50 }));
        assert!(fp.fired());
        assert_eq!(fp.fire(Site::Write, 101), None, "one-shot");
    }

    #[test]
    #[should_panic(expected = "does not apply")]
    fn arming_a_mode_where_it_cannot_apply_panics() {
        let _ = Failpoint::armed(Site::Rename, FailMode::Torn);
    }
}
