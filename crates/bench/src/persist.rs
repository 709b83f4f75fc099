//! The store's atomic-write protocol, with failpoints at every stage.
//!
//! Every durable file the harness writes — store entries, scenario
//! blobs, checkpoints — goes through [`write_atomic`]:
//! write the payload to a temp file, `sync_all` it, rename it onto its
//! final name, then `sync_all` the parent directory. The directory sync
//! is what makes the *rename* durable: without it a crash shortly after
//! a completed save can lose the entry even though its bytes were
//! fsynced, because the directory page naming the file never reached the
//! disk. A crash at any prefix of the protocol therefore leaves either
//! no visible file or the complete new file — never a partial one — and
//! at worst an orphaned temp file for the scavenger
//! (`ResultStore::scavenge`) or `store_scrub` to collect.
//!
//! Each stage is a registered failpoint site (`crate::failpoints`), so
//! the crash-consistency of the protocol is tested, not assumed.

use std::io::Write as _;
use std::path::Path;

use crate::failpoints::{self, Fire, Group, Site, Stage};

/// Fsyncs a directory so renames inside it are durable. A no-op on
/// platforms where directories cannot be opened for syncing.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::fs::File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// Writes `bytes` to `dst` atomically and durably via `tmp`: temp write,
/// file fsync, rename, directory fsync — with a failpoint at each stage
/// under `group`'s site names.
///
/// On error the temp file is deliberately left in place (a crashed real
/// writer could not clean up either); the scavenger and `store_scrub`
/// collect such orphans.
pub(crate) fn write_atomic(
    group: Group,
    dir: &Path,
    tmp: &Path,
    dst: &Path,
    bytes: &[u8],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::File::create(tmp)?;
    let write = Site::new(group, Stage::Write);
    match failpoints::fire(write, bytes.len()) {
        Some(Fire::Torn { keep }) => {
            f.write_all(&bytes[..keep])?;
            let _ = f.sync_all();
            return Err(failpoints::crash(write));
        }
        Some(Fire::Short { keep }) => f.write_all(&bytes[..keep])?,
        Some(Fire::Crash) => return Err(failpoints::crash(write)),
        Some(Fire::Eio) => return Err(failpoints::eio(write)),
        None | Some(Fire::DropSync) => f.write_all(bytes)?,
    }
    let sync = Site::new(group, Stage::Sync);
    match failpoints::fire(sync, 0) {
        Some(Fire::DropSync) => {}
        Some(Fire::Crash) => return Err(failpoints::crash(sync)),
        Some(Fire::Eio) => return Err(failpoints::eio(sync)),
        None | Some(Fire::Torn { .. } | Fire::Short { .. }) => f.sync_all()?,
    }
    drop(f);
    let rename = Site::new(group, Stage::Rename);
    match failpoints::fire(rename, 0) {
        Some(Fire::Crash) => return Err(failpoints::crash(rename)),
        Some(Fire::Eio) => return Err(failpoints::eio(rename)),
        None | Some(_) => std::fs::rename(tmp, dst)?,
    }
    let dirsync = Site::new(group, Stage::DirSync);
    match failpoints::fire(dirsync, 0) {
        Some(Fire::DropSync) => Ok(()),
        // The rename already happened: a crash or EIO here leaves a
        // complete, valid entry whose durability is merely unproven.
        Some(Fire::Crash) => Err(failpoints::crash(dirsync)),
        Some(Fire::Eio) => Err(failpoints::eio(dirsync)),
        None | Some(_) => sync_dir(dir),
    }
}
