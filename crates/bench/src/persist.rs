//! The store's atomic-write protocol, with failpoints at every stage.
//!
//! Every durable file the harness writes — a store record of any kind —
//! goes through [`write_atomic`]:
//! write the payload to a temp file, `sync_all` it, rename it onto its
//! final name, then `sync_all` the parent directory. The directory sync
//! is what makes the *rename* durable: without it a crash shortly after
//! a completed save can lose the entry even though its bytes were
//! fsynced, because the directory page naming the file never reached the
//! disk. A crash at any prefix of the protocol therefore leaves either
//! no visible file (or the previous one) or the complete new file —
//! never a partial one — and at worst an orphaned temp file for the
//! scavenger (`ResultStore::scavenge`) or `store_scrub` to collect.
//!
//! Each stage is a failpoint site (see `crate::failpoints`): a store
//! handle armed for tests makes one stage misbehave, so the
//! crash-consistency of the protocol is tested, not assumed. An unarmed
//! handle's failpoint never fires.

use std::io::Write as _;
use std::path::Path;

use crate::failpoints::{Failpoint, Fire, Site};

/// Temp-file name prefix of the protocol. Final files never start with a
/// dot, so anything matching it is in-flight — or, once its writer has
/// died, an orphan.
pub(crate) const TMP_PREFIX: &str = ".tmp-";

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

/// Writes `bytes` to `dst` atomically and durably: temp write, file
/// fsync, rename, directory fsync — consulting `failpoint` at each stage.
/// The temp file is `.tmp-{name}-{pid}` beside `dst`, so writers of
/// different files, or of one file in different processes, never share
/// one.
///
/// On error the temp file is deliberately left in place (a crashed real
/// writer could not clean up either); the scavenger and `store_scrub`
/// collect such orphans.
pub(crate) fn write_atomic(dst: &Path, bytes: &[u8], failpoint: &Failpoint) -> std::io::Result<()> {
    let dir = dst.parent().expect("a store record path has a directory");
    let name = dst
        .file_name()
        .expect("a store record path has a file name");
    let tmp = dir.join(format!(
        "{TMP_PREFIX}{}-{}",
        name.to_string_lossy(),
        std::process::id()
    ));
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::File::create(&tmp)?;
    match failpoint.fire(Site::Write, bytes.len()) {
        Some(fire @ Fire::Torn { keep }) => {
            f.write_all(&bytes[..keep])?;
            let _ = f.sync_all();
            return Err(fire.error(Site::Write));
        }
        Some(Fire::Short { keep }) => f.write_all(&bytes[..keep])?,
        Some(fire @ (Fire::Crash | Fire::Eio)) => return Err(fire.error(Site::Write)),
        None | Some(Fire::DropSync) => f.write_all(bytes)?,
    }
    match failpoint.fire(Site::Sync, 0) {
        Some(Fire::DropSync) => {}
        Some(fire @ (Fire::Crash | Fire::Eio)) => return Err(fire.error(Site::Sync)),
        None | Some(Fire::Torn { .. } | Fire::Short { .. }) => f.sync_all()?,
    }
    drop(f);
    match failpoint.fire(Site::Rename, 0) {
        Some(fire @ (Fire::Crash | Fire::Eio)) => return Err(fire.error(Site::Rename)),
        None | Some(_) => std::fs::rename(&tmp, dst)?,
    }
    match failpoint.fire(Site::DirSync, 0) {
        Some(Fire::DropSync) => Ok(()),
        // The rename already happened: a crash or EIO here leaves a
        // complete, valid record whose durability is merely unproven.
        Some(fire @ (Fire::Crash | Fire::Eio)) => Err(fire.error(Site::DirSync)),
        None | Some(_) => sync_dir(dir),
    }
}
