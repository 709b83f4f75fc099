//! Shadow-memory functional checker.
//!
//! The correctness contract every mechanism must honour is the one the
//! paper states for DBI evictions (Section 2.2.4): dirty data must never be
//! silently lost — after the hierarchy is fully flushed, main memory must
//! hold the newest version of every block the program ever stored to.
//!
//! The checker tracks a version counter per block: stores bump it, DRAM
//! writes publish it (a writeback always carries the newest data resident in
//! the hierarchy). At verification, any block whose newest version never
//! reached DRAM is a lost write.

use std::collections::HashMap;

/// Tracks store versions against the versions that reached DRAM.
#[derive(Debug, Default, Clone)]
pub struct VersionChecker {
    latest: HashMap<u64, u64>,
    in_dram: HashMap<u64, u64>,
}

/// One lost-write violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LostWrite {
    /// The block whose data was lost.
    pub block: u64,
    /// Newest version the program wrote.
    pub latest_version: u64,
    /// Version that reached DRAM (0 = never written back).
    pub dram_version: u64,
}

impl VersionChecker {
    /// Creates an empty checker.
    #[must_use]
    pub fn new() -> Self {
        VersionChecker::default()
    }

    /// Records a store to `block` (a new version of its data now exists
    /// only in the hierarchy).
    pub fn record_store(&mut self, block: u64) {
        *self.latest.entry(block).or_insert(0) += 1;
    }

    /// Records a writeback of `block` reaching the memory controller.
    ///
    /// Blocks the program never stored to are ignored: a clean writeback
    /// (e.g. a sweep of a warmup-dirtied block) carries no version to
    /// publish, and recording a phantom version-0 entry for it would only
    /// grow `in_dram` with blocks `verify` never consults.
    pub fn record_dram_write(&mut self, block: u64) {
        if let Some(&v) = self.latest.get(&block) {
            self.in_dram.insert(block, v);
        }
    }

    /// Verifies that every stored block's newest version reached DRAM.
    ///
    /// # Errors
    ///
    /// Returns the list of lost writes, ordered by block address.
    pub fn verify(&self) -> Result<(), Vec<LostWrite>> {
        let mut lost: Vec<LostWrite> = self
            .latest
            .iter()
            .filter_map(|(&block, &latest_version)| {
                let dram_version = self.in_dram.get(&block).copied().unwrap_or(0);
                (dram_version != latest_version).then_some(LostWrite {
                    block,
                    latest_version,
                    dram_version,
                })
            })
            .collect();
        if lost.is_empty() {
            Ok(())
        } else {
            lost.sort_by_key(|l| l.block);
            Err(lost)
        }
    }
}

fn snapshot_map(map: &HashMap<u64, u64>, w: &mut dbi::snap::SnapWriter) {
    // Hash iteration order is nondeterministic; sort so identical checker
    // states always produce identical bytes.
    let mut entries: Vec<(u64, u64)> = map.iter().map(|(&k, &v)| (k, v)).collect();
    entries.sort_unstable();
    w.usize(entries.len());
    for (k, v) in entries {
        w.u64(k);
        w.u64(v);
    }
}

fn restore_map(
    map: &mut HashMap<u64, u64>,
    r: &mut dbi::snap::SnapReader<'_>,
) -> Result<(), dbi::snap::SnapError> {
    let n = r.usize()?;
    map.clear();
    for _ in 0..n {
        let k = r.u64()?;
        let v = r.u64()?;
        if map.insert(k, v).is_some() {
            return Err(dbi::snap::SnapError::Corrupt(format!(
                "duplicate checker entry for block {k}"
            )));
        }
    }
    Ok(())
}

impl dbi::snap::Snapshot for VersionChecker {
    fn snapshot(&self, w: &mut dbi::snap::SnapWriter) {
        snapshot_map(&self.latest, w);
        snapshot_map(&self.in_dram, w);
    }

    fn restore(&mut self, r: &mut dbi::snap::SnapReader<'_>) -> Result<(), dbi::snap::SnapError> {
        restore_map(&mut self.latest, r)?;
        restore_map(&mut self.in_dram, r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_verifies() {
        let mut c = VersionChecker::new();
        c.record_store(5);
        c.record_store(5);
        c.record_dram_write(5);
        assert!(c.verify().is_ok());
        assert_eq!(c.latest.len(), 1);
    }

    #[test]
    fn missing_writeback_is_caught() {
        let mut c = VersionChecker::new();
        c.record_store(5);
        let err = c.verify().unwrap_err();
        assert_eq!(err.len(), 1);
        assert_eq!(err[0].block, 5);
        assert_eq!(err[0].latest_version, 1);
        assert_eq!(err[0].dram_version, 0);
    }

    #[test]
    fn stale_writeback_is_caught() {
        let mut c = VersionChecker::new();
        c.record_store(9);
        c.record_dram_write(9);
        c.record_store(9); // newer version never written back
        let err = c.verify().unwrap_err();
        assert_eq!(err[0].dram_version, 1);
        assert_eq!(err[0].latest_version, 2);
        // A later writeback repairs it.
        c.record_dram_write(9);
        assert!(c.verify().is_ok());
    }

    #[test]
    fn unrelated_dram_writes_are_harmless() {
        let mut c = VersionChecker::new();
        c.record_dram_write(1); // clean block written back (e.g. sweep)
        assert!(c.verify().is_ok());
    }

    #[test]
    fn untracked_writebacks_leave_no_phantom_entries() {
        let mut c = VersionChecker::new();
        c.record_dram_write(1);
        c.record_dram_write(2);
        assert_eq!(c.in_dram.len(), 0, "untracked blocks are not recorded");
        c.record_store(1);
        c.record_dram_write(1);
        assert_eq!(c.in_dram.len(), 1);
        assert!(c.verify().is_ok());
    }

    #[test]
    fn writeback_before_store_is_still_a_lost_write() {
        // A (clean) writeback precedes the first store: the store's
        // version never reaches DRAM and must be reported, not masked by
        // a stale phantom entry.
        let mut c = VersionChecker::new();
        c.record_dram_write(3);
        c.record_store(3);
        let err = c.verify().unwrap_err();
        assert_eq!(
            err,
            vec![LostWrite {
                block: 3,
                latest_version: 1,
                dram_version: 0,
            }]
        );
    }

    #[test]
    fn repeated_verify_is_idempotent() {
        let mut c = VersionChecker::new();
        c.record_store(4);
        c.record_store(8);
        c.record_dram_write(8);
        for _ in 0..3 {
            let err = c.verify().unwrap_err();
            assert_eq!(err.len(), 1);
            assert_eq!(err[0].block, 4);
        }
        c.record_dram_write(4);
        for _ in 0..3 {
            assert!(c.verify().is_ok());
        }
    }

    #[test]
    fn lost_writes_are_ordered_by_block_address() {
        let mut c = VersionChecker::new();
        for block in [42, 7, 99, 3] {
            c.record_store(block);
        }
        let blocks: Vec<u64> = c.verify().unwrap_err().iter().map(|l| l.block).collect();
        assert_eq!(blocks, vec![3, 7, 42, 99]);
    }
}
