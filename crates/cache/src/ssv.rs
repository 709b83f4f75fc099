//! The Set State Vector (SSV), the filtering substrate of the Virtual Write
//! Queue baseline.
//!
//! The Virtual Write Queue (Stuecheli et al., ISCA 2010) sweeps the tag
//! store for dirty blocks of a DRAM row when a dirty block is evicted, but
//! filters the sweep with a one-bit-per-set *Set State Vector*: a set is
//! probed only if its SSV bit says it holds dirty blocks in its LRU ways.
//! The DBI paper reports this filter is only mildly effective (1.88× tag
//! lookups vs. DAWB's 1.95× — Section 6.1) because the bit is conservative
//! and the sweep re-probes sets repeatedly.

use dbi::DirtyWords;

use crate::{BlockAddr, Cache, SetIdx};

/// A one-bit-per-set summary: "does this set hold dirty blocks among its
/// `tracked_ways` least-recently-used ways?" — stored as a packed
/// [`DirtyWords`] bitmap, the same word-level storage the dirty index it is
/// refreshed from uses.
///
/// The vector is a *hint* maintained beside the cache; [`refresh`] recomputes
/// a set's bit from the cache's ground truth, which is how the hardware's
/// update-on-access behaviour is modelled here.
///
/// [`refresh`]: SetStateVector::refresh
#[derive(Debug, Clone)]
pub struct SetStateVector {
    words: DirtyWords,
    tracked_ways: usize,
}

impl SetStateVector {
    /// Creates an all-clear SSV for `sets` sets, tracking the `tracked_ways`
    /// ways closest to eviction (VWQ uses the LRU quarter of the set).
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `tracked_ways` is zero.
    #[must_use]
    pub fn new(sets: u64, tracked_ways: usize) -> Self {
        assert!(sets > 0, "SSV needs at least one set");
        assert!(tracked_ways > 0, "SSV must track at least one way");
        SetStateVector {
            words: DirtyWords::new(sets),
            tracked_ways,
        }
    }

    /// Ways from the LRU position this SSV summarizes.
    #[must_use]
    pub fn tracked_ways(&self) -> usize {
        self.tracked_ways
    }

    /// The SSV bit for `set`.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[must_use]
    #[inline]
    pub fn is_marked(&self, set: SetIdx) -> bool {
        assert!(set.raw() < self.words.bits(), "set {set} out of SSV range");
        self.words.get(set.raw())
    }

    /// Recomputes the bit for the set containing `probe` from the cache's
    /// current contents, returning the new value.
    #[inline]
    pub fn refresh(&mut self, cache: &Cache, probe: BlockAddr) -> bool {
        let set = cache.set_of(probe);
        // One word load in the clean-set common case; never the heap.
        let marked = !cache.dirty().in_lru_ways(set, self.tracked_ways).is_empty();
        self.words.assign(set.raw(), marked);
        marked
    }
}

impl dbi::snap::Snapshot for SetStateVector {
    fn snapshot(&self, w: &mut dbi::snap::SnapWriter) {
        w.usize(self.tracked_ways);
        self.words.snapshot(w);
    }

    fn restore(&mut self, r: &mut dbi::snap::SnapReader<'_>) -> Result<(), dbi::snap::SnapError> {
        r.expect_len("SSV tracked ways", self.tracked_ways)?;
        // DirtyWords::restore rejects set bits past the last set.
        self.words.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheConfig, InsertPos};

    fn cache() -> Cache {
        // 4 sets x 4 ways.
        Cache::new(CacheConfig::new(4 * 4 * 64, 4, 64).unwrap())
    }

    #[test]
    fn starts_clear() {
        let ssv = SetStateVector::new(4, 1);
        for s in 0..4 {
            assert!(!ssv.is_marked(SetIdx(s)));
        }
        assert_eq!(ssv.words.count_ones(), 0);
    }

    #[test]
    fn refresh_tracks_dirty_lru_ways() {
        let mut c = cache();
        let mut ssv = SetStateVector::new(4, 1);
        // Set 0: dirty block at LRU position.
        c.insert(0, 0, InsertPos::Mru, true);
        c.insert(4, 0, InsertPos::Mru, false);
        assert!(ssv.refresh(&c, 0));
        assert!(ssv.is_marked(SetIdx(0)));
        // Promote the dirty block to MRU: bit clears.
        c.touch(0);
        assert!(!ssv.refresh(&c, 0));
        assert_eq!(ssv.words.count_ones(), 0);
    }

    #[test]
    fn clean_lru_blocks_do_not_mark() {
        let mut c = cache();
        let mut ssv = SetStateVector::new(4, 2);
        c.insert(1, 0, InsertPos::Mru, false);
        c.insert(5, 0, InsertPos::Mru, true); // dirty but MRU of two
        assert!(ssv.refresh(&c, 1), "rank 1 < tracked 2: still marked");
        let mut narrow = SetStateVector::new(4, 1);
        assert!(
            !narrow.refresh(&c, 1),
            "dirty block at rank 1 invisible to a 1-way SSV"
        );
    }

    #[test]
    fn marks_survive_a_snapshot_round_trip() {
        let mut c = cache();
        let mut ssv = SetStateVector::new(4, 2);
        c.insert(0, 0, InsertPos::Mru, true);
        c.insert(3, 0, InsertPos::Mru, true);
        ssv.refresh(&c, 0);
        ssv.refresh(&c, 3);
        let bytes = dbi::snap::snapshot_bytes(&ssv);
        let mut restored = SetStateVector::new(4, 2);
        dbi::snap::restore_bytes(&mut restored, &bytes).unwrap();
        for s in 0..4 {
            assert_eq!(restored.is_marked(SetIdx(s)), ssv.is_marked(SetIdx(s)));
        }
        assert_eq!(restored.words.count_ones(), ssv.words.count_ones());
    }

    #[test]
    fn restore_rejects_padding_bits() {
        let mut w = dbi::snap::SnapWriter::new();
        w.usize(2); // tracked ways
        w.usize(4); // DirtyWords logical bits
        w.u64(0b1_0000); // bit 4 = set 4: past the last set
        let bytes = w.finish();
        let mut target = SetStateVector::new(4, 2);
        assert!(matches!(
            dbi::snap::restore_bytes(&mut target, &bytes),
            Err(dbi::snap::SnapError::Corrupt(_))
        ));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_ways_panics() {
        let _ = SetStateVector::new(4, 0);
    }
}
