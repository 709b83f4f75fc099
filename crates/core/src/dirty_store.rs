//! The unified `DirtyStore`: row-keyed adaptive dirty tracking at any scale.
//!
//! The [`Dbi`](crate::Dbi) bounds its population with a fixed set-associative
//! geometry — the paper's hardware budget. GB-scale scenarios (a die-stacked
//! DRAM cache with a million rows) need the same queries without the
//! eviction semantics: presence and dirty bits for
//! however many rows are live, at the smallest metadata cost the
//! representation allows. `DirtyStore` provides exactly that — a sorted map
//! from [`RowId`] to one adaptive [`DirtyContainer`] per row, created on
//! first mark and discarded when its last bit clears, so memory tracks the
//! live population instead of the address space.
//!
//! Iteration orders are fully deterministic (ascending rows, ascending
//! blocks within a row), which the bit-identical snapshot/resume and
//! warm-rerun gates rely on.

use std::collections::BTreeMap;

use crate::container::{ContainerPolicy, DirtyContainer, ReprKind, MAX_BITS};
use crate::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use crate::{BlockAddr, RowId};

/// Per-representation container census of a [`DirtyStore`], for figures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReprCensus {
    /// Rows currently using dense words.
    pub dense: u64,
    /// Rows currently using a sorted index list.
    pub sparse: u64,
    /// Rows currently using run-length encoding.
    pub rle: u64,
}

/// A row-keyed map of adaptive dirty containers — the query surface the
/// GB-scale DRAM cache and the sanitizer's shadow dirty-set share.
///
/// # Example
///
/// ```
/// use dbi::{ContainerPolicy, DirtyStore};
///
/// let mut store = DirtyStore::new(64, ContainerPolicy::Adaptive);
/// store.mark(3 * 64 + 5);
/// assert!(store.is_dirty(3 * 64 + 5));
/// assert_eq!(store.dirty_count(), 1);
/// assert_eq!(store.blocks().collect::<Vec<_>>(), vec![3 * 64 + 5]);
/// // One sparse index: 2 modeled bytes, not 8 for a dense row word.
/// assert_eq!(store.metadata_bytes(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyStore {
    granularity: usize,
    policy: ContainerPolicy,
    rows: BTreeMap<RowId, DirtyContainer>,
    count: u64,
}

impl DirtyStore {
    /// Creates an empty store tracking `granularity` blocks per row.
    ///
    /// # Panics
    ///
    /// Panics if `granularity` is zero or greater than
    /// [`MAX_BITS`](crate::MAX_BITS).
    #[must_use]
    pub fn new(granularity: usize, policy: ContainerPolicy) -> Self {
        assert!(
            granularity > 0 && granularity <= MAX_BITS,
            "DirtyStore granularity {granularity} out of range 1..={MAX_BITS}"
        );
        DirtyStore {
            granularity,
            policy,
            rows: BTreeMap::new(),
            count: 0,
        }
    }

    /// Blocks tracked per row.
    #[must_use]
    pub fn granularity(&self) -> usize {
        self.granularity
    }

    /// The container policy every row uses.
    #[must_use]
    pub fn policy(&self) -> ContainerPolicy {
        self.policy
    }

    /// Row of `block` under this store's granularity.
    #[must_use]
    pub fn row_of(&self, block: BlockAddr) -> RowId {
        block / self.granularity as u64
    }

    fn offset_of(&self, block: BlockAddr) -> usize {
        (block % self.granularity as u64) as usize
    }

    /// Marks `block`, returning `true` if it was previously clear. The
    /// block's row container is created on demand.
    pub fn mark(&mut self, block: BlockAddr) -> bool {
        let row = self.row_of(block);
        let offset = self.offset_of(block);
        let (granularity, policy) = (self.granularity, self.policy);
        let container = self
            .rows
            .entry(row)
            .or_insert_with(|| DirtyContainer::new(granularity, policy));
        let newly = container.set(offset);
        if newly {
            self.count += 1;
        }
        newly
    }

    /// Clears `block`, returning `true` if it was previously set. A row
    /// whose last bit clears is removed entirely.
    pub fn clear(&mut self, block: BlockAddr) -> bool {
        let row = self.row_of(block);
        let offset = self.offset_of(block);
        let Some(container) = self.rows.get_mut(&row) else {
            return false;
        };
        if !container.clear(offset) {
            return false;
        }
        self.count -= 1;
        if container.is_empty() {
            self.rows.remove(&row);
        }
        true
    }

    /// Returns whether `block` is marked.
    #[must_use]
    pub fn is_dirty(&self, block: BlockAddr) -> bool {
        self.rows
            .get(&self.row_of(block))
            .is_some_and(|c| c.get(self.offset_of(block)))
    }

    /// Whether the store holds a container for `block`'s row.
    #[must_use]
    pub fn contains_row(&self, block: BlockAddr) -> bool {
        self.rows.contains_key(&self.row_of(block))
    }

    /// The container of `row`, if any bit in the row is marked.
    #[must_use]
    pub fn row(&self, row: RowId) -> Option<&DirtyContainer> {
        self.rows.get(&row)
    }

    /// Number of marked blocks.
    #[must_use]
    pub fn dirty_count(&self) -> u64 {
        self.count
    }

    /// Number of rows with at least one marked block.
    #[must_use]
    pub fn row_count(&self) -> u64 {
        self.rows.len() as u64
    }

    /// Returns `true` if nothing is marked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterates over `(row, container)` pairs in ascending row order.
    pub fn rows(&self) -> impl Iterator<Item = (RowId, &DirtyContainer)> {
        self.rows.iter().map(|(&row, c)| (row, c))
    }

    /// Iterates over every marked block, ascending.
    pub fn blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        let granularity = self.granularity as u64;
        self.rows.iter().flat_map(move |(&row, c)| {
            let base = row * granularity;
            c.iter_ones().map(move |o| base + o as u64)
        })
    }

    /// Removes `row`'s container, invoking `sink` for each of its marked
    /// blocks in ascending order; returns how many there were.
    pub fn drain_row(&mut self, row: RowId, mut sink: impl FnMut(BlockAddr)) -> u64 {
        let Some(container) = self.rows.remove(&row) else {
            return 0;
        };
        let base = row * self.granularity as u64;
        let drained = container.count() as u64;
        for offset in container.iter_ones() {
            sink(base + offset as u64);
        }
        self.count -= drained;
        drained
    }

    /// Removes every row, invoking `sink` per marked block — rows ascending,
    /// blocks ascending within each row.
    pub fn drain_all(&mut self, mut sink: impl FnMut(RowId, BlockAddr)) {
        let granularity = self.granularity as u64;
        for (row, container) in std::mem::take(&mut self.rows) {
            let base = row * granularity;
            for offset in container.iter_ones() {
                sink(row, base + offset as u64);
            }
        }
        self.count = 0;
    }

    /// Clears everything without visiting it.
    pub fn clear_all(&mut self) {
        self.rows.clear();
        self.count = 0;
    }

    /// Modeled metadata bytes summed over all row containers (see
    /// [`DirtyContainer::metadata_bytes`]). Excludes the per-row tag, which
    /// costs the same under every policy.
    #[must_use]
    pub fn metadata_bytes(&self) -> u64 {
        self.rows.values().map(|c| c.metadata_bytes() as u64).sum()
    }

    /// How many rows currently use each representation.
    #[must_use]
    pub fn repr_census(&self) -> ReprCensus {
        let mut census = ReprCensus::default();
        for c in self.rows.values() {
            match c.repr_kind() {
                ReprKind::Dense => census.dense += 1,
                ReprKind::Sparse => census.sparse += 1,
                ReprKind::Rle => census.rle += 1,
            }
        }
        census
    }
}

impl Snapshot for DirtyStore {
    fn snapshot(&self, w: &mut SnapWriter) {
        w.usize(self.granularity);
        w.usize(self.rows.len());
        for (&row, container) in &self.rows {
            w.u64(row);
            container.snapshot(w);
        }
        w.u64(self.count);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_len("DirtyStore granularity", self.granularity)?;
        let n = r.usize()?;
        self.rows.clear();
        let mut total = 0u64;
        let mut prev: Option<RowId> = None;
        for _ in 0..n {
            let row = r.u64()?;
            if prev.is_some_and(|p| p >= row) {
                return Err(SnapError::Corrupt(
                    "DirtyStore rows not strictly ascending".into(),
                ));
            }
            prev = Some(row);
            let mut container = DirtyContainer::new(self.granularity, self.policy);
            container.restore(r)?;
            if container.is_empty() {
                return Err(SnapError::Corrupt(format!(
                    "DirtyStore row {row} restored with no marked blocks"
                )));
            }
            total += container.count() as u64;
            self.rows.insert(row, container);
        }
        self.count = r.u64()?;
        if self.count != total {
            return Err(SnapError::Mismatch {
                what: "DirtyStore dirty-count cache",
                expected: total,
                found: self.count,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snap::{restore_bytes, snapshot_bytes};

    #[test]
    fn mark_query_clear_lifecycle() {
        let mut s = DirtyStore::new(64, ContainerPolicy::Adaptive);
        assert!(!s.is_dirty(100));
        assert!(s.mark(100));
        assert!(!s.mark(100), "re-mark reports already-set");
        assert!(s.is_dirty(100));
        assert!(s.contains_row(100));
        assert_eq!(s.dirty_count(), 1);
        assert_eq!(s.row_count(), 1);
        assert!(s.clear(100));
        assert!(!s.clear(100));
        assert!(s.is_empty());
        assert!(!s.contains_row(100), "empty rows are discarded");
    }

    #[test]
    fn blocks_iterate_ascending_across_rows() {
        let mut s = DirtyStore::new(8, ContainerPolicy::Adaptive);
        for &b in &[71u64, 3, 40, 1, 45] {
            s.mark(b);
        }
        assert_eq!(s.blocks().collect::<Vec<_>>(), vec![1, 3, 40, 45, 71]);
        assert_eq!(s.rows().count(), 3);
    }

    #[test]
    fn drain_row_and_drain_all() {
        let mut s = DirtyStore::new(8, ContainerPolicy::Adaptive);
        for &b in &[9u64, 11, 3, 50] {
            s.mark(b);
        }
        let mut drained = Vec::new();
        assert_eq!(s.drain_row(1, |b| drained.push(b)), 2);
        assert_eq!(drained, vec![9, 11]);
        assert_eq!(s.dirty_count(), 2);
        assert_eq!(s.drain_row(1, |_| panic!("row already drained")), 0);

        let mut rest = Vec::new();
        s.drain_all(|row, b| rest.push((row, b)));
        assert_eq!(rest, vec![(0, 3), (6, 50)]);
        assert!(s.is_empty());
    }

    #[test]
    fn metadata_bytes_track_representation() {
        let mut adaptive = DirtyStore::new(512, ContainerPolicy::Adaptive);
        let mut dense = DirtyStore::new(512, ContainerPolicy::DenseOnly);
        // One scattered dirty block in each of 100 rows.
        for row in 0..100u64 {
            adaptive.mark(row * 512 + (row * 7) % 512);
            dense.mark(row * 512 + (row * 7) % 512);
        }
        assert_eq!(adaptive.metadata_bytes(), 200, "2 bytes per sparse index");
        assert_eq!(dense.metadata_bytes(), 6400, "64 bytes of words per row");
        assert_eq!(adaptive.repr_census().sparse, 100);
        assert_eq!(dense.repr_census().dense, 100);
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let mut s = DirtyStore::new(128, ContainerPolicy::Adaptive);
        for b in 0..400u64 {
            s.mark(b.wrapping_mul(2_654_435_761) % 4096);
        }
        // A streaming row to exercise the RLE representation too.
        for b in 1000 * 128..1000 * 128 + 100 {
            s.mark(b);
        }
        let bytes = snapshot_bytes(&s);
        let mut fresh = DirtyStore::new(128, ContainerPolicy::Adaptive);
        restore_bytes(&mut fresh, &bytes).unwrap();
        assert_eq!(fresh, s);
        assert_eq!(fresh.metadata_bytes(), s.metadata_bytes());
        assert_eq!(fresh.repr_census(), s.repr_census());
    }

    #[test]
    fn restore_rejects_wrong_granularity_and_forgeries() {
        let mut s = DirtyStore::new(64, ContainerPolicy::Adaptive);
        s.mark(5);
        let bytes = snapshot_bytes(&s);
        let mut wrong = DirtyStore::new(128, ContainerPolicy::Adaptive);
        assert!(matches!(
            restore_bytes(&mut wrong, &bytes),
            Err(SnapError::Mismatch { .. })
        ));

        // Forged: rows out of order.
        let mut w = SnapWriter::new();
        w.usize(64); // granularity
        w.usize(2); // two rows
        for row in [7u64, 3] {
            w.u64(row);
            w.usize(64); // container length
            w.u8(1); // sparse tag
            w.usize(1);
            w.u64(0);
        }
        w.u64(2);
        let mut fresh = DirtyStore::new(64, ContainerPolicy::Adaptive);
        assert!(matches!(
            restore_bytes(&mut fresh, &w.finish()),
            Err(SnapError::Corrupt(_))
        ));

        // Forged: a row with an empty container.
        let mut w = SnapWriter::new();
        w.usize(64);
        w.usize(1);
        w.u64(3);
        w.usize(64);
        w.u8(1); // sparse tag, zero entries
        w.usize(0);
        w.u64(0);
        let mut fresh = DirtyStore::new(64, ContainerPolicy::Adaptive);
        assert!(matches!(
            restore_bytes(&mut fresh, &w.finish()),
            Err(SnapError::Corrupt(_))
        ));
    }
}
