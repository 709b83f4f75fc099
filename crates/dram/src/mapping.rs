//! Physical address to DRAM coordinate mapping.

use crate::BlockAddr;

/// Row-interleaved block → (bank, row, column) mapping, as in the paper's
/// DRAM controller ("open row, row interleaving"): consecutive blocks fill a
/// row, consecutive rows stripe across banks.
///
/// This is also the mapping the DBI itself assumes: the DBI's *row id*
/// (`block / granularity`) identifies one DRAM row exactly when the DBI
/// granularity equals `blocks_per_row` (the paper's default uses granularity
/// 64 with 128-block rows, i.e. one entry per half-row).
///
/// When the device has bank groups (`DramConfig::bank_groups`), banks are
/// numbered group-interleaved — bank `b` belongs to group
/// `b % bank_groups` ([`AddressMapping::bank_group`]) — so the row stripe
/// that walks banks `0, 1, 2, …` also alternates bank groups. Consecutive
/// DRAM rows therefore land in different groups, and a drain that walks
/// row batches in order issues its activates cross-group (tRRD_S apart)
/// rather than same-group (tRRD_L apart).
///
/// # Example
///
/// ```
/// use dram_sim::AddressMapping;
///
/// let m = AddressMapping::new(8, 128);
/// let row = m.global_row(128 * 9 + 5); // block 5 of global row 9
/// assert_eq!(row, 9);
/// let bank = (row % u64::from(m.banks())) as u32; // second trip around the banks
/// assert_eq!(bank, 1);
/// assert_eq!(AddressMapping::bank_group(bank, 4), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    banks: u32,
    blocks_per_row: u32,
}

impl AddressMapping {
    /// Creates a mapping with `banks` banks and `blocks_per_row` blocks per
    /// DRAM row.
    ///
    /// Degenerate parameters (zero banks or zero blocks per row) are
    /// representable — a `DramConfig` carrying them is rejected with a
    /// typed [`DramConfigError`](crate::DramConfigError) when a controller
    /// is built — but [`AddressMapping::global_row`] on such a mapping
    /// divides by zero.
    #[must_use]
    pub fn new(banks: u32, blocks_per_row: u32) -> Self {
        AddressMapping {
            banks,
            blocks_per_row,
        }
    }

    /// Number of banks.
    #[must_use]
    pub fn banks(&self) -> u32 {
        self.banks
    }

    /// Blocks per DRAM row.
    #[must_use]
    pub fn blocks_per_row(&self) -> u32 {
        self.blocks_per_row
    }

    /// The bank group of `bank` when the device's banks are divided into
    /// `bank_groups` groups: banks are numbered group-interleaved, so
    /// consecutive banks (and with them consecutive rows of the stripe)
    /// alternate groups.
    #[must_use]
    pub fn bank_group(bank: u32, bank_groups: u32) -> u32 {
        bank % bank_groups
    }

    /// The global row id of `block` (bank and row combined) — blocks with
    /// equal global rows are spatially co-located in one row buffer.
    ///
    /// # Panics
    ///
    /// Divides by zero on a degenerate mapping (zero blocks per row) —
    /// build controllers through
    /// [`MemoryController::try_new`](crate::MemoryController::try_new) to
    /// reject those configurations up front.
    #[must_use]
    pub fn global_row(&self, block: BlockAddr) -> u64 {
        block / u64::from(self.blocks_per_row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Where a block lives in a one-channel DRAM: the stripe the
    /// controller routes by.
    struct Location {
        bank: u32,
        row: u64,
        col: u32,
    }

    fn locate(m: &AddressMapping, block: BlockAddr) -> Location {
        let global_row = m.global_row(block);
        Location {
            bank: (global_row % u64::from(m.banks())) as u32,
            row: global_row / u64::from(m.banks()),
            col: (block % u64::from(m.blocks_per_row())) as u32,
        }
    }

    #[test]
    fn co_located_blocks_share_bank_and_row() {
        let m = AddressMapping::new(8, 128);
        let a = locate(&m, 1000);
        let b = locate(&m, 1001);
        assert_eq!(a.bank, b.bank);
        assert_eq!(a.row, b.row);
        assert_eq!(a.col + 1, b.col);
        assert_eq!(m.global_row(1000), m.global_row(1001));
    }

    #[test]
    fn consecutive_rows_stripe_across_banks() {
        let m = AddressMapping::new(8, 128);
        for r in 0..16u64 {
            let loc = locate(&m, r * 128);
            assert_eq!(u64::from(loc.bank), r % 8);
            assert_eq!(loc.row, r / 8);
            assert_eq!(loc.col, 0);
        }
    }

    #[test]
    fn global_row_changes_at_row_boundary() {
        let m = AddressMapping::new(8, 128);
        assert_eq!(m.global_row(127), 0);
        assert_eq!(m.global_row(128), 1);
    }

    #[test]
    fn consecutive_banks_alternate_groups() {
        // 8 banks in 4 groups: groups cycle 0,1,2,3,0,1,2,3 — adjacent
        // banks (hence adjacent rows of the stripe) never share a group.
        let groups: Vec<u32> = (0..8).map(|b| AddressMapping::bank_group(b, 4)).collect();
        assert_eq!(groups, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        for w in groups.windows(2) {
            assert_ne!(w[0], w[1]);
        }
        // One group degenerates to "everything is group 0".
        assert!((0..8).all(|b| AddressMapping::bank_group(b, 1) == 0));
    }
}
