//! Bit-storage accounting (paper Table 4 and Section 6.3).
//!
//! The conventional organization stores, per block: tag, valid bit, dirty
//! bit, replacement state, and (when ECC is enabled) a SECDED code over the
//! 64-byte data (12.5% = 64 bits). The DBI organization removes the dirty
//! bit, stores only a parity EDC (1.5% = 8 bits) per block, holds the dirty
//! bits in the DBI, and keeps SECDED ECC only for the `alpha` fraction of
//! blocks the DBI tracks.

use dbi::{Alpha, DbiConfig, DbiReplacementPolicy};

/// Physical address width assumed for tag sizing (the paper does not state
/// one; 40 bits covers a 1 TB physical space and is typical of the era).
pub const PHYS_ADDR_BITS: u32 = 40;

/// Error-protection configuration of the data store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccMode {
    /// No error protection.
    None,
    /// SECDED over each 64-bit word: 8 ECC bits per word, 64 bits per
    /// 64-byte block (12.5% overhead).
    Secded,
}

/// Parity error-detection bits per block under the DBI organization
/// (1 parity bit per 64-bit word = 8 bits per block, the paper's 1.5%).
pub const EDC_BITS_PER_BLOCK: u64 = 8;

/// SECDED bits per 64-byte block (12.5%).
pub const SECDED_BITS_PER_BLOCK: u64 = 64;

/// Geometry of the cache whose metadata is being accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStorage {
    capacity_bytes: u64,
    ways: u64,
    block_bytes: u64,
}

impl CacheStorage {
    /// Creates a geometry description.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or the geometry is ragged.
    #[must_use]
    pub fn new(capacity_bytes: u64, ways: u64, block_bytes: u64) -> Self {
        assert!(capacity_bytes > 0 && ways > 0 && block_bytes > 0);
        let blocks = capacity_bytes / block_bytes;
        assert!(blocks.is_multiple_of(ways), "ragged cache geometry");
        CacheStorage {
            capacity_bytes,
            ways,
            block_bytes,
        }
    }

    /// The paper's LLC geometry for a given capacity: 64 B blocks, 16 ways
    /// at 2 MB, 32 ways above.
    #[must_use]
    pub fn paper_cache(capacity_bytes: u64) -> Self {
        let ways = if capacity_bytes <= 2 * 1024 * 1024 {
            16
        } else {
            32
        };
        CacheStorage::new(capacity_bytes, ways, 64)
    }

    /// Number of blocks.
    #[must_use]
    pub fn blocks(&self) -> u64 {
        self.capacity_bytes / self.block_bytes
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.blocks() / self.ways
    }

    /// Data-store bits.
    #[must_use]
    pub fn data_bits(&self) -> u64 {
        self.capacity_bytes * 8
    }

    /// Tag bits per block: physical block-address bits minus set-index
    /// bits.
    fn tag_bits_per_block(&self) -> u64 {
        let block_addr_bits = u64::from(PHYS_ADDR_BITS) - self.block_bytes.ilog2() as u64;
        block_addr_bits - self.sets().ilog2() as u64
    }

    /// Replacement-state bits per block (log2 of associativity, an LRU
    /// stack position).
    fn repl_bits_per_block(&self) -> u64 {
        u64::from(self.ways.ilog2())
    }

    /// Conventional tag-store bits: per block, tag + valid + dirty +
    /// replacement state, plus SECDED ECC when enabled (the paper stores
    /// ECC in the main tag store — Table 4 footnote).
    #[must_use]
    pub fn conventional_tag_store_bits(&self, ecc: EccMode) -> u64 {
        let per_block = self.tag_bits_per_block()
            + 1 // valid
            + 1 // dirty
            + self.repl_bits_per_block()
            + match ecc {
                EccMode::None => 0,
                EccMode::Secded => SECDED_BITS_PER_BLOCK,
            };
        self.blocks() * per_block
    }

    /// DBI-organization tag-store bits: the dirty bit leaves the tag entry;
    /// with ECC enabled each block keeps only parity EDC, and SECDED is
    /// held for the DBI-tracked fraction (counted in [`dbi_bits`]).
    ///
    /// [`dbi_bits`]: CacheStorage::dbi_bits
    #[must_use]
    pub fn dbi_tag_store_bits(&self, ecc: EccMode) -> u64 {
        let per_block = self.tag_bits_per_block()
            + 1 // valid
            + self.repl_bits_per_block()
            + match ecc {
                EccMode::None => 0,
                EccMode::Secded => EDC_BITS_PER_BLOCK,
            };
        self.blocks() * per_block
    }

    /// Builds the DBI geometry for this cache.
    ///
    /// # Panics
    ///
    /// Panics on degenerate DBI geometry (validated paper configurations
    /// never are).
    #[must_use]
    pub fn dbi_config(&self, alpha: Alpha, granularity: usize) -> DbiConfig {
        DbiConfig::new(
            self.blocks(),
            alpha,
            granularity,
            16,
            DbiReplacementPolicy::Lrw,
        )
        .expect("valid DBI geometry")
    }

    /// Bits of the DBI structure itself: per entry, valid + row tag +
    /// dirty bit-vector + LRW state; plus SECDED ECC for every tracked
    /// block when ECC is enabled.
    #[must_use]
    pub fn dbi_bits(&self, alpha: Alpha, granularity: usize, ecc: EccMode) -> u64 {
        let config = self.dbi_config(alpha, granularity);
        let row_addr_bits = u64::from(PHYS_ADDR_BITS)
            - self.block_bytes.ilog2() as u64
            - granularity.ilog2() as u64;
        let row_tag_bits = row_addr_bits - config.sets().ilog2() as u64;
        let repl_bits = u64::from(config.associativity().ilog2());
        let per_entry = 1 + row_tag_bits + granularity as u64 + repl_bits;
        let structure = config.entries() * per_entry;
        let ecc_bits = match ecc {
            EccMode::None => 0,
            EccMode::Secded => config.tracked_blocks() * SECDED_BITS_PER_BLOCK,
        };
        structure + ecc_bits
    }

    /// Side-by-side accounting of the two organizations (one Table 4 row).
    #[must_use]
    pub fn compare(&self, alpha: Alpha, granularity: usize, ecc: EccMode) -> StorageComparison {
        let conventional_tag = self.conventional_tag_store_bits(ecc);
        let dbi_tag = self.dbi_tag_store_bits(ecc);
        let dbi = self.dbi_bits(alpha, granularity, ecc);
        StorageComparison {
            conventional_tag_bits: conventional_tag,
            dbi_tag_bits: dbi_tag,
            dbi_bits: dbi,
            data_bits: self.data_bits(),
        }
    }
}

/// Bit totals of the two metadata organizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageComparison {
    /// Conventional tag store (incl. dirty bits and ECC when enabled).
    pub conventional_tag_bits: u64,
    /// DBI-organization tag store (no dirty bits; EDC when ECC enabled).
    pub dbi_tag_bits: u64,
    /// The DBI structure (+ tracked-block ECC when enabled).
    pub dbi_bits: u64,
    /// Data-store bits (identical in both organizations).
    pub data_bits: u64,
}

impl StorageComparison {
    /// Metadata bits of the DBI organization (tag store + DBI).
    #[must_use]
    pub fn dbi_metadata_bits(&self) -> u64 {
        self.dbi_tag_bits + self.dbi_bits
    }

    /// Fractional reduction in tag-store bit cost (paper Table 4, "Tag
    /// Store" column; the DBI structure counts against the savings).
    #[must_use]
    pub fn tag_store_reduction(&self) -> f64 {
        1.0 - self.dbi_metadata_bits() as f64 / self.conventional_tag_bits as f64
    }

    /// Fractional reduction in overall cache bit cost (Table 4, "Cache").
    #[must_use]
    pub fn cache_reduction(&self) -> f64 {
        let conventional = self.conventional_tag_bits + self.data_bits;
        let with_dbi = self.dbi_metadata_bits() + self.data_bits;
        1.0 - with_dbi as f64 / conventional as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mb(n: u64) -> u64 {
        n * 1024 * 1024
    }

    #[test]
    fn paper_table4_alpha_quarter_with_ecc() {
        // Paper: alpha = 1/4, with ECC: tag store -44%, cache -7%.
        let c = CacheStorage::paper_cache(mb(2)).compare(Alpha::QUARTER, 64, EccMode::Secded);
        let tag = c.tag_store_reduction();
        let cache = c.cache_reduction();
        assert!((0.40..=0.48).contains(&tag), "tag reduction {tag:.3}");
        assert!(
            (0.055..=0.085).contains(&cache),
            "cache reduction {cache:.3}"
        );
    }

    #[test]
    fn paper_table4_alpha_half_with_ecc() {
        // Paper: alpha = 1/2, with ECC: tag store -26%, cache -4%.
        let c = CacheStorage::paper_cache(mb(2)).compare(Alpha::HALF, 64, EccMode::Secded);
        let tag = c.tag_store_reduction();
        let cache = c.cache_reduction();
        assert!((0.22..=0.30).contains(&tag), "tag reduction {tag:.3}");
        assert!(
            (0.03..=0.055).contains(&cache),
            "cache reduction {cache:.3}"
        );
    }

    #[test]
    fn paper_table4_without_ecc() {
        // Paper: alpha = 1/4, no ECC: tag store -2%, cache -0.1%.
        let c = CacheStorage::paper_cache(mb(2)).compare(Alpha::QUARTER, 64, EccMode::None);
        let tag = c.tag_store_reduction();
        let cache = c.cache_reduction();
        assert!((0.005..=0.04).contains(&tag), "tag reduction {tag:.3}");
        assert!((0.0..=0.005).contains(&cache), "cache reduction {cache:.3}");

        // alpha = 1/2 saves less (bigger DBI).
        let half = CacheStorage::paper_cache(mb(2)).compare(Alpha::HALF, 64, EccMode::None);
        assert!(half.tag_store_reduction() < tag);
        assert!(half.tag_store_reduction() > 0.0);
    }

    #[test]
    fn reduction_is_scale_invariant() {
        // Paper: "the storage savings ... is roughly independent of the
        // cache size" (the DBI scales with the cache).
        let small = CacheStorage::paper_cache(mb(2)).compare(Alpha::QUARTER, 64, EccMode::Secded);
        let large = CacheStorage::paper_cache(mb(16)).compare(Alpha::QUARTER, 64, EccMode::Secded);
        assert!(
            (small.tag_store_reduction() - large.tag_store_reduction()).abs() < 0.03,
            "2 MB {:.3} vs 16 MB {:.3}",
            small.tag_store_reduction(),
            large.tag_store_reduction()
        );
    }

    #[test]
    fn dirty_bits_equal_block_count() {
        // Sanity: removing the dirty bit saves exactly one bit per block.
        let s = CacheStorage::paper_cache(mb(2));
        let diff =
            s.conventional_tag_store_bits(EccMode::None) - s.dbi_tag_store_bits(EccMode::None);
        assert_eq!(diff, s.blocks());
    }

    #[test]
    fn dbi_structure_is_small() {
        // The DBI itself is well under 1% of the data store.
        let s = CacheStorage::paper_cache(mb(2));
        let dbi = s.dbi_bits(Alpha::QUARTER, 64, EccMode::None);
        assert!((dbi as f64) < 0.01 * s.data_bits() as f64);
    }

    #[test]
    fn geometry_accessors() {
        let s = CacheStorage::paper_cache(mb(2));
        assert_eq!(s.blocks(), 32 * 1024);
        assert_eq!(s.sets(), 2048);
        assert_eq!(s.tag_bits_per_block(), 34 - 11);
        assert_eq!(s.repl_bits_per_block(), 4);
    }
}
