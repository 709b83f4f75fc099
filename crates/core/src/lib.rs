//! # dbi — The Dirty-Block Index
//!
//! A from-scratch implementation of the Dirty-Block Index (DBI) proposed by
//! Seshadri et al. in *The Dirty-Block Index* (ISCA 2014).
//!
//! Conventional writeback caches keep one dirty bit per block inside the tag
//! store, so answering "is block B dirty?" — or worse, "which blocks of DRAM
//! row R are dirty?" — costs full tag-store lookups. The DBI removes the
//! dirty bits from the tag store and organizes them in a small separate
//! structure indexed by **DRAM row**: each entry holds a row tag and a bit
//! vector with one bit per block of that row.
//!
//! A cache block is dirty **if and only if** the DBI holds a valid entry for
//! the block's DRAM row and the block's bit in that entry is set. Evicting a
//! DBI entry therefore forces the blocks it marks dirty to be written back
//! (the cache blocks themselves stay resident, transitioning dirty → clean).
//!
//! This crate is a pure data-structure library: it models the DBI's state,
//! geometry ([`DbiConfig`]), replacement policies ([`DbiReplacementPolicy`]),
//! and eviction semantics, and it counts the events a timing simulator needs
//! ([`DbiStats`]). The cycle-level behaviour (latencies, port contention)
//! lives in the `system-sim` crate of this workspace.
//!
//! # Example
//!
//! ```
//! use dbi::{Dbi, DbiConfig};
//!
//! # fn main() -> Result<(), dbi::DbiConfigError> {
//! // Paper defaults for a 2 MB cache with 64 B blocks (32 Ki blocks):
//! // alpha = 1/4, granularity 64, 16-way, LRW replacement.
//! let mut dbi = Dbi::new(DbiConfig::for_cache_blocks(32 * 1024)?);
//!
//! // A writeback request for block 5 of DRAM row 3 marks it dirty.
//! let mut writebacks = Vec::new(); // filled only by a DBI eviction
//! assert!(dbi.mark_dirty(3 * 64 + 5, &mut writebacks));
//! assert!(writebacks.is_empty());
//! assert!(dbi.is_dirty(3 * 64 + 5));
//!
//! // The same entry answers "which blocks of row 3 are dirty?" in one query.
//! let dirty: Vec<u64> = dbi.row_dirty_blocks(3 * 64).collect();
//! assert_eq!(dirty, vec![3 * 64 + 5]);
//! # Ok(())
//! # }
//! ```

mod config;
mod dbi;
mod replacement;
pub mod snap;
mod stats;
mod words;

pub use crate::config::{Alpha, DbiConfig, DbiConfigError};
pub use crate::dbi::Dbi;
pub use crate::replacement::{DbiReplacementPolicy, BIP_EPSILON_RECIPROCAL};
pub use crate::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
pub use crate::stats::DbiStats;
pub use crate::words::{DirtyWords, WordOnes, MAX_BITS};

/// Index of a cache block in the physical address space.
///
/// Block addresses are byte addresses shifted right by `log2(block size)`;
/// the DBI never needs the block size itself, only the row granularity.
pub type BlockAddr = u64;

/// Index of a DRAM row (block address divided by the DBI granularity).
pub type RowId = u64;
