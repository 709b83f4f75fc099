//! # dbi-repro — The Dirty-Block Index, reproduced in Rust
//!
//! This facade crate re-exports the whole workspace so that downstream code
//! (and this repository's root-level `examples/` and `tests/`) can reach the
//! full public API through a single dependency.
//!
//! The primary contribution lives in [`dbi`]: the Dirty-Block Index data
//! structure from Seshadri et al., *The Dirty-Block Index*, ISCA 2014. The
//! remaining crates are the substrates the paper's evaluation depends on:
//!
//! * [`cache`] — set-associative caches, replacement policies, miss
//!   predictors, and the Set State Vector used by the Virtual Write Queue
//!   baseline.
//! * [`dram`] — a DDR3-like main-memory timing and energy model with
//!   per-bank row buffers and a drain-when-full write buffer.
//! * [`trace`] — deterministic synthetic workload generators standing in
//!   for the paper's SPEC CPU2006 / STREAM traces.
//! * [`sim`] — the system simulator: cores, the three-level hierarchy, all
//!   nine LLC mechanisms of the paper's Table 2, and the evaluation metrics.
//! * [`area`] — an analytical CACTI-substitute area/power model used for
//!   the storage and power results (paper Tables 4 and 5).
//!
//! # Example
//!
//! ```
//! use dbi_repro::dbi::{Dbi, DbiConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A DBI sized for a 2 MB cache (32768 blocks), alpha = 1/4.
//! let config = DbiConfig::for_cache_blocks(32 * 1024)?;
//! let mut dbi = Dbi::new(config);
//!
//! // Mark block 5 of DRAM row 3 dirty, then query it back. No DBI entry
//! // was evicted, so no writeback was forced.
//! let mut writebacks = Vec::new();
//! assert!(dbi.mark_dirty(3 * 128 + 5, &mut writebacks));
//! assert!(writebacks.is_empty());
//! assert!(dbi.is_dirty(3 * 128 + 5));
//! # Ok(())
//! # }
//! ```

pub use area_model as area;
pub use cache_sim as cache;
pub use dbi;
pub use dram_sim as dram;
pub use system_sim as sim;
pub use trace_gen as trace;
