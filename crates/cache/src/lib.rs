//! # cache-sim — set-associative cache substrate
//!
//! The cache machinery the DBI evaluation is built on: a set-associative
//! [`Cache`] with pluggable replacement ([`ReplacementKind`]), the
//! [set-dueling](dueling::DuelingSelector) monitor behind TA-DIP and DRRIP,
//! the Skip-Cache-style [miss predictor](predictor::MissPredictor) used by
//! the Cache Lookup Bypass optimization, and the
//! [Set State Vector](ssv::SetStateVector) substrate of the Virtual Write
//! Queue baseline.
//!
//! The cache is a *state* model: it decides hits, victims, and dirty status,
//! and counts events. Latency, port occupancy, and the choreography between
//! levels belong to the `system-sim` crate.
//!
//! # Example
//!
//! ```
//! use cache_sim::{Cache, CacheConfig, InsertPos};
//!
//! # fn main() -> Result<(), cache_sim::CacheConfigError> {
//! // 32 KB, 2-way, 64 B blocks — the paper's L1.
//! let mut l1 = Cache::new(CacheConfig::new(32 * 1024, 2, 64)?);
//! assert!(!l1.touch(0x40));                 // cold miss
//! let victim = l1.insert(0x40, 0, InsertPos::Mru, false);
//! assert!(victim.is_none());
//! assert!(l1.touch(0x40));                  // now a hit
//! # Ok(())
//! # }
//! ```

mod cache;
pub mod dueling;
pub mod lastwrite;
pub mod predictor;
pub mod ssv;

pub use crate::cache::{
    Cache, CacheConfig, CacheConfigError, CacheStats, DirtyView, InsertPos, ProbedLine,
    ReplacementKind, SetIdx, Victim, WayIter, WayMask,
};

/// Index of a cache block in the physical address space (byte address
/// shifted right by `log2(block size)`), shared with the `dbi` crate.
pub type BlockAddr = u64;

/// Identifier of the hardware thread (core) that owns an access.
pub type ThreadId = u8;
