//! # dram-sim — a DDR3-like main-memory model
//!
//! The DRAM substrate of the DBI evaluation (paper Table 1): one channel,
//! one rank, eight banks with 8 KB row buffers, an open-row policy, and a
//! 64-entry write buffer drained in full when it fills ("drain when full",
//! after Lee et al.). The controller is a command-level scheduler: every
//! access resolves into precharge/activate/CAS commands against per-bank
//! open-row state, with activates throttled by bank-group-aware spacing
//! (tRRD_S across groups, tRRD_L within one, a four-activate tFAW window
//! per (channel, group)). Within a drain, row batches are serviced by
//! group-rotating FR-FCFS arbitration — all pending hits to an open row
//! stream back-to-back, and consecutive row batches go to different bank
//! groups so their activates overlap at tRRD_S spacing.
//!
//! Everything is expressed in **CPU cycles** (2.67 GHz against DDR3-1066, as
//! in the paper), so the system simulator can use completion times directly.
//!
//! Why this matters for the DBI: writing back the dirty blocks of one DRAM
//! row together turns a drain full of row misses (activate + precharge per
//! write) into a drain of row hits (back-to-back bursts), shortening the
//! time the channel is stolen from demand reads. Bank groups push the same
//! story one level deeper: the row batches the DBI produces land in
//! *different* groups (consecutive rows stripe across group-interleaved
//! banks), so even the activates between batches overlap. The
//! [`MemoryController`] exposes exactly the statistics the paper plots:
//! read/write row-hit rates (Figures 6b/6e), writes per kilo-instruction
//! (Figure 6d), and energy (Section 6.3).
//!
//! # Example
//!
//! ```
//! use dram_sim::{DramConfig, MemoryController};
//!
//! let mut mem = MemoryController::new(DramConfig::ddr3_1066());
//! let done = mem.read(0, 0);
//! assert!(done > 0); // a row-miss read costs activate + CAS + burst
//! mem.enqueue_write(1, done);
//! assert_eq!(mem.stats().reads, 1);
//! ```

mod controller;
mod energy;
mod mapping;
mod timing;
mod write_buffer;

pub use crate::controller::{ActivateEvent, DramStats, MemoryController};
pub use crate::energy::{DramEnergy, EnergyModel};
pub use crate::mapping::AddressMapping;
pub use crate::timing::DramTiming;
pub use crate::timing::{REFRESH_T_REFI, REFRESH_T_RFC};
pub use crate::write_buffer::WriteBuffer;

/// Index of a cache block in the physical address space, shared with the
/// `dbi` and `cache-sim` crates.
pub type BlockAddr = u64;

/// CPU-cycle timestamps.
pub type Cycle = u64;

/// When the write buffer hands its contents to the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainPolicy {
    /// Drain the whole buffer once it fills (the paper's policy, after
    /// Lee et al.): maximum batching, longest read-blocking episodes.
    WhenFull,
    /// Start draining at `high` pending writes, stop once `low` remain:
    /// shorter episodes, less batching. An ablation point, not the
    /// evaluated configuration.
    Watermark {
        /// Pending-write count that starts a drain.
        high: usize,
        /// Pending-write count at which the drain stops.
        low: usize,
    },
}

/// A rejected [`DramConfig`] — degenerate geometry that would divide by
/// zero in address routing or leave the controller with no resources.
/// Mirrors `cache-sim`'s `CacheConfigError`: construction-time validation
/// with a typed reason instead of a panic deep inside `route`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DramConfigError {
    /// `channels = 0`: no channel to route any access to.
    ZeroChannels,
    /// `mapping.banks() = 0`: bank routing would divide by zero.
    ZeroBanks,
    /// `mapping.blocks_per_row() = 0`: row routing would divide by zero.
    ZeroBlocksPerRow,
    /// `bank_groups = 0`: group routing would divide by zero.
    ZeroBankGroups,
    /// Banks cannot be divided evenly into the requested groups.
    GroupsDontDivideBanks {
        /// Total banks per channel.
        banks: u32,
        /// Requested bank groups.
        bank_groups: u32,
    },
    /// `write_buffer_capacity = 0`: writes would have nowhere to wait.
    ZeroWriteBuffer,
}

impl std::fmt::Display for DramConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DramConfigError::ZeroChannels => write!(f, "DRAM needs at least one channel"),
            DramConfigError::ZeroBanks => write!(f, "DRAM needs at least one bank"),
            DramConfigError::ZeroBlocksPerRow => {
                write!(f, "DRAM rows must hold at least one block")
            }
            DramConfigError::ZeroBankGroups => {
                write!(f, "DRAM needs at least one bank group")
            }
            DramConfigError::GroupsDontDivideBanks { banks, bank_groups } => {
                write!(
                    f,
                    "{banks} banks do not divide into {bank_groups} equal bank groups"
                )
            }
            DramConfigError::ZeroWriteBuffer => {
                write!(f, "DRAM write buffer capacity must be nonzero")
            }
        }
    }
}

impl std::error::Error for DramConfigError {}

/// Full configuration of a [`MemoryController`].
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Command and data timing, in CPU cycles.
    pub timing: DramTiming,
    /// Block address → bank/row/column mapping.
    pub mapping: AddressMapping,
    /// Write-buffer capacity in blocks per channel (paper: 64).
    pub write_buffer_capacity: usize,
    /// Number of independent channels (paper: 1). DRAM rows stripe across
    /// channels; each channel has its own banks, data bus, and write
    /// buffer. A bandwidth-sensitivity knob, not a paper configuration.
    pub channels: u32,
    /// Number of bank groups per channel (paper's DDR3 device: 1, i.e. no
    /// grouping). Must divide `mapping.banks()`. Banks are numbered
    /// group-interleaved (bank `b` is in group `b % bank_groups`), so
    /// consecutive rows of the stripe alternate groups; activates to
    /// different groups need only `t_rrd_s` spacing and each group has its
    /// own tFAW window. A bandwidth-sensitivity knob
    /// (`ablation_bankgroups`), not a paper configuration.
    pub bank_groups: u32,
    /// Write-drain policy (paper: drain-when-full).
    pub drain_policy: DrainPolicy,
    /// Model periodic refresh: all banks unavailable for `t_rfc` every
    /// `t_refi` cycles. Off by default (a uniform ~2% tax that does not
    /// change any comparison; enable for absolute-latency studies).
    pub refresh: bool,
    /// Per-operation energy coefficients.
    pub energy: EnergyModel,
}

impl DramConfig {
    /// The paper's configuration: DDR3-1066, 1 channel, 1 rank, 8 banks
    /// (one bank group), 8 KB row buffers, 64-entry write buffer,
    /// drain-when-full.
    #[must_use]
    pub fn ddr3_1066() -> Self {
        DramConfig {
            timing: DramTiming::ddr3_1066(),
            mapping: AddressMapping::new(8, 128), // 8 banks, 8 KB rows of 64 B blocks
            write_buffer_capacity: 64,
            channels: 1,
            bank_groups: 1,
            drain_policy: DrainPolicy::WhenFull,
            refresh: false,
            energy: EnergyModel::ddr3_1066(),
        }
    }

    /// Checks the configuration for degenerate geometry.
    ///
    /// # Errors
    ///
    /// Returns the first [`DramConfigError`] found.
    pub fn validate(&self) -> Result<(), DramConfigError> {
        if self.channels == 0 {
            return Err(DramConfigError::ZeroChannels);
        }
        if self.mapping.banks() == 0 {
            return Err(DramConfigError::ZeroBanks);
        }
        if self.mapping.blocks_per_row() == 0 {
            return Err(DramConfigError::ZeroBlocksPerRow);
        }
        if self.bank_groups == 0 {
            return Err(DramConfigError::ZeroBankGroups);
        }
        if !self.mapping.banks().is_multiple_of(self.bank_groups) {
            return Err(DramConfigError::GroupsDontDivideBanks {
                banks: self.mapping.banks(),
                bank_groups: self.bank_groups,
            });
        }
        if self.write_buffer_capacity == 0 {
            return Err(DramConfigError::ZeroWriteBuffer);
        }
        Ok(())
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;

    #[test]
    fn paper_config_validates() {
        assert_eq!(DramConfig::ddr3_1066().validate(), Ok(()));
    }

    #[test]
    fn each_degenerate_axis_is_rejected_with_its_own_error() {
        let base = DramConfig::ddr3_1066;

        let mut c = base();
        c.channels = 0;
        assert_eq!(c.validate(), Err(DramConfigError::ZeroChannels));

        let mut c = base();
        c.mapping = AddressMapping::new(0, 128);
        assert_eq!(c.validate(), Err(DramConfigError::ZeroBanks));

        let mut c = base();
        c.mapping = AddressMapping::new(8, 0);
        assert_eq!(c.validate(), Err(DramConfigError::ZeroBlocksPerRow));

        let mut c = base();
        c.bank_groups = 0;
        assert_eq!(c.validate(), Err(DramConfigError::ZeroBankGroups));

        let mut c = base();
        c.bank_groups = 3; // 8 banks don't split into 3 groups
        assert_eq!(
            c.validate(),
            Err(DramConfigError::GroupsDontDivideBanks {
                banks: 8,
                bank_groups: 3
            })
        );

        let mut c = base();
        c.write_buffer_capacity = 0;
        assert_eq!(c.validate(), Err(DramConfigError::ZeroWriteBuffer));
    }

    #[test]
    fn errors_render_their_reason() {
        let msg = DramConfigError::GroupsDontDivideBanks {
            banks: 8,
            bank_groups: 3,
        }
        .to_string();
        assert!(msg.contains('8') && msg.contains('3'), "got {msg:?}");
    }
}
