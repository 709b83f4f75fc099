//! System configuration (paper Table 1) and the evaluated mechanisms
//! (paper Table 2).

use cache_sim::ReplacementKind;
use dbi::{Alpha, DbiConfig, DbiConfigError, DbiReplacementPolicy};
use dram_sim::DramConfig;

use crate::faults::FaultPlan;

/// The LLC mechanisms evaluated in the paper (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Mechanism {
    /// Plain LRU cache.
    Baseline,
    /// Thread-aware dynamic insertion policy (32 dueling sets, 10-bit PSEL,
    /// ε = 1/64). All following mechanisms use TA-DIP for read insertions.
    TaDip,
    /// DRAM-aware writeback: on a dirty eviction, probe the tag store for
    /// every block of the victim's DRAM row and write back the dirty ones.
    Dawb,
    /// Virtual Write Queue: like DAWB, but probes only sets whose Set State
    /// Vector bit says they hold dirty blocks in the LRU quarter, and only
    /// harvests dirty blocks from those LRU ways.
    Vwq,
    /// Skip Cache: write-through LLC plus miss-rate-based lookup bypass.
    SkipCache,
    /// The Dirty-Block Index, optionally with Aggressive Writeback and/or
    /// Cache Lookup Bypass.
    Dbi {
        /// Aggressive DRAM-aware writeback (paper Section 3.1).
        awb: bool,
        /// Cache lookup bypass (paper Section 3.2).
        clb: bool,
    },
}

impl Mechanism {
    /// The nine mechanisms of the paper's Table 2, in its order.
    pub const ALL: [Mechanism; 9] = [
        Mechanism::Baseline,
        Mechanism::TaDip,
        Mechanism::Dawb,
        Mechanism::Vwq,
        Mechanism::SkipCache,
        Mechanism::Dbi {
            awb: false,
            clb: false,
        },
        Mechanism::Dbi {
            awb: true,
            clb: false,
        },
        Mechanism::Dbi {
            awb: false,
            clb: true,
        },
        Mechanism::Dbi {
            awb: true,
            clb: true,
        },
    ];

    /// The paper's label for this mechanism.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Mechanism::Baseline => "Baseline",
            Mechanism::TaDip => "TA-DIP",
            Mechanism::Dawb => "DAWB",
            Mechanism::Vwq => "VWQ",
            Mechanism::SkipCache => "Skip Cache",
            Mechanism::Dbi {
                awb: false,
                clb: false,
            } => "DBI",
            Mechanism::Dbi {
                awb: true,
                clb: false,
            } => "DBI+AWB",
            Mechanism::Dbi {
                awb: false,
                clb: true,
            } => "DBI+CLB",
            Mechanism::Dbi {
                awb: true,
                clb: true,
            } => "DBI+AWB+CLB",
        }
    }

    /// Whether this mechanism maintains a DBI.
    #[must_use]
    pub fn uses_dbi(self) -> bool {
        matches!(self, Mechanism::Dbi { .. })
    }

    /// Whether read insertions use TA-DIP (everything except Baseline).
    #[must_use]
    pub fn uses_tadip(self) -> bool {
        !matches!(self, Mechanism::Baseline)
    }
}

impl std::fmt::Display for Mechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Fixed latencies of the cache hierarchy, in CPU cycles (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// L1 hit latency (tag + data in parallel).
    pub l1: u64,
    /// L2 hit latency (tag + data in parallel).
    pub l2: u64,
    /// LLC tag-store latency (serial lookup: paid before data or DRAM).
    pub llc_tag: u64,
    /// LLC data-store latency (paid after the tag on a hit).
    pub llc_data: u64,
    /// DBI lookup latency.
    pub dbi: u64,
    /// Cycles one lookup occupies the LLC tag port (the contention
    /// resource that DAWB's extra probes saturate).
    pub llc_tag_occupancy: u64,
}

impl Latencies {
    /// Table 1 latencies for an `n`-core system (1/2/4/8 cores).
    #[must_use]
    pub fn for_cores(cores: usize) -> Latencies {
        let (llc_tag, llc_data) = match cores {
            0 | 1 => (10, 24),
            2 => (12, 29),
            3 | 4 => (13, 31),
            _ => (14, 33),
        };
        Latencies {
            l1: 2,
            l2: 14,
            llc_tag,
            llc_data,
            dbi: 4,
            llc_tag_occupancy: 4,
        }
    }
}

/// DBI geometry parameters within a system (applied to the LLC block
/// count at construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbiParams {
    /// DBI size ratio (paper default 1/4).
    pub alpha: Alpha,
    /// Blocks per entry (paper default 64).
    pub granularity: usize,
    /// DBI associativity (paper default 16).
    pub associativity: usize,
    /// DBI replacement policy (paper default LRW).
    pub policy: DbiReplacementPolicy,
}

impl Default for DbiParams {
    fn default() -> Self {
        DbiParams {
            alpha: Alpha::QUARTER,
            granularity: 64,
            associativity: 16,
            policy: DbiReplacementPolicy::Lrw,
        }
    }
}

impl DbiParams {
    /// Builds a [`DbiConfig`] for an LLC of `llc_blocks` blocks.
    ///
    /// # Errors
    ///
    /// Propagates [`DbiConfigError`] for degenerate geometry.
    pub fn build(&self, llc_blocks: u64) -> Result<DbiConfig, DbiConfigError> {
        DbiConfig::new(
            llc_blocks,
            self.alpha,
            self.granularity,
            self.associativity,
            self.policy,
        )
    }
}

/// The most cores a system can have.
pub const MAX_CORES: usize = 64;

/// Full system configuration (paper Table 1 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of cores (geometry follows: LLC = 2 MB/core by default).
    pub cores: usize,
    /// The LLC mechanism under evaluation.
    pub mechanism: Mechanism,
    /// Shared LLC capacity per core, bytes.
    pub llc_bytes_per_core: u64,
    /// LLC associativity (paper: 16-way at 1 core, 32-way beyond).
    pub llc_ways: usize,
    /// LLC replacement machinery: LRU-stack (default) or RRIP, the
    /// Section 6.5 "better replacement policy" check (DRRIP = RRIP +
    /// the same set dueling).
    pub llc_replacement: ReplacementKind,
    /// Private L1 capacity, bytes.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: usize,
    /// Private L2 capacity, bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// Cache block size, bytes.
    pub block_bytes: u32,
    /// Hierarchy latencies.
    pub latencies: Latencies,
    /// DBI geometry (used by DBI mechanisms).
    pub dbi: DbiParams,
    /// DRAM configuration.
    pub dram: DramConfig,
    /// Reorder-window size in instructions (Table 1: 128).
    pub window_insts: u64,
    /// Maximum outstanding L1 misses per core (Table 1: 32 MSHRs).
    pub mshrs: usize,
    /// Miss-predictor epoch length in cycles (paper: 50 M at 500 M-inst
    /// runs; scaled with the default run lengths here).
    pub predictor_epoch_cycles: u64,
    /// Miss-predictor bypass threshold (paper: 0.95).
    pub predictor_threshold: f64,
    /// Extension (paper Section 8 / Wang et al.): filter Aggressive
    /// Writeback sweeps with a last-write predictor, skipping rows that
    /// are likely to be re-dirtied (suppresses premature writebacks on
    /// scatter-write workloads).
    pub awb_rewrite_filter: bool,
    /// Extension (paper Section 7, "other cache levels"): each private L2
    /// also keeps its dirty bits in a DBI and writes back DRAM-row
    /// batches to the LLC on dirty evictions, so the LLC receives
    /// row-clustered writeback streams.
    pub l2_dbi: bool,
    /// Instructions per core to warm the hierarchy before measuring.
    ///
    /// The warm-up must be long enough for the LLC *dirty* population to
    /// reach steady state (the cache fills with dirty blocks before any
    /// are evicted) — about 10 M instructions for a 2 MB LLC at moderate
    /// write intensity. Short warm-ups make every writeback mechanism look
    /// like pure overhead, because the baseline defers its writes past the
    /// measurement window.
    pub warmup_insts: u64,
    /// Instructions per core in the measurement window.
    pub measure_insts: u64,
    /// Trace-generation seed.
    pub seed: u64,
    /// Run the shadow-memory functional checker (tests; adds overhead).
    pub check: bool,
    /// Run the online invariant sanitizer (`crate::invariants`): shadow
    /// dirty-state tracking plus periodic full-state scans. Violations
    /// are reported structurally in `MixResult::sanitizer`, never
    /// panicked on.
    pub sanitize: bool,
    /// Trace records between sanitizer full-state scans (the sampling
    /// interval; lower = tighter detection window, more overhead).
    pub sanitize_interval: u64,
    /// Inject one deterministic fault (`crate::faults`) — used to prove
    /// the sanitizer and checker actually detect contract violations.
    pub fault: Option<FaultPlan>,
}

impl SystemConfig {
    /// Paper Table 1 configuration for `cores` cores, scaled-down run
    /// lengths suitable for laptop-scale experiments (the paper warms for
    /// 200 M and measures 300 M instructions; defaults here are 1 M + 3 M —
    /// see DESIGN.md on downscaling).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or exceeds [`MAX_CORES`].
    #[must_use]
    pub fn for_cores(cores: usize, mechanism: Mechanism) -> SystemConfig {
        assert!((1..=MAX_CORES).contains(&cores), "cores out of range");
        SystemConfig {
            cores,
            mechanism,
            llc_bytes_per_core: 2 * 1024 * 1024,
            llc_ways: if cores == 1 { 16 } else { 32 },
            llc_replacement: ReplacementKind::Lru,
            l1_bytes: 32 * 1024,
            l1_ways: 2,
            l2_bytes: 256 * 1024,
            l2_ways: 8,
            block_bytes: 64,
            latencies: Latencies::for_cores(cores),
            dbi: DbiParams::default(),
            dram: DramConfig::ddr3_1066(),
            window_insts: 128,
            mshrs: 32,
            predictor_epoch_cycles: 500_000,
            predictor_threshold: 0.95,
            awb_rewrite_filter: false,
            l2_dbi: false,
            warmup_insts: 12_000_000,
            measure_insts: 4_000_000,
            seed: 42,
            check: false,
            sanitize: false,
            sanitize_interval: 4096,
            fault: None,
        }
    }

    /// Total LLC capacity in bytes.
    #[must_use]
    pub fn llc_bytes(&self) -> u64 {
        self.llc_bytes_per_core * self.cores as u64
    }

    /// Total LLC blocks.
    #[must_use]
    pub fn llc_blocks(&self) -> u64 {
        self.llc_bytes() / u64::from(self.block_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_mechanisms_with_distinct_labels() {
        let labels: std::collections::HashSet<_> =
            Mechanism::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 9);
        assert!(Mechanism::Dbi {
            awb: true,
            clb: true
        }
        .uses_dbi());
        assert!(!Mechanism::Baseline.uses_tadip());
        assert!(Mechanism::Dawb.uses_tadip());
    }

    #[test]
    fn latencies_grow_with_core_count() {
        let l1 = Latencies::for_cores(1);
        let l8 = Latencies::for_cores(8);
        assert!(l8.llc_tag > l1.llc_tag);
        assert!(l8.llc_data > l1.llc_data);
        assert_eq!(l1.dbi, 4);
    }

    #[test]
    fn config_geometry() {
        let c = SystemConfig::for_cores(4, Mechanism::Baseline);
        assert_eq!(c.llc_bytes(), 8 * 1024 * 1024);
        assert_eq!(c.llc_blocks(), 128 * 1024);
        assert_eq!(c.llc_ways, 32);
        let c1 = SystemConfig::for_cores(1, Mechanism::Baseline);
        assert_eq!(c1.llc_ways, 16);
    }

    #[test]
    fn dbi_params_build_paper_geometry() {
        let c = SystemConfig::for_cores(
            1,
            Mechanism::Dbi {
                awb: true,
                clb: true,
            },
        );
        let dbi = c.dbi.build(c.llc_blocks()).unwrap();
        assert_eq!(dbi.tracked_blocks(), c.llc_blocks() / 4);
        assert_eq!(dbi.granularity(), 64);
    }
}
