//! # system-sim — the DBI evaluation system
//!
//! Assembles the workspace substrates into the paper's simulated system
//! (Table 1): single-issue out-of-order cores with a 128-entry window and
//! 32 MSHRs, private L1/L2 caches, a shared last-level cache implementing
//! one of the nine mechanisms of Table 2, and a DDR3-1066 memory system
//! with a drain-when-full write buffer.
//!
//! The timing model is a *resource-occupancy* approximation of the paper's
//! event-driven simulator: requests are processed to completion in issue
//! order against next-free-cycle registers for the LLC tag port, the DRAM
//! banks, and the DRAM channel. This captures the three effects the paper's
//! results hinge on — write-induced DRAM interference, tag-port contention
//! from writeback sweeps, and bypass latency — while staying fast enough to
//! sweep hundreds of multi-programmed workloads (see DESIGN.md §2).
//!
//! # Example: the paper's headline comparison, in miniature
//!
//! ```
//! use system_sim::{run_mix, Mechanism, SystemConfig};
//! use trace_gen::mix::WorkloadMix;
//! use trace_gen::Benchmark;
//!
//! let mix = WorkloadMix::new(vec![Benchmark::Lbm]);
//! let mut config = SystemConfig::for_cores(1, Mechanism::Baseline);
//! config.warmup_insts = 20_000;
//! config.measure_insts = 50_000;
//! let baseline = run_mix(&mix, &config);
//!
//! config.mechanism = Mechanism::Dbi { awb: true, clb: true };
//! let dbi = run_mix(&mix, &config);
//! // Both runs retire the same instruction quota; IPCs are comparable.
//! assert_eq!(baseline.cores[0].insts, dbi.cores[0].insts);
//! ```

mod checker;
mod config;
mod core;
pub mod dramcache;
mod faults;
mod feed;
mod invariants;
mod llc;
pub mod metrics;
mod system;

pub use crate::checker::{LostWrite, VersionChecker};
pub use crate::config::{DbiParams, Latencies, Mechanism, SystemConfig, MAX_CORES};
pub use crate::core::FrontKey;
pub use crate::faults::{splitmix64, FaultClass, FaultInjector, FaultPlan, FaultRecord};
pub use crate::feed::{FrontRecorder, FrontReplay, FrontStreams};
pub use crate::invariants::{InvariantKind, InvariantViolation, Sanitizer, SanitizerReport};
pub use crate::llc::{LlcStats, ReadOutcome, SharedLlc};
pub use crate::metrics::CoreResult;
pub use crate::system::{run_alone, run_mix, MixResult, System};
