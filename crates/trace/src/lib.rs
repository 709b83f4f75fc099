//! # trace-gen — synthetic workloads standing in for SPEC CPU2006 / STREAM
//!
//! The paper's evaluation drives its simulator with Pinpoints traces of 14
//! SPEC CPU2006 benchmarks plus STREAM. Those traces are proprietary; this
//! crate substitutes deterministic synthetic generators, one named profile
//! per benchmark ([`Benchmark`]), parameterized along the axes the paper's
//! analysis actually uses:
//!
//! * **memory intensity** — accesses per kilo-instruction, which sets the
//!   MPKI scale and the baseline IPC ordering of Figure 6;
//! * **write intensity** — the write fraction, which sets WPKI (Figure 6d)
//!   and how much write-induced DRAM interference the workload causes;
//! * **spatial locality** — the mix of sequential streams (whose writebacks
//!   are DRAM-row co-located, the case AWB exploits) and random pointer
//!   chasing (whose writebacks scatter);
//! * **reuse** — a hot working set that hits in the upper cache levels, and
//!   a large footprint whose LLC reuse ranges from none (`libquantum`,
//!   the Cache-Lookup-Bypass case) to high (`bzip2`).
//!
//! Multi-programmed mixes ([`mix::generate_mixes`]) follow the paper's
//! methodology: benchmarks are classified into a 3×3 grid of read × write
//! intensity ([`Benchmark::read_class`], [`Benchmark::write_class`]) and
//! mixes are drawn to span the grid.
//!
//! # Example
//!
//! ```
//! use trace_gen::{Benchmark, TraceGenerator};
//!
//! let mut generator = TraceGenerator::from_benchmark(Benchmark::Stream, 42);
//! let record = generator.next_record();
//! assert!(record.gap < 10_000);
//! ```

mod generator;
pub mod mix;
mod profiles;

pub use crate::generator::TraceGenerator;
pub use crate::profiles::{Benchmark, Intensity, ParseBenchmarkError, ProfileParams};

/// Index of a cache block in the physical address space, shared with the
/// other workspace crates.
pub type BlockAddr = u64;

/// Whether a memory access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// A demand load.
    Read,
    /// A store (write-allocate at L1, eventually a writeback downstream).
    Write,
}

/// One entry of a synthetic instruction trace: `gap` non-memory
/// instructions followed by one memory access to `addr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Non-memory instructions executed before this access (1 cycle each on
    /// the paper's single-issue core).
    pub gap: u32,
    /// Read or write.
    pub op: MemOp,
    /// Target block address.
    pub addr: BlockAddr,
    /// Whether this load depends on the previous load (pointer chasing) —
    /// dependent loads cannot overlap and expose the full memory latency.
    /// Always `false` for writes.
    pub dependent: bool,
}
