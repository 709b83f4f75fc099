//! The four benchmark workloads and the simulation units each one runs.
//!
//! Every workload is a closed loop: its unit list runs to completion,
//! one unit after another (sim workloads, one thread) or from a pool of
//! two runner threads (`campaign`). Caches start empty in every unit; the
//! warmup window fills the LLC before the measured window begins.

use dbi_bench::RunUnit;
use system_sim::{Mechanism, SystemConfig};
use trace_gen::mix::WorkloadMix;
use trace_gen::Benchmark;

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One multi-programmed mix under each of the nine Table 2
    /// mechanisms, timed around `System::run`.
    Sim(&'static [Benchmark]),
    /// Every benchmark alone under each of the nine mechanisms, driven
    /// through the experiment runner into a result store.
    Campaign,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Warmup instructions per core.
    pub warmup: u64,
    /// Measured instructions per core.
    pub measure: u64,
    /// Worker threads.
    pub jobs: usize,
}

/// Write-heavy streams with row-clustered writebacks: DBI marks, AWB /
/// DAWB / VWQ sweeps and DRAM write drains do the most work here.
const QUAD_WRITE: [Benchmark; 4] = [
    Benchmark::Lbm,
    Benchmark::Stream,
    Benchmark::GemsFdtd,
    Benchmark::Soplex,
];

/// Read-dominated, scattered writes, and CLB bypasses from libquantum.
const QUAD_READ: [Benchmark; 4] = [
    Benchmark::Libquantum,
    Benchmark::Mcf,
    Benchmark::Sphinx3,
    Benchmark::Bwaves,
];

/// Cache-friendly: trace generation, the core model and L1/L2 dominate;
/// the LLC, DBI and DRAM do little. The control workload.
const OCT_LIGHT: [Benchmark; 8] = [
    Benchmark::Bzip2,
    Benchmark::Astar,
    Benchmark::Bzip2,
    Benchmark::Astar,
    Benchmark::Bzip2,
    Benchmark::Astar,
    Benchmark::Bzip2,
    Benchmark::Astar,
];

/// The windows are shorter than the figure binaries' `--quick` 8M + 2M so
/// that one run holds at least three passes for a median. At 3M + 1M the
/// write-path profile of `quad_write` (writebacks per DBI eviction, write
/// row-hit rate) matches the `--quick` window's.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "quad_write",
        kind: Kind::Sim(&QUAD_WRITE),
        warmup: 3_000_000,
        measure: 1_000_000,
        jobs: 1,
    },
    Workload {
        name: "quad_read",
        kind: Kind::Sim(&QUAD_READ),
        warmup: 3_000_000,
        measure: 1_000_000,
        jobs: 1,
    },
    Workload {
        name: "oct_light",
        kind: Kind::Sim(&OCT_LIGHT),
        warmup: 4_000_000,
        measure: 4_000_000,
        jobs: 1,
    },
    Workload {
        name: "campaign",
        kind: Kind::Campaign,
        warmup: 4_000_000,
        measure: 1_000_000,
        jobs: 2,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The metric-name slug of a mechanism: its paper label, lower-cased,
/// with `+` and spaces turned into `-` (`DBI+AWB+CLB` → `dbi-awb-clb`).
pub fn slug(m: Mechanism) -> String {
    m.label().to_ascii_lowercase().replace(['+', ' '], "-")
}

impl Workload {
    fn config(&self, cores: usize, mechanism: Mechanism, seed: u64) -> SystemConfig {
        let mut c = SystemConfig::for_cores(cores, mechanism);
        c.warmup_insts = self.warmup;
        c.measure_insts = self.measure;
        c.seed = seed;
        c
    }

    /// The workload's unit list for `seed`, in a fixed order: mechanism
    /// order of Table 2, and for `campaign` benchmark-major.
    pub fn units(&self, seed: u64) -> Vec<RunUnit> {
        match self.kind {
            Kind::Sim(benchmarks) => Mechanism::ALL
                .iter()
                .map(|&m| {
                    RunUnit::new(
                        WorkloadMix::new(benchmarks.to_vec()),
                        self.config(benchmarks.len(), m, seed),
                    )
                })
                .collect(),
            Kind::Campaign => Benchmark::ALL
                .iter()
                .flat_map(|&b| {
                    Mechanism::ALL
                        .iter()
                        .map(move |&m| RunUnit::alone(b, self.config(1, m, seed)))
                })
                .collect(),
        }
    }

    /// The same workload at another window length (tests run the full
    /// pipeline on miniature windows).
    #[cfg(test)]
    pub fn scaled(self, warmup: u64, measure: u64) -> Workload {
        Workload {
            warmup,
            measure,
            ..self
        }
    }
}

/// A short human-readable name of a unit, for stderr.
pub fn unit_label(unit: &RunUnit) -> String {
    format!("{} on {}", unit.config.mechanism.label(), unit.mix.label())
}
