//! Named benchmark profiles.
//!
//! Each profile is a point in the workload space the paper's evaluation
//! spans; the parameters are calibrated so that the *relative ordering* of
//! LLC MPKI, WPKI, and baseline IPC across benchmarks matches Figure 6 of
//! the paper (absolute values depend on the substituted core model, see
//! DESIGN.md).
//!
//! The address space of a profile has three tiers:
//!
//! * a **hot** set sized to live in the private L1/L2 levels,
//! * a **warm** set sized to live in the shared LLC — this is where the
//!   LLC's *dirty* working set comes from, the state every mechanism in
//!   the paper manages,
//! * a **cold** footprint that misses everywhere, walked sequentially
//!   (streams) or sampled randomly (pointer chasing).
//!
//! Reads can be marked *dependent* (pointer chasing): a dependent load
//! cannot overlap the previous load, which is what separates the low-IPC
//! irregular benchmarks (`mcf`, `omnetpp`) from high-MLP streamers.

/// Parameters of a synthetic benchmark profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileParams {
    /// Memory accesses per kilo-instruction reaching the L1.
    pub accesses_per_kilo_inst: f64,
    /// Fraction of memory accesses that are stores.
    pub write_fraction: f64,
    /// Fraction of reads that depend on the previous load (no MLP).
    pub dependent_fraction: f64,
    /// Probability an access targets the hot (L1/L2-resident) set.
    pub hot_fraction: f64,
    /// Hot set size in blocks.
    pub hot_blocks: u64,
    /// Probability an access targets the warm (LLC-resident) set.
    pub warm_fraction: f64,
    /// Warm set size in blocks (reads cover all of it).
    pub warm_blocks: u64,
    /// Span of the warm set that *writes* target — the benchmark's
    /// repeatedly-mutated LLC-resident set. Real programs mutate far less
    /// data than they read; this knob sets the steady-state LLC dirty
    /// working set that the DBI (and DAWB's premature cleans) contend with.
    pub warm_write_blocks: u64,
    /// Of the cold accesses, the fraction that walk sequential streams
    /// (DRAM-row co-located — the locality AWB exploits).
    pub stream_fraction: f64,
    /// Number of concurrent sequential streams.
    pub stream_count: u8,
    /// Cold footprint in blocks (streams walk it, random accesses sample
    /// it uniformly).
    pub footprint_blocks: u64,
}

/// Read or write intensity class, the axes of the paper's 3×3 workload
/// grid (Section 5, "Benchmarks and Workloads").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Intensity {
    /// Little pressure on the memory system.
    Low,
    /// Moderate pressure.
    Medium,
    /// Heavy pressure.
    High,
}

impl std::fmt::Display for Intensity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Intensity::Low => "low",
            Intensity::Medium => "medium",
            Intensity::High => "high",
        })
    }
}

/// The 14 benchmark profiles of the paper's single-core evaluation
/// (SPEC CPU2006 subset + STREAM), in Figure 6's order of increasing
/// baseline IPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // the variants are benchmark names
pub enum Benchmark {
    Mcf,
    Lbm,
    GemsFdtd,
    Soplex,
    Omnetpp,
    CactusAdm,
    Stream,
    Leslie3d,
    Milc,
    Sphinx3,
    Libquantum,
    Bzip2,
    Astar,
    Bwaves,
}

impl Benchmark {
    /// All benchmarks in Figure 6 order.
    pub const ALL: [Benchmark; 14] = [
        Benchmark::Mcf,
        Benchmark::Lbm,
        Benchmark::GemsFdtd,
        Benchmark::Soplex,
        Benchmark::Omnetpp,
        Benchmark::CactusAdm,
        Benchmark::Stream,
        Benchmark::Leslie3d,
        Benchmark::Milc,
        Benchmark::Sphinx3,
        Benchmark::Libquantum,
        Benchmark::Bzip2,
        Benchmark::Astar,
        Benchmark::Bwaves,
    ];

    /// The benchmark's display name (paper spelling).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Benchmark::Mcf => "mcf",
            Benchmark::Lbm => "lbm",
            Benchmark::GemsFdtd => "GemsFDTD",
            Benchmark::Soplex => "soplex",
            Benchmark::Omnetpp => "omnetpp",
            Benchmark::CactusAdm => "cactusADM",
            Benchmark::Stream => "stream",
            Benchmark::Leslie3d => "leslie3d",
            Benchmark::Milc => "milc",
            Benchmark::Sphinx3 => "sphinx3",
            Benchmark::Libquantum => "libquantum",
            Benchmark::Bzip2 => "bzip2",
            Benchmark::Astar => "astar",
            Benchmark::Bwaves => "bwaves",
        }
    }

    /// The synthetic profile standing in for this benchmark.
    ///
    /// Character notes (the behaviours the DBI optimizations key on):
    /// * `mcf`, `omnetpp` — dependent pointer chasing: low IPC, scattered
    ///   writes (the DBI's premature-writeback worst case, paper §6.1).
    /// * `lbm`, `stream`, `GemsFDTD`, `leslie3d` — streaming with heavy,
    ///   row-co-located writebacks: the AWB sweet spot.
    /// * `libquantum` — a read-streaming loop with effectively no LLC
    ///   reuse: the Cache-Lookup-Bypass sweet spot.
    /// * `bzip2`, `astar` — cache-friendly: low MPKI, must not be bypassed.
    #[must_use]
    pub fn profile(self) -> ProfileParams {
        // (apki, wf, dep, hot_f, hot_b, warm_f, warm_b, warm_wr, stream_f, streams, footprint)
        let (apki, wf, dep, hot_f, hot_b, warm_f, warm_b, warm_wr, stream_f, streams, footprint) =
            match self {
                Benchmark::Mcf => (
                    55.0,
                    0.22,
                    0.85,
                    0.30,
                    1024,
                    0.15,
                    32 << 10,
                    4096,
                    0.05,
                    1,
                    1u64 << 21,
                ),
                Benchmark::Lbm => (
                    42.0,
                    0.45,
                    0.15,
                    0.25,
                    1024,
                    0.10,
                    16 << 10,
                    1024,
                    0.95,
                    4,
                    1 << 20,
                ),
                Benchmark::GemsFdtd => (
                    45.0,
                    0.40,
                    0.30,
                    0.30,
                    2048,
                    0.15,
                    24 << 10,
                    2048,
                    0.85,
                    3,
                    1 << 20,
                ),
                Benchmark::Soplex => (
                    42.0,
                    0.35,
                    0.50,
                    0.35,
                    2048,
                    0.15,
                    24 << 10,
                    2048,
                    0.55,
                    2,
                    1 << 20,
                ),
                Benchmark::Omnetpp => (
                    38.0,
                    0.30,
                    0.80,
                    0.40,
                    2048,
                    0.20,
                    32 << 10,
                    6144,
                    0.10,
                    1,
                    1 << 20,
                ),
                Benchmark::CactusAdm => (
                    30.0,
                    0.32,
                    0.30,
                    0.40,
                    2048,
                    0.25,
                    24 << 10,
                    2048,
                    0.70,
                    2,
                    1 << 19,
                ),
                Benchmark::Stream => (48.0, 0.40, 0.05, 0.05, 512, 0.0, 1, 1, 0.99, 4, 1 << 20),
                Benchmark::Leslie3d => (
                    33.0,
                    0.30,
                    0.25,
                    0.40,
                    2048,
                    0.20,
                    24 << 10,
                    1536,
                    0.85,
                    3,
                    1 << 19,
                ),
                Benchmark::Milc => (
                    30.0,
                    0.28,
                    0.30,
                    0.40,
                    2048,
                    0.20,
                    24 << 10,
                    1536,
                    0.65,
                    2,
                    1 << 19,
                ),
                Benchmark::Sphinx3 => (
                    28.0,
                    0.15,
                    0.45,
                    0.45,
                    2048,
                    0.20,
                    24 << 10,
                    1536,
                    0.45,
                    2,
                    1 << 19,
                ),
                Benchmark::Libquantum => (33.0, 0.04, 0.05, 0.08, 512, 0.0, 1, 1, 0.98, 1, 1 << 20),
                Benchmark::Bzip2 => (
                    24.0,
                    0.25,
                    0.60,
                    0.70,
                    2048,
                    0.25,
                    24 << 10,
                    1024,
                    0.40,
                    1,
                    1 << 17,
                ),
                Benchmark::Astar => (
                    24.0,
                    0.20,
                    0.80,
                    0.70,
                    2048,
                    0.25,
                    24 << 10,
                    1024,
                    0.15,
                    1,
                    1 << 17,
                ),
                Benchmark::Bwaves => (
                    30.0,
                    0.15,
                    0.15,
                    0.45,
                    2048,
                    0.15,
                    24 << 10,
                    1536,
                    0.90,
                    2,
                    1 << 19,
                ),
            };
        ProfileParams {
            accesses_per_kilo_inst: apki,
            write_fraction: wf,
            dependent_fraction: dep,
            hot_fraction: hot_f,
            hot_blocks: hot_b,
            warm_fraction: warm_f,
            warm_blocks: warm_b,
            warm_write_blocks: warm_wr,
            stream_fraction: stream_f,
            stream_count: streams,
            footprint_blocks: footprint,
        }
    }

    /// Memory-bound read pressure per kilo-instruction this profile exerts
    /// past its hot and warm sets (the read-intensity proxy used for
    /// classification).
    fn read_pressure(self) -> f64 {
        let p = self.profile();
        let cold_fraction = (1.0 - p.hot_fraction - p.warm_fraction).max(0.0);
        p.accesses_per_kilo_inst * (1.0 - p.write_fraction) * cold_fraction
    }

    /// Write pressure per kilo-instruction past the hot set (warm + cold
    /// writes reach the LLC and eventually DRAM).
    #[must_use]
    pub fn write_pressure(self) -> f64 {
        let p = self.profile();
        p.accesses_per_kilo_inst * p.write_fraction * (1.0 - p.hot_fraction)
    }

    /// Read-intensity class (paper Section 5): how much this workload can
    /// *suffer* from write interference.
    #[must_use]
    pub fn read_class(self) -> Intensity {
        match self.read_pressure() {
            x if x < 6.0 => Intensity::Low,
            x if x < 18.0 => Intensity::Medium,
            _ => Intensity::High,
        }
    }

    /// Write-intensity class: how much interference this workload *causes*.
    #[must_use]
    pub fn write_class(self) -> Intensity {
        match self.write_pressure() {
            x if x < 2.5 => Intensity::Low,
            x if x < 8.0 => Intensity::Medium,
            _ => Intensity::High,
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when parsing an unknown benchmark name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBenchmarkError(String);

impl std::fmt::Display for ParseBenchmarkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown benchmark '{}'", self.0)
    }
}

impl std::error::Error for ParseBenchmarkError {}

impl std::str::FromStr for Benchmark {
    type Err = ParseBenchmarkError;

    /// Parses a benchmark by its paper label, case-insensitively.
    fn from_str(s: &str) -> Result<Benchmark, ParseBenchmarkError> {
        Benchmark::ALL
            .into_iter()
            .find(|b| b.label().eq_ignore_ascii_case(s))
            .ok_or_else(|| ParseBenchmarkError(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_labels_distinct() {
        let labels: std::collections::HashSet<_> =
            Benchmark::ALL.iter().map(|b| b.label()).collect();
        assert_eq!(labels.len(), Benchmark::ALL.len());
    }

    #[test]
    fn profiles_are_well_formed() {
        for b in Benchmark::ALL {
            let p = b.profile();
            assert!(p.accesses_per_kilo_inst > 0.0 && p.accesses_per_kilo_inst < 1000.0);
            for frac in [
                p.write_fraction,
                p.dependent_fraction,
                p.hot_fraction,
                p.warm_fraction,
                p.stream_fraction,
            ] {
                assert!((0.0..=1.0).contains(&frac), "{b}: bad fraction {frac}");
            }
            assert!(
                p.hot_fraction + p.warm_fraction < 1.0,
                "{b}: no cold accesses"
            );
            assert!(p.stream_count >= 1, "{b}");
            assert!(p.hot_blocks > 0 && p.warm_blocks > 0, "{b}");
            assert!(
                p.warm_write_blocks > 0 && p.warm_write_blocks <= p.warm_blocks,
                "{b}: warm write span out of range"
            );
            assert!(p.footprint_blocks > p.hot_blocks, "{b}");
        }
    }

    #[test]
    fn classification_covers_multiple_classes() {
        use std::collections::HashSet;
        let read: HashSet<_> = Benchmark::ALL.iter().map(|b| b.read_class()).collect();
        let write: HashSet<_> = Benchmark::ALL.iter().map(|b| b.write_class()).collect();
        assert!(read.len() >= 2, "read classes degenerate: {read:?}");
        assert_eq!(
            write.len(),
            3,
            "write classes must span the grid: {write:?}"
        );
    }

    #[test]
    fn signature_benchmarks_land_in_expected_classes() {
        assert_eq!(Benchmark::Lbm.write_class(), Intensity::High);
        assert_eq!(Benchmark::Stream.write_class(), Intensity::High);
        assert_eq!(Benchmark::Libquantum.write_class(), Intensity::Low);
        assert_eq!(Benchmark::Mcf.read_class(), Intensity::High);
        assert_eq!(Benchmark::Libquantum.read_class(), Intensity::High);
        assert_eq!(Benchmark::Bzip2.read_class(), Intensity::Low);
    }

    #[test]
    fn parse_roundtrips_labels() {
        for b in Benchmark::ALL {
            assert_eq!(b.label().parse::<Benchmark>().unwrap(), b);
            assert_eq!(
                b.label().to_uppercase().parse::<Benchmark>().unwrap(),
                b,
                "parsing is case-insensitive"
            );
        }
        assert!("notabench".parse::<Benchmark>().is_err());
    }

    #[test]
    fn pointer_chasers_are_dependent_streamers_are_not() {
        assert!(Benchmark::Mcf.profile().dependent_fraction > 0.7);
        assert!(Benchmark::Omnetpp.profile().dependent_fraction > 0.7);
        assert!(Benchmark::Stream.profile().dependent_fraction < 0.2);
        assert!(Benchmark::Libquantum.profile().dependent_fraction < 0.2);
    }
}
