//! The deterministic trace generator.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::profiles::{Benchmark, ProfileParams};
use crate::{BlockAddr, MemOp, TraceRecord};

/// Upper bound on the instruction gap between two memory accesses, to keep
/// pathological exponential samples from distorting a run.
const MAX_GAP: u32 = 10_000;

/// An infinite, seeded stream of [`TraceRecord`]s for one benchmark
/// profile.
///
/// Address layout: the hot set occupies blocks `[0, hot_blocks)`, the warm
/// set `[hot_blocks, hot_blocks + warm_blocks)`, and the cold footprint
/// follows. Sequential streams walk the cold footprint with stride one
/// block from staggered starting points (shifted by one DRAM row each so
/// they land on different banks); random cold accesses sample it uniformly.
/// The system simulator offsets each core's addresses so multi-programmed
/// workloads do not share data.
///
/// # Example
///
/// ```
/// use trace_gen::{Benchmark, TraceGenerator};
///
/// let mut a = TraceGenerator::from_benchmark(Benchmark::Lbm, 7);
/// let mut b = TraceGenerator::from_benchmark(Benchmark::Lbm, 7);
/// // Same seed, same trace: simulations are exactly reproducible.
/// for _ in 0..100 {
///     assert_eq!(a.next_record(), b.next_record());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    params: ProfileParams,
    rng: SmallRng,
    stream_cursors: Vec<u64>,
    next_stream: usize,
    mean_gap: f64,
}

impl TraceGenerator {
    /// Creates a generator from explicit profile parameters.
    ///
    /// # Panics
    ///
    /// Panics if `accesses_per_kilo_inst` is not positive, any fraction is
    /// outside `[0, 1]`, or the hot+warm fractions leave no cold accesses.
    #[must_use]
    pub fn new(params: ProfileParams, seed: u64) -> Self {
        assert!(
            params.accesses_per_kilo_inst > 0.0,
            "profile must access memory"
        );
        for frac in [
            params.write_fraction,
            params.dependent_fraction,
            params.hot_fraction,
            params.warm_fraction,
            params.stream_fraction,
        ] {
            assert!((0.0..=1.0).contains(&frac), "fraction {frac} out of range");
        }
        assert!(
            params.hot_fraction + params.warm_fraction <= 1.0,
            "hot + warm fractions exceed 1"
        );
        let streams = params.stream_count.max(1) as u64;
        // Stagger the cursors through the footprint, shifted by one DRAM
        // row (128 blocks) per stream so concurrent streams land on
        // different banks under row-striped mappings.
        let stream_cursors = (0..streams)
            .map(|i| (i * params.footprint_blocks / streams + i * 128) % params.footprint_blocks)
            .collect();
        let mean_gap = (1000.0 / params.accesses_per_kilo_inst - 1.0).max(0.0);
        TraceGenerator {
            params,
            rng: SmallRng::seed_from_u64(seed),
            stream_cursors,
            next_stream: 0,
            mean_gap,
        }
    }

    /// Creates a generator for a named benchmark profile.
    #[must_use]
    pub fn from_benchmark(benchmark: Benchmark, seed: u64) -> Self {
        TraceGenerator::new(benchmark.profile(), seed)
    }

    /// The profile driving this generator.
    #[must_use]
    pub fn params(&self) -> &ProfileParams {
        &self.params
    }

    /// Total block-address footprint (hot + warm + cold); the system
    /// simulator uses this to lay cores out in disjoint address ranges.
    #[must_use]
    pub fn address_space_blocks(&self) -> u64 {
        self.params.hot_blocks + self.params.warm_blocks + self.params.footprint_blocks
    }

    fn sample_gap(&mut self) -> u32 {
        if self.mean_gap <= 0.0 {
            return 0;
        }
        // Exponential inter-arrival, capped.
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let gap = -self.mean_gap * u.ln();
        gap.min(f64::from(MAX_GAP)) as u32
    }

    fn sample_addr(&mut self, op: MemOp) -> BlockAddr {
        let p = self.params;
        let r: f64 = self.rng.gen();
        if r < p.hot_fraction {
            return self.rng.gen_range(0..p.hot_blocks);
        }
        if r < p.hot_fraction + p.warm_fraction {
            // Reads cover the whole warm set; writes concentrate in the
            // profile's warm-write span — programs mutate a smaller set
            // than they read.
            let span = match op {
                MemOp::Read => p.warm_blocks,
                MemOp::Write => p.warm_write_blocks.max(1),
            };
            return p.hot_blocks + self.rng.gen_range(0..span);
        }
        let cold_base = p.hot_blocks + p.warm_blocks;
        // Stores to cold data are more stream-regular than loads: programs
        // write output arrays sequentially even when their reads wander
        // (matrix codes, logs, encoders). Reads use the profile's stream
        // fraction; writes use its three-way union.
        let sf = p.stream_fraction;
        let stream_prob = match op {
            MemOp::Read => sf,
            MemOp::Write => 1.0 - (1.0 - sf).powi(3),
        };
        if self.rng.gen_bool(stream_prob) {
            let s = self.next_stream;
            self.next_stream = (self.next_stream + 1) % self.stream_cursors.len();
            let pos = self.stream_cursors[s];
            self.stream_cursors[s] = (pos + 1) % p.footprint_blocks;
            return cold_base + pos;
        }
        cold_base + self.rng.gen_range(0..p.footprint_blocks)
    }

    /// Produces the next trace record.
    pub fn next_record(&mut self) -> TraceRecord {
        let gap = self.sample_gap();
        let op = if self.rng.gen_bool(self.params.write_fraction) {
            MemOp::Write
        } else {
            MemOp::Read
        };
        let addr = self.sample_addr(op);
        let dependent = op == MemOp::Read && self.rng.gen_bool(self.params.dependent_fraction);
        TraceRecord {
            gap,
            op,
            addr,
            dependent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(benchmark: Benchmark, n: usize, seed: u64) -> Vec<TraceRecord> {
        let mut g = TraceGenerator::from_benchmark(benchmark, seed);
        (0..n).map(|_| g.next_record()).collect()
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            collect(Benchmark::Mcf, 500, 1),
            collect(Benchmark::Mcf, 500, 1)
        );
        assert_ne!(
            collect(Benchmark::Mcf, 500, 1),
            collect(Benchmark::Mcf, 500, 2)
        );
    }

    #[test]
    fn write_fraction_is_respected() {
        let recs = collect(Benchmark::Lbm, 20_000, 3);
        let writes = recs.iter().filter(|r| r.op == MemOp::Write).count();
        let frac = writes as f64 / recs.len() as f64;
        assert!((frac - 0.45).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn gap_matches_access_intensity() {
        let recs = collect(Benchmark::Stream, 20_000, 4);
        let insts: u64 = recs.iter().map(|r| u64::from(r.gap) + 1).sum();
        let apki = recs.len() as f64 / (insts as f64 / 1000.0);
        assert!(
            (apki - 48.0).abs() < 5.0,
            "stream should make ~48 accesses per kilo-instruction, got {apki}"
        );
    }

    #[test]
    fn addresses_stay_in_bounds() {
        let mut g = TraceGenerator::from_benchmark(Benchmark::Bzip2, 5);
        let bound = g.address_space_blocks();
        for _ in 0..10_000 {
            assert!(g.next_record().addr < bound);
        }
    }

    #[test]
    fn streaming_profile_produces_sequential_runs() {
        // Consecutive stream accesses from the same cursor differ by 1;
        // check that windows of addresses contain sequential neighbours for
        // stream, but not for mcf.
        let seq_score = |bench: Benchmark| {
            let recs = collect(bench, 5_000, 9);
            let addrs: Vec<u64> = recs.iter().map(|r| r.addr).collect();
            let mut sequential = 0usize;
            for w in addrs.windows(8) {
                let base = w[0];
                if w.iter().any(|&a| a == base + 1) {
                    sequential += 1;
                }
            }
            sequential as f64 / (addrs.len() - 7) as f64
        };
        assert!(seq_score(Benchmark::Stream) > 0.5);
        assert!(seq_score(Benchmark::Mcf) < 0.2);
    }

    #[test]
    fn tiers_absorb_expected_shares() {
        let mut g = TraceGenerator::from_benchmark(Benchmark::Bzip2, 11);
        let hot = g.params().hot_blocks;
        let warm_end = hot + g.params().warm_blocks;
        let mut hot_n = 0;
        let mut warm_n = 0;
        let total = 20_000;
        for _ in 0..total {
            let a = g.next_record().addr;
            if a < hot {
                hot_n += 1;
            } else if a < warm_end {
                warm_n += 1;
            }
        }
        let hot_share = f64::from(hot_n) / f64::from(total);
        let warm_share = f64::from(warm_n) / f64::from(total);
        assert!((hot_share - 0.70).abs() < 0.02, "hot share {hot_share}");
        assert!((warm_share - 0.25).abs() < 0.02, "warm share {warm_share}");
    }

    #[test]
    fn dependence_marks_reads_only() {
        let recs = collect(Benchmark::Mcf, 20_000, 13);
        assert!(recs
            .iter()
            .filter(|r| r.op == MemOp::Write)
            .all(|r| !r.dependent));
        let reads: Vec<_> = recs.iter().filter(|r| r.op == MemOp::Read).collect();
        let dep = reads.iter().filter(|r| r.dependent).count() as f64 / reads.len() as f64;
        assert!((dep - 0.85).abs() < 0.02, "dependent fraction {dep}");
    }
}
