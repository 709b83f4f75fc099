//! Property-based tests of the assembled system: for *randomized* small
//! configurations and workloads, no mechanism may ever lose dirty data,
//! and runs must be exactly reproducible.

use dbi::{Alpha, DbiReplacementPolicy};
use dram_sim::DrainPolicy;
use proptest::prelude::*;
use system_sim::{run_mix, Mechanism, SystemConfig};
use trace_gen::mix::WorkloadMix;
use trace_gen::Benchmark;

fn mechanism_strategy() -> impl Strategy<Value = Mechanism> {
    prop::sample::select(Mechanism::ALL.to_vec())
}

fn benchmark_strategy() -> impl Strategy<Value = Benchmark> {
    prop::sample::select(Benchmark::ALL.to_vec())
}

fn tiny_config(cores: usize, mechanism: Mechanism, seed: u64, llc_kb: u64) -> SystemConfig {
    let mut c = SystemConfig::for_cores(cores, mechanism);
    c.llc_bytes_per_core = llc_kb * 1024;
    c.llc_ways = 16;
    c.warmup_insts = 60_000;
    c.measure_insts = 60_000;
    c.predictor_epoch_cycles = 50_000;
    c.seed = seed;
    c.check = true;
    c.sanitize = true;
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The shadow-memory checker and the invariant sanitizer pass for
    /// every combination of mechanism, 1–2 benchmarks, seed, LLC size,
    /// DBI geometry (α, granularity, associativity, replacement policy),
    /// AWB rewrite filter, L2 DBI and DRAM organisation (drain policy,
    /// channels, bank groups) — randomized coverage of the paper's
    /// correctness contract. Draws the configuration rejects are skipped.
    #[test]
    fn no_dirty_data_lost_anywhere(
        mechanism in mechanism_strategy(),
        benchmarks in prop::collection::vec(benchmark_strategy(), 1..3),
        seed in 0u64..1000,
        llc_kb in prop::sample::select(vec![128u64, 256, 512]),
        alpha in prop::sample::select(vec![Alpha::QUARTER, Alpha::HALF, Alpha::ONE]),
        granularity in prop::sample::select(vec![16usize, 32, 64, 128]),
        associativity in prop::sample::select(vec![2usize, 4, 8, 16, 32, 64]),
        policy in prop::sample::select(DbiReplacementPolicy::ALL.to_vec()),
        rewrite_filter in any::<bool>(),
        l2_dbi in any::<bool>(),
        drain in prop::sample::select(vec![
            DrainPolicy::WhenFull,
            DrainPolicy::Watermark { high: 48, low: 16 },
        ]),
        channels in prop::sample::select(vec![1u32, 2]),
        bank_groups in prop::sample::select(vec![1u32, 2, 4]),
    ) {
        let mut config = tiny_config(benchmarks.len(), mechanism, seed, llc_kb);
        config.dbi.alpha = alpha;
        config.dbi.granularity = granularity;
        config.dbi.associativity = associativity;
        config.dbi.policy = policy;
        config.awb_rewrite_filter = rewrite_filter;
        config.l2_dbi = l2_dbi;
        config.dram.drain_policy = drain;
        config.dram.channels = channels;
        config.dram.bank_groups = bank_groups;
        let l2_blocks = config.l2_bytes / u64::from(config.block_bytes);
        prop_assume!(!mechanism.uses_dbi() || config.dbi.build(config.llc_blocks()).is_ok());
        prop_assume!(!l2_dbi || config.dbi.build(l2_blocks).is_ok());
        prop_assume!(config.dram.validate().is_ok());
        let case = format!(
            "{mechanism} on {benchmarks:?} (seed {seed}, {llc_kb} KB LLC, α {alpha}, \
             granularity {granularity}, {associativity}-way, {policy}, rewrite filter \
             {rewrite_filter}, L2 DBI {l2_dbi}, {drain:?}, {channels} channels, \
             {bank_groups} bank groups)"
        );
        let result = run_mix(&WorkloadMix::new(benchmarks), &config);
        let check = result.check.expect("checker enabled");
        prop_assert!(check.is_ok(), "{} lost {} writes", case, check.unwrap_err().len());
        let report = result.sanitizer.as_ref().expect("sanitizer enabled");
        prop_assert!(report.is_clean(), "{}: {}", case, report);
    }

    /// Identical configurations produce bit-identical results; different
    /// seeds produce different traces (and almost surely different cycle
    /// counts).
    #[test]
    fn runs_reproduce_exactly(
        mechanism in mechanism_strategy(),
        benchmark in benchmark_strategy(),
        seed in 0u64..1000,
    ) {
        let config = tiny_config(1, mechanism, seed, 256);
        let mix = WorkloadMix::new(vec![benchmark]);
        let a = run_mix(&mix, &config);
        let b = run_mix(&mix, &config);
        prop_assert_eq!(&a.cores, &b.cores);
        prop_assert_eq!(&a.dram, &b.dram);
        prop_assert_eq!(&a.llc, &b.llc);
    }
}
