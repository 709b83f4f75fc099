//! Property-based tests of the assembled system: for *randomized* small
//! configurations and workloads, no mechanism may ever lose dirty data,
//! and runs must be exactly reproducible.

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

fn tiny_config(mechanism: Mechanism, seed: u64, llc_kb: u64) -> SystemConfig {
    let mut c = SystemConfig::for_cores(1, mechanism);
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
    /// every (mechanism, benchmark, seed, LLC size) combination —
    /// randomized coverage of the paper's correctness contract.
    #[test]
    fn no_dirty_data_lost_anywhere(
        mechanism in mechanism_strategy(),
        benchmark in benchmark_strategy(),
        seed in 0u64..1000,
        llc_kb in prop::sample::select(vec![128u64, 256, 512]),
    ) {
        let config = tiny_config(mechanism, seed, llc_kb);
        let result = run_mix(&WorkloadMix::new(vec![benchmark]), &config);
        let check = result.check.expect("checker enabled");
        prop_assert!(
            check.is_ok(),
            "{mechanism} on {benchmark} (seed {seed}, {llc_kb} KB LLC) lost {} writes",
            check.unwrap_err().len()
        );
        let report = result.sanitizer.as_ref().expect("sanitizer enabled");
        prop_assert!(report.is_clean(), "{mechanism} on {benchmark} (seed {seed}, {llc_kb} KB LLC): {}", report);
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
        let config = tiny_config(mechanism, seed, 256);
        let mix = WorkloadMix::new(vec![benchmark]);
        let a = run_mix(&mix, &config);
        let b = run_mix(&mix, &config);
        prop_assert_eq!(&a.cores, &b.cores);
        prop_assert_eq!(&a.dram, &b.dram);
        prop_assert_eq!(&a.llc, &b.llc);
    }
}
