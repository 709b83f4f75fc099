//! End-to-end tests of the system simulator: functional correctness (no
//! dirty data lost) for every mechanism, determinism, and the qualitative
//! behaviours each mechanism exists to produce.
//!
//! Tests run in debug builds, so they use a scaled-down LLC (256 KB/core)
//! that reaches write steady-state within short runs.

use system_sim::{run_mix, Mechanism, SystemConfig};
use trace_gen::mix::WorkloadMix;
use trace_gen::Benchmark;

/// A small, fast configuration that still exercises every code path.
fn small_config(cores: usize, mechanism: Mechanism) -> SystemConfig {
    let mut c = SystemConfig::for_cores(cores, mechanism);
    c.llc_bytes_per_core = 256 * 1024;
    c.llc_ways = 16;
    c.warmup_insts = 300_000;
    c.measure_insts = 300_000;
    c.predictor_epoch_cycles = 100_000;
    c.check = true;
    c.sanitize = true;
    c
}

#[test]
fn no_mechanism_loses_dirty_data() {
    // The core correctness contract (paper Section 2.2.4), verified by the
    // shadow-memory checker across all nine mechanisms on a write-heavy
    // workload.
    for mechanism in Mechanism::ALL {
        let config = small_config(1, mechanism);
        let result = run_mix(&WorkloadMix::new(vec![Benchmark::Lbm]), &config);
        let check = result.check.expect("checker enabled");
        assert!(
            check.is_ok(),
            "{mechanism}: lost writes: {:?}",
            check.unwrap_err().len()
        );
        let report = result.sanitizer.as_ref().expect("sanitizer enabled");
        assert!(report.is_clean(), "{mechanism}: {report}");
    }
}

#[test]
fn no_mechanism_loses_dirty_data_multicore() {
    let mix = WorkloadMix::new(vec![Benchmark::Lbm, Benchmark::Mcf]);
    for mechanism in [
        Mechanism::Baseline,
        Mechanism::Dawb,
        Mechanism::Vwq,
        Mechanism::SkipCache,
        Mechanism::Dbi {
            awb: true,
            clb: true,
        },
    ] {
        let config = small_config(2, mechanism);
        let result = run_mix(&mix, &config);
        assert!(
            result.check.expect("checker enabled").is_ok(),
            "{mechanism}: lost dirty data in a 2-core run"
        );
        let report = result.sanitizer.as_ref().expect("sanitizer enabled");
        assert!(report.is_clean(), "{mechanism}, 2 cores: {report}");
        assert_eq!(result.cores.len(), 2);
        for core in &result.cores {
            assert!(core.insts >= config.measure_insts);
            assert!(core.cycles > 0);
        }
    }
}

#[test]
fn runs_are_deterministic() {
    let config = small_config(
        2,
        Mechanism::Dbi {
            awb: true,
            clb: true,
        },
    );
    let mix = WorkloadMix::new(vec![Benchmark::GemsFdtd, Benchmark::Libquantum]);
    let a = run_mix(&mix, &config);
    let b = run_mix(&mix, &config);
    assert_eq!(a.cores, b.cores);
    assert_eq!(a.dram, b.dram);
    assert_eq!(a.llc, b.llc);
}

#[test]
fn awb_improves_write_row_hit_rate() {
    // Paper Figure 6b: proactive row-batched writeback lifts the write
    // row-hit rate far above the eviction-order baseline.
    let mix = WorkloadMix::new(vec![Benchmark::Lbm]);
    let tadip = run_mix(&mix, &small_config(1, Mechanism::TaDip));
    let dbi_awb = run_mix(
        &mix,
        &small_config(
            1,
            Mechanism::Dbi {
                awb: true,
                clb: false,
            },
        ),
    );
    let base_rhr = tadip.dram.write_row_hit_rate().expect("writes happened");
    let awb_rhr = dbi_awb.dram.write_row_hit_rate().expect("writes happened");
    // The scaled-down test LLC implies a scaled-down DBI (16 entries), so
    // the batching is weaker than the paper's 0.81 — but the gap over the
    // eviction-order baseline must still be decisive.
    assert!(
        awb_rhr > base_rhr + 0.2,
        "AWB write RHR {awb_rhr:.2} should clearly beat TA-DIP {base_rhr:.2}"
    );
    assert!(awb_rhr > 0.55, "AWB write RHR {awb_rhr:.2} too low");
}

#[test]
fn dawb_multiplies_tag_lookups_dbi_does_not() {
    // Paper Figure 6c / Section 6.1: DAWB sweeps probe every block of the
    // row (1.95x lookups); the DBI probes only blocks that are dirty.
    let mix = WorkloadMix::new(vec![Benchmark::Lbm]);
    let tadip = run_mix(&mix, &small_config(1, Mechanism::TaDip));
    let dawb = run_mix(&mix, &small_config(1, Mechanism::Dawb));
    let dbi = run_mix(
        &mix,
        &small_config(
            1,
            Mechanism::Dbi {
                awb: true,
                clb: false,
            },
        ),
    );
    assert!(
        dawb.tag_lookups_pki() > 1.5 * tadip.tag_lookups_pki(),
        "DAWB {:.1} PKI should dwarf TA-DIP {:.1} PKI",
        dawb.tag_lookups_pki(),
        tadip.tag_lookups_pki()
    );
    // The mechanisms differ exactly in their *background* probes (sweeps and
    // DBI-eviction writebacks): DAWB probes every block of the row while the
    // DBI probes only the dirty ones, so compare that quantity directly —
    // the total-PKI ratio is diluted by demand traffic that is identical
    // across mechanisms and is sensitive to the trace stream.
    let background = |r: &system_sim::MixResult| {
        r.llc.tag_lookups - (r.llc.demand_reads - r.llc.bypasses) - r.llc.writebacks_received
    };
    assert!(
        2 * background(&dbi) < background(&dawb),
        "DBI+AWB background probes ({}) should be far fewer than DAWB's ({})",
        background(&dbi),
        background(&dawb)
    );
    assert!(
        dbi.tag_lookups_pki() < dawb.tag_lookups_pki(),
        "DBI+AWB {:.1} PKI must stay under DAWB {:.1} PKI",
        dbi.tag_lookups_pki(),
        dawb.tag_lookups_pki()
    );
}

#[test]
fn clb_bypasses_llc_misses_for_thrashing_workloads() {
    // Paper Section 3.2: a high-miss-rate application (libquantum) gets its
    // lookups bypassed; a cache-friendly one (bzip2) does not.
    let config = small_config(
        1,
        Mechanism::Dbi {
            awb: false,
            clb: true,
        },
    );
    let thrash = run_mix(&WorkloadMix::new(vec![Benchmark::Libquantum]), &config);
    assert!(
        thrash.llc.bypasses > 0,
        "libquantum should trigger lookup bypass"
    );
    // A cache-friendlier workload bypasses far less. (At this scaled-down
    // LLC size even bzip2 misses sometimes, so the contrast is relative;
    // the absolute never-bypass case is unit-tested in the predictor.)
    let friendly = run_mix(&WorkloadMix::new(vec![Benchmark::Bzip2]), &config);
    let thrash_pki = thrash.llc.bypasses as f64 * 1000.0 / thrash.total_insts() as f64;
    let friendly_pki = friendly.llc.bypasses as f64 * 1000.0 / friendly.total_insts() as f64;
    assert!(
        friendly_pki < thrash_pki / 3.0,
        "bzip2 bypass rate {friendly_pki:.1} PKI should be far below libquantum's {thrash_pki:.1} PKI"
    );
    // Correctness under bypass is covered by the checker and sanitizer.
    assert!(thrash.check.expect("enabled").is_ok());
    let report = thrash.sanitizer.as_ref().expect("sanitizer enabled");
    assert!(report.is_clean(), "libquantum under CLB: {report}");
}

#[test]
fn skip_cache_is_write_through() {
    // Every writeback the Skip-Cache LLC receives goes to memory.
    let config = small_config(1, Mechanism::SkipCache);
    let r = run_mix(&WorkloadMix::new(vec![Benchmark::Lbm]), &config);
    assert!(r.llc.writebacks_received > 0);
    assert!(
        r.llc.dram_writes() >= r.llc.writebacks_received,
        "write-through must forward every writeback ({} received, {} written)",
        r.llc.writebacks_received,
        r.llc.dram_writes()
    );
}

#[test]
fn dbi_bounds_dirty_population() {
    // The DBI caps dirty blocks at alpha × LLC blocks; stats must show
    // evictions once the write working set exceeds that.
    let config = small_config(
        1,
        Mechanism::Dbi {
            awb: false,
            clb: false,
        },
    );
    let r = run_mix(&WorkloadMix::new(vec![Benchmark::Stream]), &config);
    let dbi = r.dbi.expect("DBI mechanism records stats");
    assert!(dbi.mark_requests > 0);
    assert!(
        dbi.entry_evictions > 0,
        "stream's write footprint must overflow the DBI"
    );
    assert!(dbi.eviction_writebacks > 0);
}

#[test]
fn alone_runs_use_full_llc_geometry() {
    let config = small_config(4, Mechanism::Baseline);
    let r = system_sim::run_alone(Benchmark::Milc, &config);
    assert_eq!(r.cores.len(), 1);
    assert!(r.cores[0].ipc() > 0.0);
}

#[test]
fn interference_slows_cores_down() {
    // A core sharing the LLC with three write-heavy neighbours must be
    // slower than when it runs alone.
    let config = small_config(4, Mechanism::Baseline);
    let alone = system_sim::run_alone(Benchmark::Sphinx3, &config);
    let mix = WorkloadMix::new(vec![
        Benchmark::Sphinx3,
        Benchmark::Lbm,
        Benchmark::Stream,
        Benchmark::Stream,
    ]);
    let shared = run_mix(&mix, &config);
    assert!(
        shared.cores[0].ipc() < alone.cores[0].ipc(),
        "shared {:.3} must be below alone {:.3}",
        shared.cores[0].ipc(),
        alone.cores[0].ipc()
    );
}

#[test]
fn drrip_llc_works_with_every_dbi_variant() {
    // Section 6.5: the DBI composes with a better replacement policy.
    for mechanism in [
        Mechanism::TaDip,
        Mechanism::Dawb,
        Mechanism::Dbi {
            awb: true,
            clb: true,
        },
    ] {
        let mut config = small_config(1, mechanism);
        config.llc_replacement = cache_sim::ReplacementKind::Rrip;
        let r = run_mix(&WorkloadMix::new(vec![Benchmark::GemsFdtd]), &config);
        assert!(
            r.check.expect("checker on").is_ok(),
            "{mechanism} under DRRIP lost dirty data"
        );
        let report = r.sanitizer.as_ref().expect("sanitizer enabled");
        assert!(report.is_clean(), "{mechanism} under DRRIP: {report}");
        assert!(r.cores[0].ipc() > 0.0);
    }
}

#[test]
#[ignore = "long randomized stress run; invoke explicitly with --ignored"]
fn stress_many_seeds_and_mechanisms() {
    for seed in 0..20u64 {
        for mechanism in Mechanism::ALL {
            let mut config = small_config(2, mechanism);
            config.seed = seed;
            let mix = WorkloadMix::new(vec![
                Benchmark::ALL[(seed as usize) % 14],
                Benchmark::ALL[(seed as usize + 7) % 14],
            ]);
            let r = run_mix(&mix, &config);
            assert!(
                r.check.expect("checker on").is_ok(),
                "{mechanism} seed {seed} lost dirty data"
            );
            let report = r.sanitizer.as_ref().expect("sanitizer enabled");
            assert!(report.is_clean(), "{mechanism} seed {seed}: {report}");
        }
    }
}

#[test]
fn l2_dbi_extension_preserves_correctness_and_batches_writebacks() {
    // Paper Section 7: the DBI "can also be employed at other cache
    // levels". With per-core L2 DBIs, L2 -> LLC writebacks arrive in
    // DRAM-row batches; dirty data must still never be lost.
    let mut with_l2 = small_config(
        1,
        Mechanism::Dbi {
            awb: true,
            clb: false,
        },
    );
    with_l2.l2_dbi = true;
    let r = run_mix(&WorkloadMix::new(vec![Benchmark::Lbm]), &with_l2);
    assert!(
        r.check.expect("checker on").is_ok(),
        "L2 DBI lost dirty data"
    );
    let report = r.sanitizer.as_ref().expect("sanitizer enabled");
    assert!(report.is_clean(), "L2 DBI: {report}");
    assert!(r.llc.writebacks_received > 0);

    // And under every base mechanism, since the L2 organization is
    // orthogonal to the LLC mechanism.
    for mechanism in [Mechanism::Baseline, Mechanism::Dawb, Mechanism::SkipCache] {
        let mut config = small_config(1, mechanism);
        config.l2_dbi = true;
        let r = run_mix(&WorkloadMix::new(vec![Benchmark::GemsFdtd]), &config);
        assert!(
            r.check.expect("checker on").is_ok(),
            "{mechanism} with L2 DBI lost dirty data"
        );
        let report = r.sanitizer.as_ref().expect("sanitizer enabled");
        assert!(report.is_clean(), "{mechanism} with L2 DBI: {report}");
    }
}
