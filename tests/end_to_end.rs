//! Repository-level integration tests, exercised through the `dbi-repro`
//! facade exactly as a downstream user would: the DBI structure, the
//! substrates, and the assembled system must compose.

use dbi_repro::area::storage::{CacheStorage, EccMode};
use dbi_repro::dbi::{Alpha, Dbi, DbiConfig, DbiReplacementPolicy};
use dbi_repro::dram::{DramConfig, MemoryController};
use dbi_repro::sim::{run_mix, Mechanism, SystemConfig};
use dbi_repro::trace::mix::{generate_mixes, WorkloadMix};
use dbi_repro::trace::{Benchmark, TraceGenerator};

fn small_config(cores: usize, mechanism: Mechanism) -> SystemConfig {
    let mut c = SystemConfig::for_cores(cores, mechanism);
    c.llc_bytes_per_core = 256 * 1024;
    c.llc_ways = 16;
    c.warmup_insts = 250_000;
    c.measure_insts = 250_000;
    c.check = true;
    c.sanitize = true;
    c
}

#[test]
fn facade_exposes_the_whole_stack() {
    // One object from each crate, built through the re-exports.
    let dbi = Dbi::new(DbiConfig::for_cache_blocks(4096).unwrap());
    assert_eq!(dbi.dirty_count(), 0);
    let dram = MemoryController::new(DramConfig::ddr3_1066());
    assert_eq!(dram.pending_writes(), 0);
    let mut generator = TraceGenerator::from_benchmark(Benchmark::Mcf, 1);
    let _ = generator.next_record();
    let storage = CacheStorage::paper_cache(2 * 1024 * 1024);
    assert!(
        storage
            .compare(Alpha::QUARTER, 64, EccMode::Secded)
            .tag_store_reduction()
            > 0.0
    );
}

#[test]
fn dbi_mechanisms_preserve_memory_contents() {
    // The headline correctness property through the public API: after a
    // full run + flush, no stored version is lost, for each DBI variant
    // and each replacement policy.
    for policy in [DbiReplacementPolicy::Lrw, DbiReplacementPolicy::MaxDirty] {
        for (awb, clb) in [(false, false), (true, false), (true, true)] {
            let mut config = small_config(1, Mechanism::Dbi { awb, clb });
            config.dbi.policy = policy;
            let r = run_mix(&WorkloadMix::new(vec![Benchmark::GemsFdtd]), &config);
            assert!(
                r.check.expect("checker on").is_ok(),
                "lost writes with policy {policy}, awb={awb}, clb={clb}"
            );
            let report = r.sanitizer.as_ref().expect("sanitizer enabled");
            assert!(
                report.is_clean(),
                "policy {policy}, awb={awb}, clb={clb}: {report}"
            );
        }
    }
}

#[test]
fn paper_headline_shape_holds_in_miniature() {
    // Even at 1/8th-scale LLCs and short runs, the eviction-order baseline
    // must trail DBI+AWB on write row-hit rate, and DAWB must multiply tag
    // traffic while the DBI does not.
    let mix = WorkloadMix::new(vec![Benchmark::Lbm]);
    let tadip = run_mix(&mix, &small_config(1, Mechanism::TaDip));
    let dawb = run_mix(&mix, &small_config(1, Mechanism::Dawb));
    let dbi = run_mix(
        &mix,
        &small_config(
            1,
            Mechanism::Dbi {
                awb: true,
                clb: true,
            },
        ),
    );

    let rhr = |r: &dbi_repro::sim::MixResult| r.dram.write_row_hit_rate().unwrap_or(0.0);
    assert!(
        rhr(&dbi) > rhr(&tadip),
        "AWB must lift the write row-hit rate"
    );
    assert!(
        rhr(&dawb) > rhr(&tadip),
        "DAWB must lift the write row-hit rate"
    );
    assert!(
        dbi.tag_lookups_pki() < dawb.tag_lookups_pki(),
        "the DBI probes only dirty blocks; DAWB probes whole rows"
    );
}

#[test]
fn multiprogrammed_mixes_run_and_verify() {
    let mixes = generate_mixes(2, 3, 7);
    for mix in &mixes {
        let config = small_config(
            2,
            Mechanism::Dbi {
                awb: true,
                clb: true,
            },
        );
        let r = run_mix(mix, &config);
        assert_eq!(r.cores.len(), 2, "{mix}");
        assert!(r.check.expect("checker on").is_ok(), "{mix}");
        let report = r.sanitizer.as_ref().expect("sanitizer enabled");
        assert!(report.is_clean(), "{mix}: {report}");
        assert!(r.cores.iter().all(|c| c.ipc() > 0.0), "{mix}");
    }
}

#[test]
fn dbi_size_bounds_dirty_blocks_in_system_context() {
    // Property 3 of the paper's introduction, observed from outside: with
    // alpha = 1/4, the DBI never reports more dirty blocks than a quarter
    // of the LLC.
    let mut config = small_config(
        1,
        Mechanism::Dbi {
            awb: false,
            clb: false,
        },
    );
    config.check = false;
    let r = run_mix(&WorkloadMix::new(vec![Benchmark::Stream]), &config);
    let dbi_stats = r.dbi.expect("DBI stats present");
    // Evictions occurred, meaning the bound was enforced under pressure.
    assert!(dbi_stats.entry_evictions > 0);
    // The sanitizer's alpha-bound invariant checked it throughout the run.
    let report = r.sanitizer.as_ref().expect("sanitizer enabled");
    assert!(report.is_clean(), "{report}");
}

#[test]
fn ecc_accounting_matches_paper_table4() {
    let storage = CacheStorage::paper_cache(2 * 1024 * 1024);
    let with_ecc = storage.compare(Alpha::QUARTER, 64, EccMode::Secded);
    assert!((with_ecc.tag_store_reduction() - 0.44).abs() < 0.04);
    assert!((with_ecc.cache_reduction() - 0.07).abs() < 0.02);
}
