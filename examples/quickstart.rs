//! Quickstart: the Dirty-Block Index in five minutes.
//!
//! Builds a paper-default DBI, walks through the four operations of
//! Section 2.2 (writeback, query, cache eviction, DBI eviction), then runs
//! a miniature end-to-end simulation comparing the baseline LLC against
//! DBI+AWB+CLB.
//!
//! Run with: `cargo run --release --example quickstart`

use dbi_repro::dbi::{Dbi, DbiConfig};
use dbi_repro::sim::{run_mix, Mechanism, SystemConfig};
use dbi_repro::trace::mix::WorkloadMix;
use dbi_repro::trace::Benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ------------------------------------------------------------------
    // 1. The structure itself (paper Section 2).
    // ------------------------------------------------------------------
    // A DBI sized for a 2 MB cache (32 Ki blocks of 64 B): alpha = 1/4,
    // granularity 64, 16-way, LRW replacement — the paper's Table 1 row.
    let config = DbiConfig::for_cache_blocks(32 * 1024)?;
    println!(
        "DBI geometry: {} entries x {} blocks = {} tracked blocks ({} sets x {} ways)",
        config.entries(),
        config.granularity(),
        config.tracked_blocks(),
        config.sets(),
        config.associativity(),
    );
    let mut dbi = Dbi::new(config);

    // A writeback request arrives for block 5 of DRAM row 3 (Section 2.2.2).
    // A DBI eviction would append the writebacks it forces (Section 2.2.4):
    let mut writebacks = Vec::new();
    assert!(dbi.mark_dirty(3 * 64 + 5, &mut writebacks));
    assert!(writebacks.is_empty());

    // Any dirty-status query goes to the DBI, not the tag store:
    assert!(dbi.is_dirty(3 * 64 + 5));
    assert!(!dbi.is_dirty(3 * 64 + 6));

    // One query lists every dirty block of a DRAM row — the query that
    // makes DRAM-aware writeback cheap (Section 3.1):
    dbi.mark_dirty(3 * 64 + 9, &mut writebacks);
    let row: Vec<u64> = dbi.row_dirty_blocks(3 * 64).collect();
    println!("dirty blocks of row 3: {row:?}");

    // A cache eviction of a dirty block clears its bit (Section 2.2.3):
    assert!(dbi.clear_dirty(3 * 64 + 5));

    // ------------------------------------------------------------------
    // 2. The system (paper Section 6, in miniature).
    // ------------------------------------------------------------------
    let mix = WorkloadMix::new(vec![Benchmark::Lbm]);
    let mut system = SystemConfig::for_cores(1, Mechanism::Baseline);
    system.warmup_insts = 3_000_000;
    system.measure_insts = 1_000_000;
    system.llc_bytes_per_core = 512 * 1024; // small LLC so the demo is quick

    let baseline = run_mix(&mix, &system);
    system.mechanism = Mechanism::Dbi {
        awb: true,
        clb: true,
    };
    let with_dbi = run_mix(&mix, &system);

    println!(
        "\nlbm on a 512 KB LLC ({} measured instructions):",
        baseline.total_insts()
    );
    println!(
        "  Baseline     IPC {:.3}, write row-hit rate {:.0}%",
        baseline.cores[0].ipc(),
        100.0 * baseline.dram.write_row_hit_rate().unwrap_or(0.0),
    );
    println!(
        "  DBI+AWB+CLB  IPC {:.3}, write row-hit rate {:.0}%",
        with_dbi.cores[0].ipc(),
        100.0 * with_dbi.dram.write_row_hit_rate().unwrap_or(0.0),
    );
    println!(
        "  speedup {:+.1}%",
        (with_dbi.cores[0].ipc() / baseline.cores[0].ipc() - 1.0) * 100.0
    );
    Ok(())
}
