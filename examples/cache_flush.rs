//! Fast cache flushing and bulk-DMA coherence with the DBI (paper
//! Section 7, "Other Optimizations Enabled by DBI").
//!
//! Flushing a cache region — before powering down a bank, persisting to
//! NVM, or handing pages to a DMA engine — requires finding every dirty
//! block. A conventional cache answers only per-block queries against the
//! tag store; the DBI answers per-DRAM-row queries directly.
//!
//! Run with: `cargo run --release --example cache_flush`

use dbi_repro::dbi::{Dbi, DbiConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = DbiConfig::for_cache_blocks(32 * 1024)?;
    let granularity = config.granularity() as u64;
    let mut dbi = Dbi::new(config);
    let mut writebacks = Vec::new();

    // Dirty a few scattered regions, as a running program would.
    for row in [3u64, 17, 99, 100] {
        for offset in [0u64, 5, 6, 42] {
            dbi.mark_dirty(row * granularity + offset, &mut writebacks);
        }
    }
    println!("dirty blocks tracked: {}", dbi.dirty_count());

    // ------------------------------------------------------------------
    // Bulk DMA: "is anything in rows 99..=100 dirty?" — two DBI queries
    // instead of 128 tag-store lookups.
    // ------------------------------------------------------------------
    for row in [99u64, 100] {
        let dirty: Vec<u64> = dbi.row_dirty_blocks(row * granularity).collect();
        println!(
            "row {row}: {} dirty blocks must be written back before DMA reads it",
            dirty.len()
        );
        // The memory controller would write them back, then clear:
        writebacks.clear();
        assert!(
            dbi.flush_row(row * granularity, &mut writebacks),
            "row is tracked"
        );
        assert_eq!(writebacks, dirty);
    }
    println!("after DMA flush: {} dirty blocks remain", dbi.dirty_count());

    // ------------------------------------------------------------------
    // Whole-cache flush (bank power-down): the DBI enumerates exactly the
    // dirty blocks, already grouped by DRAM row — the ideal writeback
    // order — instead of a brute-force walk over all 32 Ki tag entries.
    // ------------------------------------------------------------------
    let mut total = 0usize;
    let mut bursts = 0usize;
    let mut last_row = None;
    dbi.flush_each(|row, _block| {
        total += 1;
        if last_row != Some(row) {
            bursts += 1;
            last_row = Some(row);
        }
    });
    println!(
        "full flush: {total} writebacks in {bursts} row bursts (visited {bursts} DBI entries, not {} tag entries)",
        32 * 1024,
    );
    assert_eq!(dbi.dirty_count(), 0);
    Ok(())
}
