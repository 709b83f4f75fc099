//! Heterogeneous ECC with the DBI (paper Section 3.3).
//!
//! Clean blocks only need error *detection* — on a detected error the data
//! can be re-fetched from memory. Dirty blocks hold the only copy, so they
//! need error *correction*. Since the DBI is the authoritative source of
//! dirtiness, it is sufficient to keep strong ECC for exactly the blocks
//! the DBI tracks. This example walks the arithmetic of Table 4 and the
//! capacity bound that makes it work: the strong-ECC store needs one entry
//! per block the DBI can track, not one per cache block.
//!
//! Run with: `cargo run --release --example heterogeneous_ecc`

use dbi_repro::area::storage::{CacheStorage, EccMode};
use dbi_repro::dbi::{Alpha, DbiConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ------------------------------------------------------------------
    // 1. The storage accounting (paper Table 4).
    // ------------------------------------------------------------------
    let storage = CacheStorage::paper_cache(2 * 1024 * 1024);
    println!("2 MB LLC metadata accounting:");
    for (label, ecc) in [
        ("without ECC", EccMode::None),
        ("with ECC", EccMode::Secded),
    ] {
        let cmp = storage.compare(Alpha::QUARTER, 64, ecc);
        println!(
            "  {label:12} tag store {:>9} -> {:>9} bits  ({:+.1}%), whole cache {:+.1}%",
            cmp.conventional_tag_bits,
            cmp.dbi_metadata_bits(),
            -100.0 * cmp.tag_store_reduction(),
            -100.0 * cmp.cache_reduction(),
        );
    }
    println!("  (paper: -44% tag store, -7% cache, at alpha = 1/4 with ECC)\n");

    // ------------------------------------------------------------------
    // 2. The capacity bound: strong ECC is needed only for the blocks the
    //    DBI can mark dirty, so the ECC side-store is sized by alpha, not
    //    by the cache — the paper's property 3.
    // ------------------------------------------------------------------
    let config = DbiConfig::for_cache_blocks(storage.blocks())?;
    let capacity = config.tracked_blocks();
    assert_eq!(capacity, Alpha::QUARTER.apply(config.cache_blocks()));
    println!(
        "ECC entries needed: at most {capacity} (alpha = {} of {} blocks), not {}",
        config.alpha(),
        config.cache_blocks(),
        config.cache_blocks(),
    );
    Ok(())
}
