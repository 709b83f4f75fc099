//! Microbenchmarks of the DBI structure — the latency/bandwidth claims of
//! paper Section 2: dirty-status queries and whole-row listings against a
//! DBI are far cheaper than scanning a full tag store, and the structure
//! sustains high mark/clear throughput.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dbi::{Dbi, DbiConfig};

/// A tag-store stand-in for the comparison: finding all dirty blocks of a
/// DRAM row in a conventional cache requires one set probe per block of
/// the row. This simulates those 64 independent probes.
struct TagStoreScan {
    /// `sets[set][way] = (block, dirty)` — 2048 sets × 16 ways.
    sets: Vec<Vec<(u64, bool)>>,
}

impl TagStoreScan {
    fn new() -> Self {
        let mut sets: Vec<Vec<(u64, bool)>> = (0..2048).map(|_| Vec::with_capacity(16)).collect();
        for b in 0..(2048 * 16u64) {
            let set = (b % 2048) as usize;
            sets[set].push((b, b % 7 == 0));
        }
        TagStoreScan { sets }
    }

    fn row_dirty_blocks(&self, row_base: u64, granularity: u64) -> Vec<u64> {
        (row_base..row_base + granularity)
            .filter(|&b| {
                let set = (b % 2048) as usize;
                self.sets[set].iter().any(|&(blk, dirty)| blk == b && dirty)
            })
            .collect()
    }
}

fn paper_dbi() -> Dbi {
    // 2 MB LLC geometry: 32k blocks, alpha 1/4, granularity 64, 16-way.
    Dbi::new(DbiConfig::for_cache_blocks(32 * 1024).expect("paper geometry"))
}

fn bench_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("dbi_query");
    let mut dbi = paper_dbi();
    for b in (0..8192u64).step_by(3) {
        dbi.mark_dirty(b, &mut Vec::new());
    }
    group.bench_function("is_dirty", |bencher| {
        let mut addr = 0u64;
        bencher.iter(|| {
            addr = (addr + 97) % 32768;
            black_box(dbi.is_dirty(black_box(addr)))
        });
    });
    group.bench_function("row_dirty_blocks_dbi", |bencher| {
        let mut row = 0u64;
        bencher.iter(|| {
            row = (row + 1) % 128;
            black_box(dbi.row_dirty_blocks(row * 64).count())
        });
    });
    let tag_store = TagStoreScan::new();
    group.bench_function("row_dirty_blocks_tag_store_scan", |bencher| {
        let mut row = 0u64;
        bencher.iter(|| {
            row = (row + 1) % 128;
            black_box(tag_store.row_dirty_blocks(row * 64, 64).len())
        });
    });
    group.finish();
}

fn bench_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("dbi_update");
    group.bench_function("mark_dirty_streaming", |bencher| {
        let mut dbi = paper_dbi();
        let mut writebacks = Vec::new();
        let mut b = 0u64;
        bencher.iter(|| {
            b += 1;
            writebacks.clear();
            black_box(dbi.mark_dirty(black_box(b % (1 << 20)), &mut writebacks))
        });
    });
    group.bench_function("mark_dirty_random_rows", |bencher| {
        let mut dbi = paper_dbi();
        let mut writebacks = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        bencher.iter(|| {
            // xorshift: worst case, every mark in a different row.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            writebacks.clear();
            black_box(dbi.mark_dirty(black_box(x % (1 << 24)), &mut writebacks))
        });
    });
    group.bench_function("mark_then_clear", |bencher| {
        let mut dbi = paper_dbi();
        let mut writebacks = Vec::new();
        let mut b = 0u64;
        bencher.iter(|| {
            b += 1;
            let addr = b % 8192;
            writebacks.clear();
            dbi.mark_dirty(addr, &mut writebacks);
            black_box(dbi.clear_dirty(addr))
        });
    });
    group.finish();
}

fn bench_flush(c: &mut Criterion) {
    c.bench_function("dbi_flush_each_full", |bencher| {
        bencher.iter_batched(
            || {
                let mut dbi = paper_dbi();
                for b in 0..8192u64 {
                    dbi.mark_dirty(b, &mut Vec::new());
                }
                dbi
            },
            |mut dbi| {
                let mut n = 0u64;
                dbi.flush_each(|_row, _block| n += 1);
                black_box(n)
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

criterion_group!(benches, bench_queries, bench_updates, bench_flush);
criterion_main!(benches);
