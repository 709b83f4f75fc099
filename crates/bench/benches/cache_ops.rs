//! Microbenchmarks of the cache substrate: the demand access path, the
//! tag walk at the private L2's and the 8-core LLC's geometries, and the
//! auxiliary structures
//! (dueling selector, miss predictor, SSV refresh) that the LLC mechanisms
//! lean on.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cache_sim::dueling::DuelingSelector;
use cache_sim::predictor::{MissPredictor, MissPredictorConfig};
use cache_sim::ssv::SetStateVector;
use cache_sim::{Cache, CacheConfig, InsertPos};

fn llc() -> Cache {
    Cache::new(CacheConfig::new(2 * 1024 * 1024, 16, 64).expect("paper LLC"))
}

fn bench_access_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_access");
    group.bench_function("touch_hit", |bencher| {
        let mut cache = llc();
        for b in 0..32 * 1024u64 {
            cache.insert(b, 0, InsertPos::Mru, false);
        }
        let mut b = 0u64;
        bencher.iter(|| {
            b = (b + 4097) % (32 * 1024);
            black_box(cache.touch(black_box(b)))
        });
    });
    group.bench_function("miss_fill_evict", |bencher| {
        let mut cache = llc();
        let mut b = 0u64;
        bencher.iter(|| {
            b += 1;
            black_box(cache.insert(black_box(b), 0, InsertPos::Mru, b.is_multiple_of(3)))
        });
    });
    group.bench_function("dirty_probe_rank", |bencher| {
        let mut cache = llc();
        for b in 0..32 * 1024u64 {
            cache.insert(b, 0, InsertPos::Mru, false);
        }
        let mut b = 0u64;
        bencher.iter(|| {
            b = (b + 31) % (32 * 1024);
            black_box(cache.dirty().probe(black_box(b)).map(|p| p.rank))
        });
    });
    group.bench_function("dirty_in_lru_ways", |bencher| {
        let mut cache = llc();
        for b in 0..32 * 1024u64 {
            cache.insert(b, 0, InsertPos::Mru, b % 5 == 0);
        }
        let mut b = 0u64;
        bencher.iter(|| {
            b = (b + 31) % (32 * 1024);
            let set = cache.set_of(black_box(b));
            black_box(cache.dirty().in_lru_ways(set, 4))
        });
    });
    group.finish();
}

/// A cache of `bytes` and `ways` with every way of every set filled.
fn full(bytes: u64, ways: usize) -> Cache {
    let mut cache = Cache::new(CacheConfig::new(bytes, ways, 64).expect("valid geometry"));
    for b in 0..cache.config().blocks() {
        cache.insert(b, 0, InsertPos::Mru, false);
    }
    cache
}

/// The 8-core LLC (`oct_light`): 16 MiB, 32 ways, 8192 sets, full.
fn llc_oct() -> Cache {
    full(16 * 1024 * 1024, 32)
}

const LLC_OCT_BLOCKS: u64 = 256 * 1024;

/// An odd stride that moves 2731 sets (of 8192) and five tags per access,
/// so consecutive accesses land in far-apart sets.
const SCATTER: u64 = 5 * 8192 + 2731;

fn bench_llc_tag_walk(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_llc_32way");
    group.bench_function("touch_hit", |bencher| {
        let mut cache = llc_oct();
        let mut b = 0u64;
        bencher.iter(|| {
            b = (b + SCATTER) % LLC_OCT_BLOCKS;
            black_box(cache.touch(black_box(b)))
        });
    });
    // A miss walks all 32 tags of a full set.
    group.bench_function("touch_miss", |bencher| {
        let mut cache = llc_oct();
        let mut b = 0u64;
        bencher.iter(|| {
            b = (b + SCATTER) % LLC_OCT_BLOCKS;
            black_box(cache.touch(black_box(b + LLC_OCT_BLOCKS)))
        });
    });
    // The demand-miss path: the missing lookup, then the fill that evicts
    // the set's LRU way.
    group.bench_function("miss_insert", |bencher| {
        let mut cache = llc_oct();
        let mut b = LLC_OCT_BLOCKS;
        bencher.iter(|| {
            b += SCATTER;
            let hit = cache.touch(black_box(b));
            black_box((hit, cache.insert(b, 0, InsertPos::Mru, false)))
        });
    });
    // A fill after a known miss into a full set: the LRU way's eviction
    // plus the MRU placement, with no residency walk.
    group.bench_function("evict_full_set", |bencher| {
        let mut cache = llc_oct();
        let mut b = LLC_OCT_BLOCKS;
        bencher.iter(|| {
            b += SCATTER;
            black_box(cache.fill(black_box(b), 0, InsertPos::Mru, false))
        });
    });
    // A store hit: promote and set the dirty bit in one tag walk.
    group.bench_function("touch_dirty_hit", |bencher| {
        let mut cache = llc_oct();
        let mut b = 0u64;
        bencher.iter(|| {
            b = (b + SCATTER) % LLC_OCT_BLOCKS;
            black_box(cache.touch_dirty(black_box(b)))
        });
    });
    group.finish();
}

/// The private L2 of every system: 256 KiB, 8 ways, 512 sets, full.
const L2_BLOCKS: u64 = 4096;

/// An odd stride that moves 171 sets (of 512) and five tags per access.
const L2_SCATTER: u64 = 5 * 512 + 171;

fn bench_l2_tag_walk(c: &mut Criterion) {
    let l2 = || full(L2_BLOCKS * 64, 8);
    let mut group = c.benchmark_group("cache_l2_8way");
    group.bench_function("touch_hit", |bencher| {
        let mut cache = l2();
        let mut b = 0u64;
        bencher.iter(|| {
            b = (b + L2_SCATTER) % L2_BLOCKS;
            black_box(cache.touch(black_box(b)))
        });
    });
    // A miss walks all 8 tags of a full set.
    group.bench_function("touch_miss", |bencher| {
        let mut cache = l2();
        let mut b = 0u64;
        bencher.iter(|| {
            b = (b + L2_SCATTER) % L2_BLOCKS;
            black_box(cache.touch(black_box(b + L2_BLOCKS)))
        });
    });
    // The demand-miss path: the missing lookup, then the fill that evicts
    // the set's LRU way.
    group.bench_function("miss_insert", |bencher| {
        let mut cache = l2();
        let mut b = L2_BLOCKS;
        bencher.iter(|| {
            b += L2_SCATTER;
            let hit = cache.touch(black_box(b));
            black_box((hit, cache.insert(b, 0, InsertPos::Mru, false)))
        });
    });
    group.finish();
}

fn bench_side_structures(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_side_structures");
    group.bench_function("dueling_choose", |bencher| {
        let duel = DuelingSelector::new(2048, 32, 8, 10);
        let mut set = 0u64;
        bencher.iter(|| {
            set = (set + 7) % 2048;
            black_box(duel.choose(black_box(set), (set % 8) as u8))
        });
    });
    group.bench_function("predictor_should_bypass", |bencher| {
        let pred = MissPredictor::new(MissPredictorConfig::default(), 2048, 8);
        let mut set = 0u64;
        bencher.iter(|| {
            set = (set + 7) % 2048;
            black_box(pred.should_bypass((set % 8) as u8, black_box(set)))
        });
    });
    group.bench_function("ssv_refresh", |bencher| {
        let mut cache = llc();
        for b in 0..32 * 1024u64 {
            cache.insert(b, 0, InsertPos::Mru, b % 5 == 0);
        }
        let mut ssv = SetStateVector::new(2048, 4);
        let mut b = 0u64;
        bencher.iter(|| {
            b = (b + 13) % (32 * 1024);
            black_box(ssv.refresh(&cache, black_box(b)))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_access_path,
    bench_llc_tag_walk,
    bench_l2_tag_walk,
    bench_side_structures
);
criterion_main!(benches);
