//! The per-record path allocates nothing: a run's heap allocation count
//! depends on its configuration, not on how many records it executes.
//!
//! This file is its own test binary with a counting global allocator, and
//! it holds a single test, so no other test allocates alongside it. The
//! count is kept per thread, so the harness's own threads do not show up
//! either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use system_sim::{CheckpointCadence, Mechanism, SimSession, SystemConfig};
use trace_gen::mix::WorkloadMix;
use trace_gen::Benchmark;

/// Counts every allocation and reallocation made on the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this
        // call, which is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this
        // call, which is passed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this
        // call, which is passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this
        // call, which is passed on unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by one whole run — construction, every record, the
/// result — of `mix` with `insts` warmup and `insts` measured
/// instructions per core.
fn allocations(mix: &WorkloadMix, config: &SystemConfig, insts: u64) -> u64 {
    let mut config = config.clone();
    config.warmup_insts = insts;
    config.measure_insts = insts;
    // A checkpoint cadence that never falls due keeps the run on this
    // thread: the inline form, with no helper thread and no snapshot.
    let session = SimSession::new(mix, &config).cadence(CheckpointCadence::EveryRecords(u64::MAX));
    let before = ALLOCATIONS.with(Cell::get);
    let result = session.run().expect("no resume bytes").into_result();
    drop(result);
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn dbi_awb_clb_allocations_do_not_grow_with_the_window() {
    let mix = WorkloadMix::new(vec![
        Benchmark::Lbm,
        Benchmark::Stream,
        Benchmark::GemsFdtd,
        Benchmark::Soplex,
    ]);
    let window = 25_000;
    for l2_dbi in [false, true] {
        let mut config = SystemConfig::for_cores(
            4,
            Mechanism::Dbi {
                awb: true,
                clb: true,
            },
        );
        config.l2_dbi = l2_dbi;
        let short = allocations(&mix, &config, window);
        let long = allocations(&mix, &config, 4 * window);
        assert_eq!(
            long,
            short,
            "L2 DBI {l2_dbi}: {short} allocations over {window} instructions per core, \
             {long} over {}",
            4 * window
        );
    }
}
