//! The per-record path allocates nothing: a run's heap allocation count
//! depends on its configuration, not on how many records it executes.
//!
//! This file is its own test binary with a counting global allocator, and
//! it holds a single test, so no other test allocates alongside it. The
//! count is kept per thread, so the harness's own threads do not show up
//! either. The test pins itself to one CPU, which leaves a run no CPU to
//! spare for a helper thread: every record steps inline, on the counted
//! thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use system_sim::{run_mix, Mechanism, SystemConfig};
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
    let before = ALLOCATIONS.with(Cell::get);
    let result = run_mix(mix, &config);
    drop(result);
    ALLOCATIONS.with(Cell::get) - before
}

/// Pins the calling thread to the first CPU it may run on, so that the
/// process reads one available CPU. It must run before the first
/// simulation, which reads the CPU count once for the whole process.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: pid 0 names the calling thread, and each call reads or
    // writes at most `size` bytes of a mask that holds that many.
    let got = unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) };
    assert_eq!(got, 0, "read this thread's CPU mask");
    let word = mask.iter().position(|&w| w != 0).expect("a CPU to run on");
    let mut one = [0u64; 16];
    one[word] = 1 << mask[word].trailing_zeros();
    // SAFETY: as above.
    let set = unsafe { sched_setaffinity(0, size, one.as_ptr()) };
    assert_eq!(set, 0, "pin this thread to one CPU");
}

#[test]
fn dbi_awb_clb_allocations_do_not_grow_with_the_window() {
    #[cfg(target_os = "linux")]
    pin_to_one_cpu();
    assert_eq!(
        std::thread::available_parallelism().map(usize::from).ok(),
        Some(1),
        "a spare CPU would move the front ends to a helper thread"
    );
    let mix = WorkloadMix::new(vec![
        Benchmark::Lbm,
        Benchmark::Stream,
        Benchmark::GemsFdtd,
        Benchmark::Soplex,
    ]);
    let window = 25_000;
    // The first run reads the CPU count, once for the process; it is not
    // compared.
    allocations(
        &mix,
        &SystemConfig::for_cores(4, Mechanism::Baseline),
        1_000,
    );
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
