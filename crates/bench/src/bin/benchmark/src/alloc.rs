//! Heap-allocation counting and peak resident memory.
//!
//! The same shim idea as `perf_baseline`'s counting allocator, kept here
//! so the benchmark needs no change to program code. The count is per
//! thread, so a unit's allocations can be read around its `run()` call
//! even while the `campaign` workload runs two units at once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread's last deallocations can run after its
    // thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// Counts every allocation and reallocation on the calling thread.
pub struct CountingAllocator;

// SAFETY: every method forwards to the system allocator with the
// caller's arguments unchanged; the counter is a plain thread-local cell
// that never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made by the calling thread so far.
pub fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Resets this process's peak resident set size (`VmHWM`) to its
/// current resident set size.
///
/// # Errors
///
/// Fails when `/proc/self/clear_refs` cannot be written.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// Fails when `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
