//! # dbi-bench — shared support for the experiment harness
//!
//! Every table and figure of the paper's evaluation (Section 6) has a
//! regenerating binary in `src/bin/`; this library holds the pieces they
//! share: effort scaling, workload-mix counts, alone-IPC baselines for the
//! speedup metrics, and plain-text table formatting.
//!
//! Run any binary with `--quick` for a CI-scale pass, the default for a
//! laptop-scale reproduction, or `--full` for the paper's own workload
//! counts (102 / 259 / 120 mixes). Every binary parses its arguments
//! through [`BenchArgs::parse`] and submits its simulations through the
//! [`Runner`], which flattens nested (mechanism × mix) loops into one
//! parallel work list and memoizes results in a persistent store under
//! `results/.cache/` (see the `store` module).

pub mod args;
pub mod failpoints;
mod persist;
pub mod runner;
pub mod scrub;
pub mod store;

pub use crate::args::BenchArgs;
pub use crate::runner::{interrupted, AloneIpcCache, RunUnit, Runner, UnitFailure, UnitFault};
pub use crate::scrub::{scrub_store, ScrubReport};
pub use crate::store::{
    fingerprint_hash, unit_fingerprint, unit_key, ResultStore, StoreKey, STORE_SCHEMA_VERSION,
};

use system_sim::{Mechanism, SystemConfig};

/// How much work an experiment binary should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Smoke-test scale: minutes for the whole suite.
    Quick,
    /// Laptop scale (default): shape-faithful, tens of minutes end to end.
    Default,
    /// The paper's own workload counts.
    Full,
}

impl Effort {
    /// Number of multi-programmed mixes per core count (paper: 102 / 259 /
    /// 120 for 2 / 4 / 8 cores).
    #[must_use]
    pub fn mix_count(self, cores: usize) -> usize {
        match (self, cores) {
            (Effort::Quick, 2) => 6,
            (Effort::Quick, 4) => 6,
            (Effort::Quick, _) => 4,
            (Effort::Default, 2) => 14,
            (Effort::Default, 4) => 12,
            (Effort::Default, _) => 8,
            (Effort::Full, 2) => 102,
            (Effort::Full, 4) => 259,
            (Effort::Full, _) => 120,
        }
    }

    /// Measurement-window length per core.
    #[must_use]
    pub fn measure_insts(self) -> u64 {
        match self {
            Effort::Quick => 2_000_000,
            Effort::Default | Effort::Full => 4_000_000,
        }
    }

    /// Warmup length per core (must reach LLC dirty steady state).
    #[must_use]
    pub fn warmup_insts(self) -> u64 {
        match self {
            Effort::Quick => 8_000_000,
            Effort::Default | Effort::Full => 12_000_000,
        }
    }
}

/// The mechanisms plotted in Figures 6 and 7 (the paper omits Baseline
/// from Figure 6 and Skip Cache from both; see Section 6).
pub const FIGURE_MECHANISMS: [Mechanism; 7] = [
    Mechanism::TaDip,
    Mechanism::Dawb,
    Mechanism::Vwq,
    Mechanism::Dbi {
        awb: false,
        clb: false,
    },
    Mechanism::Dbi {
        awb: true,
        clb: false,
    },
    Mechanism::Dbi {
        awb: false,
        clb: true,
    },
    Mechanism::Dbi {
        awb: true,
        clb: true,
    },
];

/// Builds a [`SystemConfig`] at the given effort level.
#[must_use]
pub fn config_for(cores: usize, mechanism: Mechanism, effort: Effort) -> SystemConfig {
    let mut c = SystemConfig::for_cores(cores, mechanism);
    c.warmup_insts = effort.warmup_insts();
    c.measure_insts = effort.measure_insts();
    c
}

/// Prints an aligned table: a header row, then data rows. The first column
/// is left-aligned, the rest right-aligned at `width`.
pub fn print_table(first_width: usize, width: usize, header: &[String], rows: &[Vec<String>]) {
    let print_row = |cells: &[String]| {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i == 0 {
                line.push_str(&format!("{cell:<first_width$}"));
            } else {
                line.push_str(&format!(" {cell:>width$}"));
            }
        }
        println!("{line}");
    };
    print_row(header);
    for row in rows {
        print_row(row);
    }
}

/// Maps `f` over `items` on all available cores (scoped threads over a
/// shared work queue). Results come back in input order; on a single-core
/// machine this degenerates to a serial loop.
///
/// Simulation runs are independent and deterministic, so parallel
/// execution cannot change any result — only the wall clock. The paper's
/// `--full` workload counts (259 four-core mixes × mechanisms) are why
/// this exists.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_jobs(items, None, f)
}

/// [`parallel_map`] with an explicit worker-thread cap (`--jobs N`);
/// `None` uses all available cores. `Some(1)` degenerates to a serial
/// loop — the knob `bench_harness` uses to measure what the flattened
/// work-list scheduling buys.
pub fn parallel_map_jobs<T, R, F>(items: &[T], jobs: Option<usize>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = jobs
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
        .min(items.len().max(1));
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    // One mutex per result slot: workers write disjoint slots without ever
    // contending on a shared collection (a single global lock would
    // serialize result publication — and poison every slot if any worker
    // panicked while holding it).
    let slots: Vec<std::sync::Mutex<Option<R>>> = (0..items.len())
        .map(|_| std::sync::Mutex::new(None))
        .collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = f(&items[i]);
                    *slots[i].lock().expect("slot lock never poisoned") = Some(r);
                })
            })
            .collect();
        // Join explicitly and re-raise the first worker's own payload: a
        // panicking thread left for `scope` to join surfaces only as a
        // generic "a scoped thread panicked".
        for worker in workers {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock never poisoned")
                .expect("every slot filled")
        })
        .collect()
}

/// Formats a fraction as a signed percentage, e.g. `+13.2%`.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Absolute path of the workspace root, derived from this crate's manifest
/// directory at compile time. Experiment binaries anchor their outputs here
/// so they behave identically from any working directory.
#[must_use]
pub fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .to_path_buf()
}

/// Writes rows as a tab-separated file under `dir` — normally
/// [`BenchArgs::results_dir`] — creating the directory if needed, so the
/// figures are machine-readable for plotting. Errors are reported to
/// stderr, not fatal — the printed tables are the primary output.
pub fn write_tsv(dir: &std::path::Path, name: &str, header: &[String], rows: &[Vec<String>]) {
    let path = dir.join(name);
    let render = |cells: &[String]| cells.join("\t");
    let mut out = render(header);
    for row in rows {
        out.push('\n');
        out.push_str(&render(row));
    }
    out.push('\n');
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, out)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_scales_mix_counts() {
        assert_eq!(Effort::Full.mix_count(4), 259);
        assert_eq!(Effort::Full.mix_count(2), 102);
        assert_eq!(Effort::Full.mix_count(8), 120);
        assert!(Effort::Quick.mix_count(8) < Effort::Default.mix_count(8));
    }

    #[test]
    fn figure_mechanisms_match_paper() {
        assert_eq!(FIGURE_MECHANISMS.len(), 7);
        assert_eq!(FIGURE_MECHANISMS[0].label(), "TA-DIP");
        assert_eq!(FIGURE_MECHANISMS[6].label(), "DBI+AWB+CLB");
    }

    #[test]
    fn pct_formats_sign() {
        assert_eq!(pct(0.132), "+13.2%");
        assert_eq!(pct(-0.05), "-5.0%");
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map(&items, |&x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map(&empty, |&x: &u64| x).is_empty());
    }

    #[test]
    #[should_panic(expected = "worker deliberately panicked")]
    fn parallel_map_propagates_worker_panics() {
        // A panicking closure must surface at the call site (via scoped-
        // thread join), not deadlock or silently drop the item.
        let items: Vec<u64> = (0..64).collect();
        let _ = parallel_map(&items, |&x| {
            assert!(x != 13, "worker deliberately panicked");
            x
        });
    }

    #[test]
    fn parallel_map_handles_many_more_items_than_threads() {
        // Far more items than any machine has cores: every slot must be
        // filled exactly once through the shared work queue.
        let items: Vec<u64> = (0..10_000).collect();
        let out = parallel_map(&items, |&x| x.wrapping_mul(2_654_435_761));
        assert_eq!(out.len(), items.len());
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i as u64).wrapping_mul(2_654_435_761));
        }
    }

    #[test]
    fn parallel_map_matches_serial_tsv_rows() {
        // The experiment binaries build TSV rows through parallel_map;
        // parallelism must never change what gets written.
        let items: Vec<(usize, f64)> = (0..500).map(|i| (i, i as f64 * 0.25)).collect();
        let render = |&(i, v): &(usize, f64)| vec![format!("mix{i}"), format!("{v:.3}"), pct(v)];
        let serial: Vec<Vec<String>> = items.iter().map(render).collect();
        let parallel = parallel_map(&items, render);
        assert_eq!(parallel, serial);
    }
}
