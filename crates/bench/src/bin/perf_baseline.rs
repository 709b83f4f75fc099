//! `perf_baseline` — fixed-workload measurement of the simulation hot path.
//!
//! Runs one fixed single-core and one fixed 4-core workload at `--quick`
//! effort across a representative mechanism set, and writes
//! `BENCH_hotpath.json` at the workspace root with wall-clock seconds,
//! trace records/second, and heap-allocation counts per mechanism. The
//! committed copy of that file is the performance baseline: optimizations
//! to the per-access path re-run this binary and diff against it (see
//! docs/architecture.md, "Performance baseline workflow").
//!
//! Pass `--full` for the longer default measurement window; `--out PATH`
//! overrides the output location. `--max-vwq-ratio R` turns the VWQ
//! hot-path regression gate on: it runs the quad-core mechanisms in
//! five interleaved rounds, keeps each one's median run, and exits nonzero
//! when the VWQ wall time exceeds `R` times the median mechanism wall
//! time (CI pins this at 1.25). The JSON records the host's available
//! hardware threads as `cpus`, so absolute rates can be read against the
//! machine that produced them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dbi_bench::{BenchArgs, Effort};
use system_sim::{run_mix, Mechanism, MixResult, SystemConfig};
use trace_gen::mix::WorkloadMix;
use trace_gen::Benchmark;

/// Allocation-counting wrapper around the system allocator. The baseline
/// pins allocations-per-record, so a change that reintroduces per-access
/// heap traffic on the hot path shows up as a step in the JSON even when
/// the wall clock on a noisy machine does not.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// One timed simulation run.
struct Measurement {
    mechanism: &'static str,
    wall_seconds: f64,
    records: u64,
    allocations: u64,
    allocated_bytes: u64,
    ipc: f64,
}

impl Measurement {
    fn records_per_sec(&self) -> f64 {
        self.records as f64 / self.wall_seconds
    }

    fn allocs_per_record(&self) -> f64 {
        self.allocations as f64 / self.records as f64
    }
}

const MECHANISMS: [Mechanism; 5] = [
    Mechanism::Baseline,
    Mechanism::TaDip,
    Mechanism::Dawb,
    Mechanism::Vwq,
    Mechanism::Dbi {
        awb: true,
        clb: true,
    },
];

/// Quad-core runs per mechanism under `--max-vwq-ratio`: one ~1 s run
/// per mechanism puts the ratio of two wall times on either side of the
/// gate from one invocation to the next.
const GATE_RUNS: usize = 5;

/// Each mechanism's run with the median wall time, out of `rounds`
/// rounds that run every mechanism once: a host that slows down for a
/// while then slows every mechanism alike.
fn measure_rounds(
    mix: &WorkloadMix,
    cores: usize,
    effort: Effort,
    rounds: usize,
) -> Vec<Measurement> {
    let mut runs: Vec<Vec<Measurement>> = MECHANISMS.iter().map(|_| Vec::new()).collect();
    for _ in 0..rounds {
        for (mechanism_runs, &mechanism) in runs.iter_mut().zip(&MECHANISMS) {
            mechanism_runs.push(measure(mix, cores, mechanism, effort));
        }
    }
    runs.into_iter()
        .map(|mut all| {
            all.sort_by(|a, b| a.wall_seconds.total_cmp(&b.wall_seconds));
            all.swap_remove(all.len() / 2)
        })
        .collect()
}

fn measure(mix: &WorkloadMix, cores: usize, mechanism: Mechanism, effort: Effort) -> Measurement {
    let mut config = SystemConfig::for_cores(cores, mechanism);
    config.warmup_insts = effort.warmup_insts();
    config.measure_insts = effort.measure_insts();

    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let bytes_before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let start = Instant::now();
    let result: MixResult = run_mix(mix, &config);
    let wall_seconds = start.elapsed().as_secs_f64();

    Measurement {
        mechanism: mechanism.label(),
        wall_seconds,
        records: result.records_processed,
        allocations: ALLOCATIONS.load(Ordering::Relaxed) - allocs_before,
        allocated_bytes: ALLOCATED_BYTES.load(Ordering::Relaxed) - bytes_before,
        ipc: result.cores.iter().map(system_sim::CoreResult::ipc).sum(),
    }
}

fn json_for(name: &str, cores: usize, benchmarks: &[Benchmark], runs: &[Measurement]) -> String {
    let bench_list = benchmarks
        .iter()
        .map(|b| format!("\"{}\"", b.label()))
        .collect::<Vec<_>>()
        .join(", ");
    let mut out = String::new();
    out.push_str(&format!(
        "    {{\n      \"name\": \"{name}\",\n      \"cores\": {cores},\n      \"benchmarks\": [{bench_list}],\n      \"mechanisms\": [\n"
    ));
    for (i, m) in runs.iter().enumerate() {
        out.push_str(&format!(
            "        {{ \"mechanism\": \"{}\", \"wall_seconds\": {:.3}, \"records\": {}, \"records_per_sec\": {:.0}, \"allocations\": {}, \"allocated_bytes\": {}, \"allocs_per_record\": {:.4}, \"aggregate_ipc\": {:.4} }}{}\n",
            m.mechanism,
            m.wall_seconds,
            m.records,
            m.records_per_sec(),
            m.allocations,
            m.allocated_bytes,
            m.allocs_per_record(),
            m.ipc,
            if i + 1 == runs.len() { "" } else { "," },
        ));
    }
    let total_records: u64 = runs.iter().map(|m| m.records).sum();
    let total_wall: f64 = runs.iter().map(|m| m.wall_seconds).sum();
    out.push_str(&format!(
        "      ],\n      \"total_records\": {},\n      \"total_wall_seconds\": {:.3},\n      \"records_per_sec\": {:.0}\n    }}",
        total_records,
        total_wall,
        total_records as f64 / total_wall,
    ));
    out
}

/// Quad-core VWQ wall time over the median mechanism wall time — the
/// metric the word-level dirty/rank index exists to hold down. VWQ's
/// per-writeback SSV refreshes made it the slowest mechanism by far
/// (~1.8× the median) when each refresh rank-scanned the set.
fn vwq_wall_ratio(runs: &[Measurement]) -> f64 {
    let vwq = runs
        .iter()
        .find(|m| m.mechanism == Mechanism::Vwq.label())
        .expect("MECHANISMS includes VWQ");
    let mut walls: Vec<f64> = runs.iter().map(|m| m.wall_seconds).collect();
    walls.sort_by(f64::total_cmp);
    vwq.wall_seconds / walls[walls.len() / 2]
}

fn main() {
    let (args, extras) = BenchArgs::parse_with(&["--out", "--max-vwq-ratio"]);
    // This binary measures raw hot-path throughput, so its historical
    // default is the short `--quick` window; `--full` selects the longer
    // one. It never uses the result store — every run must simulate.
    let effort = if args.effort == Effort::Full {
        Effort::Full
    } else {
        Effort::Quick
    };
    let out_path = extras.iter().find(|(flag, _)| flag == "--out").map_or_else(
        || dbi_bench::workspace_root().join("BENCH_hotpath.json"),
        |(_, value)| std::path::PathBuf::from(value),
    );
    let max_vwq_ratio: Option<f64> = extras
        .iter()
        .find(|(flag, _)| flag == "--max-vwq-ratio")
        .map(|(_, value)| match value.parse::<f64>() {
            Ok(r) if r.is_finite() && r > 0.0 => r,
            _ => {
                eprintln!("error: --max-vwq-ratio needs a positive number, got {value:?}");
                std::process::exit(2);
            }
        });

    if cfg!(debug_assertions) {
        eprintln!(
            "warning: debug build — baseline numbers are only comparable across release builds"
        );
    }

    let single = WorkloadMix::new(vec![Benchmark::Lbm]);
    let quad = WorkloadMix::new(vec![
        Benchmark::Lbm,
        Benchmark::Mcf,
        Benchmark::Libquantum,
        Benchmark::Stream,
    ]);

    let mut sections = Vec::new();
    let mut headline = 0.0f64;
    let mut vwq_ratio = 0.0f64;
    for (name, cores, mix) in [
        ("single_core_lbm", 1usize, &single),
        ("quad_core_mix", 4usize, &quad),
    ] {
        let gated = name == "quad_core_mix" && max_vwq_ratio.is_some();
        let repeats = if gated { GATE_RUNS } else { 1 };
        eprintln!(
            "{name} ({} mechanisms, median of {repeats})...",
            MECHANISMS.len()
        );
        let runs = measure_rounds(mix, cores, effort, repeats);
        for m in &runs {
            eprintln!(
                "  {:<14} {:>8.2}s  {:>10.0} rec/s  {:>7.4} allocs/rec",
                m.mechanism,
                m.wall_seconds,
                m.records_per_sec(),
                m.allocs_per_record(),
            );
        }
        if name == "quad_core_mix" {
            let records: u64 = runs.iter().map(|m| m.records).sum();
            let wall: f64 = runs.iter().map(|m| m.wall_seconds).sum();
            headline = records as f64 / wall;
            vwq_ratio = vwq_wall_ratio(&runs);
        }
        sections.push(json_for(name, cores, mix.benchmarks(), &runs));
    }

    let json = format!(
        "{{\n  \"schema\": \"dbi-hotpath-perf/v1\",\n  \"effort\": \"{}\",\n  \"build\": \"{}\",\n  \"cpus\": {},\n  \"warmup_insts_per_core\": {},\n  \"measure_insts_per_core\": {},\n  \"headline_quad_core_records_per_sec\": {:.0},\n  \"quad_core_vwq_wall_ratio\": {:.3},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        if effort == Effort::Full { "full" } else { "quick" },
        if cfg!(debug_assertions) { "debug" } else { "release" },
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        effort.warmup_insts(),
        effort.measure_insts(),
        headline,
        vwq_ratio,
        sections.join(",\n"),
    );

    match std::fs::write(&out_path, &json) {
        Ok(()) => eprintln!("wrote {}", out_path.display()),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", out_path.display());
            std::process::exit(1);
        }
    }
    println!("headline_quad_core_records_per_sec {headline:.0}");
    println!("quad_core_vwq_wall_ratio {vwq_ratio:.3}");
    if let Some(max) = max_vwq_ratio {
        if vwq_ratio > max {
            eprintln!(
                "error: quad-core VWQ wall ratio {vwq_ratio:.3} exceeds the --max-vwq-ratio \
                 gate of {max:.3} — the SSV refresh path has regressed"
            );
            std::process::exit(1);
        }
        eprintln!("vwq ratio gate: {vwq_ratio:.3} <= {max:.3}, OK");
    }
}
