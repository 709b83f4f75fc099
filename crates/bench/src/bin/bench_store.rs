//! `bench_store` — measures the result store's persistence hot paths.
//!
//! Two phases against a scratch store: *ingest* (loose `.entry` saves
//! per second — the cost a campaign pays per simulated unit) and *warm
//! open* (latency of a fresh store handle serving its first hit from the
//! N-entry store — the cost every warm rerun pays before its first
//! result). The entries are real serialized results saved under distinct
//! synthetic keys, so the bytes on disk match what a campaign writes.
//! Writes `BENCH_store.json` at the workspace root; the committed copy
//! pins the store's cost the same way `BENCH_harness.json` pins the
//! suite's.
//!
//! Usage: `cargo run --release -p dbi-bench --bin bench_store
//! [--quick|--full] [--out PATH]`

use std::path::PathBuf;
use std::time::Instant;

use dbi_bench::store::unit_key;
use dbi_bench::{BenchArgs, Effort, ResultStore};
use system_sim::{run_mix, Mechanism, SystemConfig};
use trace_gen::mix::WorkloadMix;
use trace_gen::Benchmark;

fn main() {
    let (args, extras) = BenchArgs::parse_with(&["--out"]);
    let (entries, opens) = if args.effort == Effort::Full {
        (20_000usize, 200usize)
    } else {
        (2_000usize, 50usize)
    };
    let out_path = extras.iter().find(|(flag, _)| flag == "--out").map_or_else(
        || dbi_bench::workspace_root().join("BENCH_store.json"),
        |(_, value)| PathBuf::from(value),
    );

    let scratch = std::env::temp_dir().join(format!("dbi-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    // One real (tiny) simulation provides the payload; distinct seeds
    // provide distinct keys, so ingest measures persistence, not the
    // simulator.
    let mut config = SystemConfig::for_cores(1, Mechanism::Baseline);
    config.warmup_insts = 5_000;
    config.measure_insts = 5_000;
    let mix = WorkloadMix::new(vec![Benchmark::Mcf]);
    let result = run_mix(&mix, &config);
    let keys: Vec<_> = (0..entries)
        .map(|i| {
            let mut c = config.clone();
            c.seed = c.seed.wrapping_add(1 + i as u64);
            unit_key(&c, mix.benchmarks())
        })
        .collect();

    eprintln!("bench_store: ingest {entries} entries...");
    let store = ResultStore::open(scratch.clone());
    let start = Instant::now();
    for key in &keys {
        store.save(key, &result).expect("save");
    }
    let ingest_seconds = start.elapsed().as_secs_f64();
    let ingest_rate = entries as f64 / ingest_seconds;

    eprintln!("bench_store: warm open x{opens}...");
    let probe = &keys[entries / 2];
    let start = Instant::now();
    for _ in 0..opens {
        let fresh = ResultStore::open(scratch.clone());
        assert!(fresh.load(probe).is_some(), "warm open must hit");
    }
    let warm_open_ms = start.elapsed().as_secs_f64() * 1.0e3 / opens as f64;

    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        "{{\n  \"schema\": \"dbi-store-perf/v2\",\n  \"effort\": \"{}\",\n  \"build\": \"{}\",\n  \"cpus\": {cpus},\n  \"entries\": {entries},\n  \"ingest\": {{\n    \"wall_seconds\": {ingest_seconds:.3},\n    \"entries_per_sec\": {ingest_rate:.0}\n  }},\n  \"warm_open\": {{\n    \"opens\": {opens},\n    \"avg_ms\": {warm_open_ms:.3}\n  }}\n}}\n",
        if args.effort == Effort::Full { "full" } else { "quick" },
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    match std::fs::write(&out_path, &json) {
        Ok(()) => eprintln!("wrote {}", out_path.display()),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", out_path.display());
            std::process::exit(1);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    println!("ingest {ingest_rate:.0} entries/s; warm open {warm_open_ms:.3} ms");
}
